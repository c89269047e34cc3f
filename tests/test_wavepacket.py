import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import skinwave as sw
from skinwave.errors import (
    DegenerateDensity,
    DimensionMismatch,
    InsufficientData,
    InvalidParameter,
)
from skinwave.evolve import evolve_series
from skinwave.model import Geometry
from skinwave.wavepacket import HALF_WIDTH_FACTOR, aggregate_density, differentiate, moving_average, top_two_peaks

from reference import HNOracleParams, hn_density


def box_geometry(n=1000, dx=0.01):
    return Geometry(positions=np.arange(n) * dx, dx=dx)


def test_gaussian_state_profile_and_norm():
    geom = box_geometry()
    st_ = sw.gaussian_state(geom, sw.GaussianParams(sigma=0.25, x0=5.0))
    assert np.linalg.norm(st_.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert geom.positions[np.argmax(np.abs(st_.amplitudes))] == pytest.approx(5.0)
    # k0 = 0: real and positive up to the (absent) global phase
    assert np.max(np.abs(st_.amplitudes.imag)) < 1e-14
    # offset records the discrete-normalization factor, about 1/sqrt(dx)
    assert st_.log_norm_offset == pytest.approx(0.5 * np.log(1.0 / 0.01), abs=0.01)


def test_gaussian_state_ssh_occupies_a_only():
    h = sw.build_hamiltonian(sw.NonHermitianSSH(2.0, 1.0, -0.2, 100))
    st_ = sw.gaussian_state(h.geometry, sw.GaussianParams(sigma=5.0, x0=50.0, k0=2.0))
    assert np.all(st_.amplitudes[1::2] == 0.0)
    assert np.linalg.norm(st_.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_state_warns_on_tight_clearance():
    geom = box_geometry(200, 0.01)
    with pytest.warns(UserWarning, match="clearance"):
        sw.gaussian_state(geom, sw.GaussianParams(sigma=0.2, x0=0.5))


def test_gaussian_state_refuses_profile_without_a_sample():
    # far narrower than the spacing and off the grid points: every sample is exp(-inf) = 0
    geom = box_geometry(100, 0.01)
    for sigma in (1e-10, 1e-160):
        with pytest.raises(InvalidParameter, match=f"sigma {sigma!r}"):
            sw.gaussian_state(geom, sw.GaussianParams(sigma=sigma, x0=0.505))


def test_gaussian_params_validation():
    with pytest.raises(InvalidParameter):
        sw.GaussianParams(sigma=0.0, x0=1.0)
    with pytest.raises(InvalidParameter):
        sw.GaussianParams(sigma=-1.0, x0=1.0)


def test_density_delta_state():
    geom = box_geometry(50, 1.0)
    amps = np.zeros(50, dtype=complex)
    amps[17] = 1.0
    d = aggregate_density(np.abs(amps) ** 2, geom)
    assert d[17] == 1.0 and d.sum() == 1.0


def test_density_ssh_sums_sublattices():
    h = sw.build_hamiltonian(sw.NonHermitianSSH(2.0, 1.0, -0.2, 4))
    amps = np.zeros(8, dtype=complex)
    amps[0] = amps[1] = 1.0 / np.sqrt(2.0)
    d = aggregate_density(np.abs(amps) ** 2, h.geometry)
    assert d[0] == pytest.approx(1.0, abs=1e-15)
    assert np.all(d[1:] == 0.0)


def test_density_matches_continuum_gaussian():
    geom = box_geometry()
    st_ = sw.gaussian_state(geom, sw.GaussianParams(sigma=0.25, x0=5.0))
    d = aggregate_density(np.abs(st_.amplitudes) ** 2, geom)
    xs = geom.positions
    ref = 0.01 * (2.0 * np.pi * 0.0625) ** -0.5 * np.exp(-((xs - 5.0) ** 2) / (2.0 * 0.0625))
    assert np.max(np.abs(d - ref)) < 1e-6


def _peak(dens, geom):
    return sw.measure_frames(np.asarray(dens)[None, :], geom)[0][0]


def _sigma(dens, geom):
    return sw.measure_frames(np.asarray(dens)[None, :], geom)[1][0]


def test_peak_position_symmetric_gaussian():
    geom = box_geometry()
    st_ = sw.gaussian_state(geom, sw.GaussianParams(sigma=0.25, x0=5.0))
    x = _peak(aggregate_density(np.abs(st_.amplitudes) ** 2, geom), geom)
    assert abs(x - 5.0) <= 0.005 + 1e-12


def test_peak_position_free_evolution_frame():
    # closed-form density at t = 0.5 peaks at x0 + 2
    p = HNOracleParams(m=1.0, b=1.0, sigma=0.25, x0=5.0)
    geom = box_geometry()
    d = hn_density(p, geom.positions, 0.5)
    x = _peak(d, geom)
    assert abs(x - 7.0) <= 0.02


def test_peak_position_monotone_density_clamps():
    geom = box_geometry(100, 0.1)
    d = np.linspace(0.0, 1.0, 100)
    assert _peak(d, geom) == pytest.approx(geom.positions[-1])


def test_peak_position_rejects_zero_density():
    geom = box_geometry(10, 1.0)
    with pytest.raises(DegenerateDensity):
        _peak(np.zeros(10), geom)
    # the stack names its first frame without positive density
    stack = np.ones((4, 10))
    stack[2:] = 0.0
    with pytest.raises(DegenerateDensity, match="frame 2"):
        sw.measure_frames(stack, geom)
    with pytest.raises(DimensionMismatch):
        sw.measure_frames(np.ones((4, 9)), geom)


@settings(max_examples=30)
@given(st.integers(min_value=-40, max_value=40))
def test_peak_translation_covariance(shift):
    geom = box_geometry(400, 0.5)
    xs = geom.positions
    base = np.exp(-((xs - 100.0) ** 2) / 60.0)
    x0 = _peak(base, geom)
    x1 = _peak(np.roll(base, shift), geom)
    assert x1 - x0 == pytest.approx(shift * 0.5, abs=1e-9)


def test_sigma_from_halfwidth_recovers_gaussian():
    geom = Geometry(positions=np.arange(500, dtype=float), dx=1.0)
    d = np.exp(-((geom.positions - 250.0) ** 2) / (2.0 * 20.0**2))
    sigma = _sigma(d, geom)
    assert sigma == pytest.approx(20.0, rel=5e-3)
    # the full width at half maximum itself
    assert sigma * 2.0 * np.sqrt(2.0 * np.log(2.0)) == pytest.approx(47.096, abs=0.3)


@settings(max_examples=25)
@given(st.floats(min_value=-30.0, max_value=30.0))
def test_sigma_halfwidth_scale_free(log_scale):
    geom = Geometry(positions=np.arange(300, dtype=float), dx=1.0)
    d = np.exp(-((geom.positions - 150.0) ** 2) / (2.0 * 12.0**2))
    a = _sigma(d, geom)
    b = _sigma(d * np.exp(log_scale), geom)
    assert b == pytest.approx(a, rel=1e-12)


def test_sigma_halfwidth_two_peak_uses_primary():
    geom = Geometry(positions=np.arange(600, dtype=float), dx=1.0)
    xs = geom.positions
    primary = np.exp(-((xs - 200.0) ** 2) / (2.0 * 15.0**2))
    secondary = 0.4 * np.exp(-((xs - 420.0) ** 2) / (2.0 * 30.0**2))
    sigma = _sigma(primary + secondary, geom)
    assert sigma == pytest.approx(15.0, rel=0.02)


def test_sigma_halfwidth_unavailable_at_wall():
    geom = Geometry(positions=np.arange(100, dtype=float), dx=1.0)
    d = np.exp(-((geom.positions - 95.0) ** 2) / (2.0 * 10.0**2))
    assert np.isnan(_sigma(d, geom))


def _refine_loop(dens, xs, i, spacing):
    """Reference: vertex of the 3-point parabola through sample i, at most half a spacing away."""
    if 0 < i < len(dens) - 1:
        dm, d0, dp = dens[i - 1], dens[i], dens[i + 1]
        denom = dm - 2.0 * d0 + dp
        offset = 0.0 if denom == 0 else 0.5 * (dm - dp) / denom
        return float(xs[i] + min(0.5, max(-0.5, offset)) * spacing)
    return float(xs[i])


def _peak_loop(dens, xs, spacing):
    """Reference: the argmax refined by the parabola and clamped to the domain."""
    x = _refine_loop(dens, xs, int(np.argmax(dens)), spacing)
    return float(min(xs[-1], max(xs[0], x)))


def _top_two_loop(dens, xs, spacing, min_separation=3, min_height_fraction=1e-3):
    """Reference: top_two_peaks' scan of every sample for local maxima, each refined on its own."""
    peaks = sorted(
        ((float(dens[j]), j) for j in range(1, len(dens) - 1)
         if dens[j] >= dens[j - 1] and dens[j] >= dens[j + 1]),
        reverse=True,
    )
    chosen = []
    for height, j in peaks:
        if chosen and height < min_height_fraction * dens[chosen[0]]:
            break
        if all(abs(j - c) >= min_separation for c in chosen):
            chosen.append(j)
        if len(chosen) == 2:
            break
    return [(_refine_loop(dens, xs, j, spacing), float(dens[j])) for j in chosen]


def _sigma_loop(dens, xs):
    """Reference: walk out from the argmax to the first sample below half on each side."""
    i = int(np.argmax(dens))
    half = dens[i] / 2.0
    j = i
    while j < len(dens) - 1 and dens[j + 1] >= half:
        j += 1
    if j >= len(dens) - 1:
        return np.nan
    x_right = xs[j] + (xs[j + 1] - xs[j]) * (dens[j] - half) / (dens[j] - dens[j + 1])
    j = i
    while j > 0 and dens[j - 1] >= half:
        j -= 1
    if j <= 0:
        return np.nan
    x_left = xs[j] - (xs[j] - xs[j - 1]) * (dens[j] - half) / (dens[j] - dens[j - 1])
    return float((x_right - x_left) / HALF_WIDTH_FACTOR)


@st.composite
def _density_stacks(draw):
    """Random stacks with plateaus, tied maxima, maxima on either wall and crossings off either wall."""
    n = draw(st.integers(min_value=1, max_value=40))
    frames = draw(st.integers(min_value=1, max_value=6))
    steps = arrays(np.int8, (frames, n), elements=st.integers(min_value=0, max_value=6))
    smooth = arrays(
        np.float64, (frames, n), elements=st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False)
    )
    dens = draw(steps.map(lambda a: a.astype(float)) | smooth)
    dens[dens.max(axis=1) <= 0, draw(st.integers(min_value=0, max_value=n - 1))] = 1.0
    return dens * draw(st.floats(min_value=1e-6, max_value=1e6))


@settings(max_examples=200, deadline=None)
@given(
    dens=_density_stacks(),
    two_site=st.booleans(),
    step=st.sampled_from([1.0, 0.01, 0.37]),
    dx=st.sampled_from([1.0, 0.01, 0.37, 3.0]),
)
def test_measure_frames_matches_per_frame_loop(dens, two_site, step, dx):
    # dx is drawn apart from the grid step so that a refined peak can land off
    # the domain and be clamped back, as the per-frame loop did
    per_cell = 2 if two_site else 1
    geom = Geometry(positions=np.repeat(np.arange(dens.shape[1]) * step, per_cell) + 3.0,
                    dx=dx, sites_per_cell=per_cell)
    xs = geom.density_positions
    x_peak, sigma = sw.measure_frames(dens, geom)
    assert np.array_equal(x_peak, [_peak_loop(d, xs, dx) for d in dens])
    assert np.array_equal(sigma, [_sigma_loop(d, xs) for d in dens], equal_nan=True)
    # plateau maxima (zero curvature) reach the shared refinement through top_two_peaks
    for d in dens:
        assert top_two_peaks(d, geom) == _top_two_loop(d, xs, dx)


def test_top_two_peaks_reports_both_modes():
    geom = Geometry(positions=np.arange(600, dtype=float), dx=1.0)
    xs = geom.positions
    d = np.exp(-((xs - 200.0) ** 2) / 450.0) + 0.5 * np.exp(-((xs - 420.0) ** 2) / 450.0)
    peaks = top_two_peaks(d, geom)
    assert len(peaks) == 2
    assert peaks[0][0] == pytest.approx(200.0, abs=1.0)
    assert peaks[1][0] == pytest.approx(420.0, abs=1.0)
    # noise-floor secondary maxima are suppressed
    d2 = np.exp(-((xs - 200.0) ** 2) / 450.0)
    d2[500] += 1e-9
    assert len(top_two_peaks(d2, geom)) == 1


def _fake_trajectory(times, x):
    zeros = np.zeros_like(times)
    return sw.TrajectorySeries(
        times=times,
        x_peak=x,
        v_peak=zeros,
        sigma_measured=np.full_like(times, np.nan),
        log_norm=zeros,
        boundary_contact_time=None,
        contact_index=None,
        contact_boundary=None,
        domain=(0.0, 10.0),
        dx=0.01,
    )


def test_differentiate_constant_and_quadratic():
    times = np.arange(0.0, 1.0, 0.01)
    assert np.allclose(differentiate(times, np.full_like(times, 3.3)), 0.0, atol=1e-12)

    v = differentiate(times, 8.0 * times**2)
    assert np.allclose(v[1:-1], 16.0 * times[1:-1], atol=1e-6)


def test_differentiate_needs_three_samples():
    times = np.array([0.0, 1.0])
    with pytest.raises(InsufficientData):
        differentiate(times, times)


def test_moving_average_window_one_is_identity():
    x = np.array([1.0, 4.0, 2.0, 8.0])
    assert np.array_equal(moving_average(x, 1), x)
    sm = moving_average(x, 3)
    assert sm[0] == 1.0 and sm[-1] == 8.0
    assert sm[1] == pytest.approx((1.0 + 4.0 + 2.0) / 3.0)


def _moving_average_loop(values, window):
    """Reference: one slice mean per sample, the window shrinking at the edges."""
    values = np.asarray(values, dtype=float)
    if window <= 1:
        return values
    half, n = window // 2, len(values)
    out = np.empty_like(values)
    for i in range(n):
        k = min(half, i, n - 1 - i)
        out[i] = values[i - k : i + k + 1].mean()
    return out


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=0, max_size=300
    ),
    window=st.integers(min_value=1, max_value=12),
)
def test_moving_average_matches_slice_mean_loop(values, window):
    values = np.array(values, dtype=float)
    assert np.array_equal(moving_average(values, window), _moving_average_loop(values, window))


@pytest.fixture(scope="module")
def hermitian_bounce():
    """Free Hermitian packet launched at the right wall (elastic reference)."""
    spec = sw.ContinuousHN(m=1.0, b=0.0, length=10.0, dx=0.01)
    h = sw.build_hamiltonian(spec)
    psi0 = sw.gaussian_state(h.geometry, sw.GaussianParams(sigma=0.25, x0=5.0, k0=20.0))
    times = np.linspace(0.0, 0.55, 180)
    return evolve_series(h, psi0, times)


def test_hermitian_reflection_is_elastic(hermitian_bounce):
    opts = sw.AnalysisOptions(
        smoothing_window=5, contact_threshold=35.0, guard_band=10, classify_window=0.28
    )
    traj = sw.extract_trajectory(hermitian_bounce, opts)
    out = sw.classify_reflection(traj, options=opts)
    assert out.kind == "reflected"
    v_in = out.v_in_fit.value_at_midpoint
    v_ref = out.v_ref_fit.value_at_midpoint
    assert -v_ref / v_in == pytest.approx(1.0, abs=0.03)


def test_hermitian_never_sticks(hermitian_bounce):
    for threshold in (10.0, 35.0, 60.0):
        opts = sw.AnalysisOptions(smoothing_window=5, contact_threshold=threshold, guard_band=7)
        traj = sw.extract_trajectory(hermitian_bounce, opts)
        assert sw.classify_reflection(traj, options=opts).kind != "stuck"


@pytest.fixture(scope="module")
def hermitian_rest():
    spec = sw.ContinuousHN(m=1.0, b=0.0, length=10.0, dx=0.02)
    h = sw.build_hamiltonian(spec)
    psi0 = sw.gaussian_state(h.geometry, sw.GaussianParams(sigma=0.25, x0=5.0))
    times = np.linspace(0.0, 0.5, 60)
    return evolve_series(h, psi0, times), times


def test_hermitian_rest_packet_is_stationary(hermitian_rest):
    res, _ = hermitian_rest
    traj = sw.extract_trajectory(res, sw.AnalysisOptions(smoothing_window=1))
    assert np.max(np.abs(traj.x_peak - 5.0)) < 2 * 0.02


def test_hermitian_spreading_law(hermitian_rest):
    res, times = hermitian_rest
    traj = sw.extract_trajectory(res, sw.AnalysisOptions(smoothing_window=1))
    law = np.sqrt(0.25**2 + times**2 / (4.0 * 0.25**2))
    ok = np.isfinite(traj.sigma_measured)
    assert np.max(np.abs(traj.sigma_measured[ok] - law[ok]) / law[ok]) < 0.02


def test_classify_no_contact():
    times = np.linspace(0.0, 1.0, 20)
    traj = _fake_trajectory(times, np.full_like(times, 5.0))
    assert sw.classify_reflection(traj).kind == "no_contact"
