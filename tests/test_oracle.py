import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skinwave as sw
from skinwave.errors import InvalidParameter
from skinwave.model import group_velocity
from skinwave.presets import get_preset
from skinwave.runner import oracle_series
from skinwave.wavepacket import TrajectorySeries

from reference import HNOracleParams, hn_density, hn_peak, norm_amplification, sigma_sq_t

FIG1 = HNOracleParams(m=1.0, b=1.0, sigma=0.25, x0=5.0)


def _hn_law(p, t):
    """The continuum's skin law on the time grid ``t`` (kappa = b m, v0 = k0/m)."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    return sw.GeneralOracleParams(p.b * p.m, p.k0 / p.m, ts, *sw.width_series(p.sigma, 1 / p.m, ts), x0=p.x0)


def _v_in(p, t):
    return sw.general_velocities(_hn_law(p, t))[0]


def _v_ref(p, t):
    return sw.general_velocities(_hn_law(p, t))[1]


def test_sigma_sq_t_values():
    assert sigma_sq_t(FIG1, 0.0) == pytest.approx(0.0625)
    assert sigma_sq_t(FIG1, 0.5) == pytest.approx(1.0625)
    wide = HNOracleParams(m=1.0, b=1.0, sigma=20.0)
    assert sigma_sq_t(wide, 40.0) == pytest.approx(401.0)


def test_hn_peak_and_velocity_values():
    still = HNOracleParams(m=1.0, b=0.0, sigma=0.25)
    assert hn_peak(still, 3.0) == 0.0
    assert _v_in(still, 3.0) == 0.0
    assert hn_peak(FIG1, 0.5) == pytest.approx(2.0)
    # at rest the incident velocity is the peak velocity 2 b m d sigma^2/dt
    assert _v_in(FIG1, 0.5) == pytest.approx(8.0)
    # the slope of v_p(t) is b / (m sigma^2) = 16
    assert _v_in(FIG1, 1.0) - _v_in(FIG1, 0.0) == pytest.approx(16.0)
    # at rest the law's peak is x0 + hn_peak (its grid starts at t = 0)
    assert sw.general_peak(_hn_law(FIG1, [0.0, 0.5]))[1] == pytest.approx(5.0 + 2.0)


def test_hn_peak_velocity_is_derivative_of_peak():
    h = 1e-6
    for t in (0.1, 0.5, 1.1):
        numeric = (hn_peak(FIG1, t + h) - hn_peak(FIG1, t - h)) / (2.0 * h)
        assert abs(numeric - _v_in(FIG1, t)[0]) < 1e-8


def test_incident_and_reflected_velocities():
    elastic = HNOracleParams(m=1.0, b=0.0, sigma=0.25, k0=7.0)
    assert _v_in(elastic, 2.0) == pytest.approx(7.0)
    assert _v_ref(elastic, 2.0) == pytest.approx(-7.0)

    fast = HNOracleParams(m=1.0, b=1.0, sigma=0.25, k0=20.0)
    for t in (0.0, 0.3, 1.0):
        assert _v_in(fast, t) == pytest.approx(20.0 + 16.0 * t)
        assert _v_ref(fast, t) == pytest.approx(-20.0 + 16.0 * t)
    # the reflected packet stalls at the right wall once v_ref >= 0
    t_stall = 20.0 * 0.25**2 / 1.0
    assert t_stall == pytest.approx(1.25)
    assert _v_ref(fast, t_stall) == pytest.approx(0.0, abs=1e-12)
    # a time array gives the same values as one call per time
    grid = np.array([0.0, 0.3, 1.0, t_stall])
    for law in (hn_peak, _v_in, _v_ref):
        assert np.array_equal(law(fast, grid), np.ravel([law(fast, t) for t in grid]))


@settings(max_examples=40)
@given(st.floats(min_value=0.0, max_value=5.0))
def test_velocity_difference_is_constant(t):
    fast = HNOracleParams(m=2.0, b=0.7, sigma=0.4, k0=3.0)
    assert _v_in(fast, t) - _v_ref(fast, t) == pytest.approx(2.0 * 3.0 / 2.0)


def test_hn_density_initial_and_normalized():
    still = HNOracleParams(m=1.0, b=0.0, sigma=0.25, x0=5.0)
    xs = np.linspace(0.0, 10.0, 4001)
    d0 = hn_density(still, xs, 0.0)
    ref = (2.0 * np.pi * 0.0625) ** -0.5 * np.exp(-((xs - 5.0) ** 2) / 0.125)
    assert np.allclose(d0, ref, atol=1e-12)
    assert np.trapezoid(hn_density(still, xs, 0.4), xs) == pytest.approx(1.0, abs=1e-6)


def test_hn_density_peak_and_amplitude():
    xs = np.linspace(0.0, 10.0, 100001)
    d = hn_density(FIG1, xs, 0.5)
    assert xs[np.argmax(d)] == pytest.approx(7.0, abs=1e-3)
    amplitude_factor = d.max() * np.sqrt(2.0 * np.pi * sigma_sq_t(FIG1, 0.5))
    assert amplitude_factor == pytest.approx(np.exp(2.0), rel=1e-6)
    assert norm_amplification(FIG1, 0.5) == pytest.approx(np.exp(2.0))


def test_hn_density_argmax_tracks_drift_plus_peak():
    p = HNOracleParams(m=1.0, b=0.6, sigma=0.3, k0=4.0, x0=3.0)
    xs = np.linspace(-5.0, 30.0, 200001)
    for t in (0.2, 0.7):
        d = hn_density(p, xs, t)
        expected = 3.0 + 4.0 * t + hn_peak(p, t)
        assert xs[np.argmax(d)] == pytest.approx(expected, abs=2e-4)


def test_norm_amplification_monotone():
    ts = np.linspace(0.0, 3.0, 50)
    vals = [norm_amplification(FIG1, t) for t in ts]
    assert vals[0] == 1.0
    assert np.all(np.diff(vals) >= 0.0)
    still = HNOracleParams(m=1.0, b=0.0, sigma=0.25)
    assert norm_amplification(still, 2.0) == 1.0


def _general(kappa, times, sigmas, v0=0.0):
    times = np.asarray(times, dtype=float)
    sigma_sq = np.asarray(sigmas, dtype=float) ** 2
    return sw.GeneralOracleParams(kappa, v0, times, sigma_sq, np.gradient(sigma_sq, times))


def test_general_peak_trivial_and_ssh_value():
    ts = np.array([0.0, 1.0])
    g1 = _general(0.0, ts, [20.0, 25.0])
    assert sw.general_peak(g1)[1] == 0.0

    r = sw.skin_factor(sw.NonHermitianSSH(2.0, 1.0, -0.2, 10))
    g = _general(np.log(r), ts, [20.0, 25.0])
    assert sw.general_peak(g)[1] == pytest.approx(22.52, abs=0.01)


def test_general_reduces_to_continuum_forms():
    """With kappa = b m and the analytic width series the measured-width law
    reproduces the continuum peak law exactly."""
    p = HNOracleParams(m=1.0, b=1.0, sigma=0.25)
    ts = np.linspace(0.0, 1.2, 121)
    sigmas = np.sqrt([sigma_sq_t(p, t) for t in ts])
    peak = sw.general_peak(_general(p.b * p.m, ts, sigmas))
    for i in range(0, 121, 10):
        assert peak[i] == pytest.approx(hn_peak(p, ts[i]), abs=1e-10)


def test_general_velocities_and_reflected_momentum():
    spec = sw.NonHermitianSSH(2.0, 1.0, -0.2, 50)
    r = sw.skin_factor(spec)
    p = HNOracleParams(m=1.0, b=1.0, sigma=20.0)
    ts = np.linspace(0.0, 40.0, 81)
    sigmas = np.sqrt([sigma_sq_t(p, t) for t in ts])
    v_plus = group_velocity(spec, 2.0, band=-1)
    g = _general(np.log(r), ts, sigmas, v0=v_plus)

    # the reflected momentum is -k0: the counterpart band is even
    v_minus = group_velocity(spec, -2.0, band=-1)
    assert v_plus == pytest.approx(-v_minus, rel=1e-9)

    v_in, v_ref = sw.general_velocities(g)
    vp = 2.0 * np.log(r) * g.dsigma_sq_dt
    assert v_in[40] == pytest.approx(v_plus + vp[40], rel=1e-9)
    assert v_ref[40] == pytest.approx(-v_plus + vp[40], rel=1e-9)


def test_general_velocities_hermitian_symmetric():
    spec = sw.NonHermitianSSH(2.0, 1.0, 0.0, 50)
    ts = np.linspace(0.0, 10.0, 11)
    g = _general(0.0, ts, np.full(11, 20.0), v0=group_velocity(spec, 1.0, band=-1))
    v_in, v_ref = sw.general_velocities(g)
    assert v_ref[5] == pytest.approx(-v_in[5], rel=1e-9)


def test_continuum_oracle_columns_state_the_grid_band_law():
    """On fig1c's frame grid the oracle columns are the skin law of the grid's own
    band, written out here: hops a = -1/(2 m dx^2) + b/dx above the diagonal and
    c = -1/(2 m dx^2) below it, E(k) = d - 2 sqrt(a c) cos(k dx), kappa = ln sqrt(c/a) / dx.
    x0 + v0 t + 2 kappa (E'' t)^2 / (4 sigma^2) before contact and
    +-v0 + kappa E''^2 t / sigma^2 on their sides of it."""
    cfg = get_preset("fig1c")
    spec, packet = cfg.model, cfg.packet
    times = np.linspace(0.0, cfg.times.t_max, cfg.times.frame_count)
    ci = 35
    blank = np.full(len(times), np.nan)
    trajectory = TrajectorySeries(
        times=times, x_peak=np.zeros(len(times)), v_peak=blank, sigma_measured=blank,
        log_norm=blank, boundary_contact_time=float(times[ci]), contact_index=ci,
        contact_boundary=spec.length, domain=(0.0, spec.length), dx=spec.dx,
    )
    oracle, _ = oracle_series(spec, packet, trajectory)
    dx = spec.dx
    below = -1.0 / (2.0 * spec.m * dx * dx)
    above = below + spec.b / dx
    hop, kappa, kdx = np.sqrt(above * below), 0.5 * np.log(below / above) / dx, packet.k0 * dx
    v0 = 2.0 * hop * dx * np.sin(kdx)
    curvature = 2.0 * hop * dx * dx * np.cos(kdx)
    spread = 2.0 * kappa * (curvature * times) ** 2 / (4.0 * packet.sigma**2)
    drift = kappa * curvature**2 * times / packet.sigma**2
    np.testing.assert_allclose(oracle.x_peak[:ci], (packet.x0 + v0 * times + spread)[:ci], rtol=1e-12, atol=0)
    np.testing.assert_allclose(oracle.v_in[:ci], (v0 + drift)[:ci], rtol=1e-12, atol=0)
    np.testing.assert_allclose(oracle.v_ref[ci:], (-v0 + drift)[ci:], rtol=1e-12, atol=0)
    assert np.all(np.isnan(oracle.x_peak[ci:])) and np.all(np.isnan(oracle.v_ref[:ci]))


def test_lattice_oracle_columns_state_the_band_curvature_law():
    """On fig4's frame grid the oracle columns are x0 + v0 t + 2 ln r (E'' t)^2 / (4 sigma^2)
    before contact and +-v0 + ln r E''^2 t / sigma^2 on their sides of it, with the
    lower band E(k) = -sqrt(A + B cos k) of the counterpart written out here."""
    cfg = get_preset("fig4")
    spec, packet = cfg.model, cfg.packet
    times = np.linspace(0.0, cfg.times.t_max, cfg.times.frame_count)
    ci = 150
    blank = np.full(len(times), np.nan)
    trajectory = TrajectorySeries(
        times=times, x_peak=np.zeros(len(times)), v_peak=blank, sigma_measured=blank,
        log_norm=blank, boundary_contact_time=float(times[ci]), contact_index=ci,
        contact_boundary=float(spec.n_cells - 1), domain=(0.0, float(spec.n_cells - 1)), dx=1.0,
    )
    oracle, _ = oracle_series(spec, packet, trajectory)
    lo, hi = spec.t1 - spec.gamma / 2.0, spec.t1 + spec.gamma / 2.0
    ln_r = 0.5 * np.log(lo / hi)   # intracell hops t1 -/+ gamma/2 below/above the diagonal
    a, b, k = lo * hi + spec.t2**2, 2.0 * np.sqrt(lo * hi) * spec.t2, packet.k0
    root = np.sqrt(a + b * np.cos(k))
    v0 = b * np.sin(k) / (2.0 * root)
    curvature = b * np.cos(k) / (2.0 * root) + (b * np.sin(k)) ** 2 / (4.0 * root**3)
    spread = 2.0 * ln_r * (curvature * times) ** 2 / (4.0 * packet.sigma**2)
    drift = ln_r * curvature**2 * times / packet.sigma**2
    assert ln_r > 0 and abs(spread[ci]) > 1.0
    np.testing.assert_allclose(oracle.x_peak[:ci], (packet.x0 + v0 * times + spread)[:ci], rtol=1e-12, atol=0)
    np.testing.assert_allclose(oracle.v_in[:ci], (v0 + drift)[:ci], rtol=1e-12, atol=0)
    np.testing.assert_allclose(oracle.v_ref[ci:], (-v0 + drift)[ci:], rtol=1e-12, atol=0)
    assert np.all(np.isnan(oracle.x_peak[ci:])) and np.all(np.isnan(oracle.v_ref[:ci]))


def test_predict_stuck_threshold():
    """The right-wall sticking criterion is the law's v_ref >= 0: v0 <= 2 ln(r) d sigma^2/dt."""
    r = sw.skin_factor(sw.NonHermitianSSH(20.0, 1.0, -2.0, 10))
    g = sw.GeneralOracleParams(np.log(r), 1.0, np.array([0.0, 1.0]), np.zeros(2), np.array([11.0, 9.0]))
    _, v_ref = sw.general_velocities(g)
    assert v_ref[0] >= 0.0
    assert v_ref[1] < 0.0


def test_general_params_validation():
    with pytest.raises(InvalidParameter):
        _general(np.nan, [0.0, 1.0], [5.0, 6.0])
    with pytest.raises(InvalidParameter):
        HNOracleParams(m=0.0, b=1.0, sigma=0.25)
