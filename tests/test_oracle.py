import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skinwave as sw
from skinwave.errors import InvalidParameter, WidthUnavailable
from skinwave.model import dispersion_handle
from skinwave.oracle import dispersion_velocity, general_peak_velocity, measured_sigma_sq

FIG1 = sw.HNOracleParams(m=1.0, b=1.0, sigma=0.25, x0=5.0, wall_right=10.0)


def test_sigma_sq_t_values():
    assert sw.sigma_sq_t(FIG1, 0.0) == pytest.approx(0.0625)
    assert sw.sigma_sq_t(FIG1, 0.5) == pytest.approx(1.0625)
    wide = sw.HNOracleParams(m=1.0, b=1.0, sigma=20.0)
    assert sw.sigma_sq_t(wide, 40.0) == pytest.approx(401.0)


def test_hn_peak_and_velocity_values():
    still = sw.HNOracleParams(m=1.0, b=0.0, sigma=0.25)
    assert sw.hn_peak(still, 3.0) == 0.0
    assert sw.hn_peak_velocity(still, 3.0) == 0.0
    assert sw.hn_peak(FIG1, 0.5) == pytest.approx(2.0)
    assert sw.hn_peak_velocity(FIG1, 0.5) == pytest.approx(8.0)
    # the slope of v_p(t) is b / (m sigma^2) = 16
    assert sw.hn_peak_velocity(FIG1, 1.0) - sw.hn_peak_velocity(FIG1, 0.0) == pytest.approx(16.0)


def test_hn_peak_velocity_is_derivative_of_peak():
    h = 1e-6
    for t in (0.1, 0.5, 1.1):
        numeric = (sw.hn_peak(FIG1, t + h) - sw.hn_peak(FIG1, t - h)) / (2.0 * h)
        assert abs(numeric - sw.hn_peak_velocity(FIG1, t)) < 1e-8


def test_incident_and_reflected_velocities():
    elastic = sw.HNOracleParams(m=1.0, b=0.0, sigma=0.25, k0=7.0)
    assert sw.hn_v_in(elastic, 2.0) == pytest.approx(7.0)
    assert sw.hn_v_ref(elastic, 2.0) == pytest.approx(-7.0)

    fast = sw.HNOracleParams(m=1.0, b=1.0, sigma=0.25, k0=20.0)
    for t in (0.0, 0.3, 1.0):
        assert sw.hn_v_in(fast, t) == pytest.approx(20.0 + 16.0 * t)
        assert sw.hn_v_ref(fast, t) == pytest.approx(-20.0 + 16.0 * t)
    # the reflected packet stalls at the right wall once v_ref >= 0
    t_stall = 20.0 * 0.25**2 / 1.0
    assert t_stall == pytest.approx(1.25)
    assert sw.hn_v_ref(fast, t_stall) == pytest.approx(0.0, abs=1e-12)
    # a time array gives the same values as one call per time
    grid = np.array([0.0, 0.3, 1.0, t_stall])
    for law in (sw.hn_peak, sw.hn_v_in, sw.hn_v_ref):
        assert np.array_equal(law(fast, grid), [law(fast, t) for t in grid])


@settings(max_examples=40)
@given(st.floats(min_value=0.0, max_value=5.0))
def test_velocity_difference_is_constant(t):
    fast = sw.HNOracleParams(m=2.0, b=0.7, sigma=0.4, k0=3.0)
    assert sw.hn_v_in(fast, t) - sw.hn_v_ref(fast, t) == pytest.approx(2.0 * 3.0 / 2.0)


def test_hn_density_initial_and_normalized():
    still = sw.HNOracleParams(m=1.0, b=0.0, sigma=0.25, x0=5.0)
    xs = np.linspace(0.0, 10.0, 4001)
    d0 = sw.hn_density(still, xs, 0.0)
    ref = (2.0 * np.pi * 0.0625) ** -0.5 * np.exp(-((xs - 5.0) ** 2) / 0.125)
    assert np.allclose(d0, ref, atol=1e-12)
    assert np.trapezoid(sw.hn_density(still, xs, 0.4), xs) == pytest.approx(1.0, abs=1e-6)


def test_hn_density_peak_and_amplitude():
    xs = np.linspace(0.0, 10.0, 100001)
    d = sw.hn_density(FIG1, xs, 0.5)
    assert xs[np.argmax(d)] == pytest.approx(7.0, abs=1e-3)
    amplitude_factor = d.max() * np.sqrt(2.0 * np.pi * sw.sigma_sq_t(FIG1, 0.5))
    assert amplitude_factor == pytest.approx(np.exp(2.0), rel=1e-6)
    assert sw.norm_amplification(FIG1, 0.5) == pytest.approx(np.exp(2.0))


def test_hn_density_argmax_tracks_drift_plus_peak():
    p = sw.HNOracleParams(m=1.0, b=0.6, sigma=0.3, k0=4.0, x0=3.0)
    xs = np.linspace(-5.0, 30.0, 200001)
    for t in (0.2, 0.7):
        d = sw.hn_density(p, xs, t)
        expected = 3.0 + 4.0 * t + sw.hn_peak(p, t)
        assert xs[np.argmax(d)] == pytest.approx(expected, abs=2e-4)


def test_norm_amplification_monotone():
    ts = np.linspace(0.0, 3.0, 50)
    vals = [sw.norm_amplification(FIG1, t) for t in ts]
    assert vals[0] == 1.0
    assert np.all(np.diff(vals) >= 0.0)
    still = sw.HNOracleParams(m=1.0, b=0.0, sigma=0.25)
    assert sw.norm_amplification(still, 2.0) == 1.0


def _general(r, sigma_times, sigma_values, spec=None, k0=0.0, smoothing=1):
    disp = dispersion_handle(spec, band=-1) if spec is not None else (lambda k: k * k / 2.0)
    return sw.GeneralOracleParams(
        r=r,
        sigma_times=np.asarray(sigma_times, dtype=float),
        sigma_values=np.asarray(sigma_values, dtype=float),
        dispersion=disp,
        k0=k0,
        smoothing_window=smoothing,
    )


def test_general_peak_trivial_and_ssh_value():
    ts = np.array([0.0, 1.0])
    g1 = _general(1.0, ts, [20.0, 25.0])
    assert sw.general_peak(g1, 1.0) == 0.0

    r = sw.skin_factor(sw.NonHermitianSSH(2.0, 1.0, -0.2, 10))
    g = _general(r, ts, [20.0, 25.0])
    assert sw.general_peak(g, 1.0) == pytest.approx(22.52, abs=0.01)


def test_general_peak_interpolates_missing_widths():
    ts = np.array([0.0, 1.0, 2.0])
    g = _general(2.0, ts, [10.0, np.nan, 12.0])
    mid = sw.general_peak(g, 1.0)
    lo, hi = sw.general_peak(g, 0.0), sw.general_peak(g, 2.0)
    assert lo < mid < hi
    with pytest.raises(WidthUnavailable):
        sw.general_peak(_general(2.0, ts, [np.nan] * 3), 1.0)


def test_general_reduces_to_continuum_forms():
    """With r = exp(b m) and the analytic width series the general expressions
    reproduce the continuum peak law exactly."""
    p = sw.HNOracleParams(m=1.0, b=1.0, sigma=0.25)
    ts = np.linspace(0.0, 1.2, 121)
    sigmas = np.sqrt([sw.sigma_sq_t(p, t) for t in ts])
    g = _general(np.exp(p.b * p.m), ts, sigmas)
    for t in ts[::10]:
        assert sw.general_peak(g, t) == pytest.approx(sw.hn_peak(p, t), abs=1e-10)


def test_general_velocities_and_reflected_momentum():
    spec = sw.NonHermitianSSH(2.0, 1.0, -0.2, 50)
    r = sw.skin_factor(spec)
    p = sw.HNOracleParams(m=1.0, b=1.0, sigma=20.0)
    ts = np.linspace(0.0, 40.0, 81)
    sigmas = np.sqrt([sw.sigma_sq_t(p, t) for t in ts])
    g = _general(r, ts, sigmas, spec=spec, k0=2.0, smoothing=5)

    assert sw.reflected_momentum(g) == -2.0
    v_plus = dispersion_velocity(g, 2.0)
    v_minus = dispersion_velocity(g, -2.0)
    assert v_plus == pytest.approx(-v_minus, rel=1e-9)

    v_in, v_ref = sw.general_velocities(g, 20.0)
    vp = general_peak_velocity(g, 20.0)
    assert v_in == pytest.approx(v_plus + vp, rel=1e-9)
    assert v_ref == pytest.approx(-v_plus + vp, rel=1e-9)

    grid = np.linspace(0.0, 40.0, 17)
    v_in_grid, v_ref_grid = sw.general_velocities(g, grid)
    assert np.array_equal(v_in_grid, [sw.general_velocities(g, t)[0] for t in grid])
    assert np.array_equal(v_ref_grid, [sw.general_velocities(g, t)[1] for t in grid])


def test_general_velocities_hermitian_symmetric():
    spec = sw.NonHermitianSSH(2.0, 1.0, 0.0, 50)
    ts = np.linspace(0.0, 10.0, 11)
    g = _general(1.0, ts, np.full(11, 20.0), spec=spec, k0=1.0)
    v_in, v_ref = sw.general_velocities(g, 5.0)
    assert v_ref == pytest.approx(-v_in, rel=1e-9)


def test_reflected_momentum_trivial_cases():
    g = _general(1.5, [0.0, 1.0], [5.0, 6.0], k0=0.0)
    assert sw.reflected_momentum(g) == 0.0
    assert sw.reflected_momentum(g, 3.0) == -3.0  # parabola is even


def test_predict_stuck_threshold():
    r = sw.skin_factor(sw.NonHermitianSSH(20.0, 1.0, -2.0, 10))
    assert sw.predict_stuck(1.0, r, dsigma_sq_dt=11.0)
    assert not sw.predict_stuck(1.0, r, dsigma_sq_dt=9.0)


def test_measured_sigma_smoothing_window():
    ts = np.arange(5.0)
    noisy = np.array([10.0, 12.0, 10.0, 12.0, 10.0])
    g = _general(2.0, ts, noisy, smoothing=5)
    assert measured_sigma_sq(g, 2.0) == pytest.approx(np.mean(noisy**2))


def test_general_params_validation():
    with pytest.raises(InvalidParameter):
        _general(-1.0, [0.0], [5.0])
    with pytest.raises(InvalidParameter):
        sw.HNOracleParams(m=0.0, b=1.0, sigma=0.25)
