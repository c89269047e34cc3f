"""Acceptance suite: one test per pinned criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on success (pytest shows them on failure regardless).
"""

import numpy as np
import pytest

import skinwave as sw
from skinwave.evolve import evolve_series
from skinwave.model import build_hamiltonian, chain_similarity
from skinwave.presets import get_preset
from skinwave.runner import run_preset
from skinwave.wavepacket import extract_trajectory, gaussian_state

from reference import HNOracleParams, banded, eig_propagated, hn_peak, propagated


def _ok(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


@pytest.fixture(scope="module")
def fig1a(tmp_path_factory):
    """One full fig1a pipeline shared by criteria 1, 2, and 4."""
    cfg = get_preset("fig1a").with_overrides(out_dir=tmp_path_factory.mktemp("fig1a"))
    h = build_hamiltonian(cfg.model)
    psi0 = gaussian_state(h.geometry, cfg.packet)
    times = np.linspace(0.0, cfg.times.t_max, cfg.times.frame_count)
    result = evolve_series(h, psi0, times, method=cfg.method)
    trajectory = extract_trajectory(result, cfg.analysis)
    return cfg, h, psi0, result, trajectory


def test_criterion_1_uniform_acceleration(fig1a):
    cfg, _, _, result, trajectory = fig1a
    times, x = trajectory.times, trajectory.x_peak
    law = 5.0 + 8.0 * times**2

    assert trajectory.contact_index is not None
    free = np.arange(len(times)) < trajectory.contact_index - cfg.analysis.guard_band
    free &= x < 10.0 - 0.5
    deviation = np.max(np.abs(x[free] - law[free]))
    assert deviation <= 0.05

    # the peak advances toward the right wall and then stays near it
    pre = np.arange(len(times)) < trajectory.contact_index
    assert np.all(np.diff(x[pre]) > -2 * 0.01)
    post = ~pre
    threshold = cfg.analysis.contact_threshold * 0.01
    assert np.all(np.abs(x[post] - trajectory.contact_boundary) <= threshold)
    _ok(1, f"max |x_peak - 8t^2| = {deviation:.4f} <= 0.05 before contact; peak stays at the wall")


def test_criterion_2_velocity_slope(fig1a):
    cfg, _, _, _, trajectory = fig1a
    from skinwave.runner import fit_peak_velocity_slope

    slope = fit_peak_velocity_slope(trajectory, cfg.analysis)
    assert slope == pytest.approx(16.0, rel=0.05)
    _ok(2, f"fitted v_peak slope {slope:.3f} within 16 +/- 5%")


def test_criterion_3_inelastic_reflection(tmp_path):
    rep_c = run_preset("fig1c", out_dir=tmp_path / "fig1c")
    assert rep_c.classification == "reflected"
    vi, vr = rep_c.v_in_fit, rep_c.v_ref_fit
    assert vi.intercept == pytest.approx(20.0, abs=2.0)
    assert vi.slope == pytest.approx(16.0, rel=0.10)
    assert vr.intercept == pytest.approx(-20.0, abs=2.0)
    assert vr.slope == pytest.approx(16.0, rel=0.10)
    assert abs(vi.value_at_midpoint) > abs(vr.value_at_midpoint)

    rep_b = run_preset("fig1b", out_dir=tmp_path / "fig1b")
    assert rep_b.classification == "reflected"
    assert abs(rep_b.v_in_fit.value_at_midpoint) < abs(rep_b.v_ref_fit.value_at_midpoint)
    _ok(
        3,
        "fig1c fits v_in=({:.2f}t+{:.2f}), v_ref=({:.2f}t{:+.2f}), |v_in|>|v_ref|; "
        "fig1b |v_in|<|v_ref| at the left wall".format(
            vi.slope, vi.intercept, vr.slope, vr.intercept
        ),
    )


def test_criterion_4_amplification(fig1a):
    _, h, psi0, _, _ = fig1a
    _, (log_norm,) = propagated(h, psi0, [0.5], "spectral")
    ratio = np.exp(2.0 * (log_norm - psi0.log_norm))
    assert ratio == pytest.approx(np.exp(2.0), rel=0.05)
    _ok(4, f"norm ratio at t=0.5 is {ratio:.4f}, within 5% of e^2 = {np.exp(2):.4f}")


def test_criterion_5_ssh_trajectory(tmp_path):
    report = run_preset("fig4", out_dir=tmp_path / "fig4")
    assert report.classification == "stuck"
    assert report.max_oracle_deviation is not None
    assert report.max_oracle_deviation <= 5.0
    _ok(
        5,
        f"two-band trajectory deviates {report.max_oracle_deviation:.2f} cells "
        f"(<= 5) from the width-driven law; post-contact stuck",
    )


def test_criterion_6_spreading_controls_sticking(tmp_path):
    slow = run_preset("sm-spread-slow", out_dir=tmp_path / "slow")
    fast = run_preset("sm-spread-fast", out_dir=tmp_path / "fast")
    assert slow.classification == "reflected"
    assert fast.classification == "stuck"
    _ok(6, "same skin depth: slow spreading reflected, fast spreading stuck")


def test_criterion_7_boundary_only_gain_loss(tmp_path):
    report = run_preset("sm-boundary", out_dir=tmp_path / "boundary")
    assert report.classification == "stuck"
    _ok(7, "gain/loss confined to 40 edge cells still pins the packet at the right wall")


def test_criterion_8_propagator_cross_validation():
    rng = np.random.default_rng(20240817)
    worst_dir = worst_ln = 0.0
    for _ in range(20):
        m = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
        psi0 = sw.WaveState.from_amplitudes(rng.normal(size=50) + 1j * rng.normal(size=50))
        for t in (0.1, 0.5, 1.0, 2.0):
            (a,), (a_ln,) = eig_propagated(m, psi0, [t])
            (b,), (b_ln,) = propagated(banded(m), psi0, [t], "expm")
            worst_dir = max(worst_dir, float(np.linalg.norm(a - b)))
            worst_ln = max(worst_ln, abs(a_ln - b_ln))
    assert worst_dir < 1e-7
    assert worst_ln < 1e-7

    spec = sw.DiscreteHN(1.0, 2.0, 100)
    h = build_hamiltonian(spec)
    psi0 = gaussian_state(h.geometry, sw.GaussianParams(sigma=5.0, x0=50.0, k0=-1.0))
    times = np.linspace(0.0, 10.0, 21)
    a = evolve_series(h, psi0, times, method="spectral")
    b = evolve_series(h, psi0, times, method="expm")
    dens_err = float(np.max(np.abs(a.site_densities - b.site_densities)))
    ln_err = float(np.max(np.abs(a.log_norms - b.log_norms)))
    assert dens_err < 1e-7
    assert ln_err < 1e-7
    _ok(
        8,
        f"expm vs eig reference: random matrices {worst_dir:.2e}; spectral vs expm: chain densities "
        f"{dens_err:.2e}, log norms {ln_err:.2e} (all < 1e-7)",
    )


def test_criterion_9_structure_suites():
    # biorthogonality at the validated chain
    spec = sw.DiscreteHN(1.0, 2.0, 50)
    h = build_hamiltonian(spec)
    dec = sw.decompose(h)
    biorth = float(np.max(np.abs(dec.left.conj().T @ dec.right - np.eye(50))))
    assert biorth < 1e-8

    # similarity-dynamics identity, exp(-iHt) = S exp(-iHbar t) S^-1
    from skinwave.evolve import matrix_exp

    identity_worst = 0.0
    for spec_i, packet, t in (
        (sw.DiscreteHN(2.0, 2.5, 120), sw.GaussianParams(sigma=8.0, x0=60.0, k0=0.5), 2.0),
        (
            sw.NonHermitianSSH(2.0, 1.0, -0.2, 60, axis="y"),
            sw.GaussianParams(sigma=6.0, x0=30.0),
            10.0,
        ),
    ):
        h_i = build_hamiltonian(spec_i)
        s, _, _ = chain_similarity(h_i.bands)
        psi0 = gaussian_state(h_i.geometry, packet)
        (lhs,), _ = propagated(h_i, psi0, [t], "spectral")
        hbar = h_i.matrix * (s[None, :] / s[:, None])
        rhs = s * (matrix_exp(-1j * hbar * t) @ (psi0.amplitudes / s))
        rhs /= np.linalg.norm(rhs)
        identity_worst = max(identity_worst, float(np.linalg.norm(lhs - rhs)))
    assert identity_worst < 1e-8

    # Hermitian norm drift over a full series
    spec_h = sw.DiscreteHN(1.3, 1.3, 80)
    h_h = build_hamiltonian(spec_h)
    psi0 = gaussian_state(h_h.geometry, sw.GaussianParams(sigma=6.0, x0=40.0, k0=0.4))
    res = evolve_series(h_h, psi0, np.linspace(0.0, 40.0, 60))
    drift = float(np.max(np.abs(np.exp(res.log_norms - res.log_norms[0]) - 1.0)))
    assert drift < 1e-9

    # closed-form gradient check: the skin law's peak velocity 2 kappa d sigma^2/dt
    p = HNOracleParams(m=1.0, b=1.0, sigma=0.25)
    step = 1e-6
    ts = np.array([0.1, 0.4, 0.9])
    law = sw.GeneralOracleParams(p.b * p.m, 0.0, ts, *sw.width_series(p.sigma, 1 / p.m, ts))
    numeric = (hn_peak(p, ts + step) - hn_peak(p, ts - step)) / (2 * step)
    grad_err = float(np.max(np.abs(numeric - sw.general_velocities(law)[0])))
    assert grad_err < 1e-8
    _ok(
        9,
        f"biorthogonality {biorth:.1e}, similarity identity {identity_worst:.1e}, "
        f"norm drift {drift:.1e}, gradient check {grad_err:.1e} "
        "(property suites run alongside in tests/)",
    )


def test_criterion_10_determinism(tmp_path):
    rep1 = run_preset("fig1a", out_dir=tmp_path / "run1")
    rep2 = run_preset("fig1a", out_dir=tmp_path / "run2")
    assert rep1.manifest == rep2.manifest
    for name in ("density.csv", "trajectory.csv", "heatmap.pgm"):
        b1 = (tmp_path / "run1" / name).read_bytes()
        b2 = (tmp_path / "run2" / name).read_bytes()
        assert b1 == b2

    # serialized preset re-run through the config path gives identical digests
    from skinwave.config import save_config
    from skinwave.runner import run_config

    cfg = get_preset("fig1a").with_overrides(out_dir=tmp_path / "run3")
    save_config(cfg, tmp_path / "fig1a.json")
    rep3 = run_config(tmp_path / "fig1a.json")
    assert rep3.manifest == rep1.manifest
    _ok(10, "fig1a reruns and the config round-trip are byte-identical")
