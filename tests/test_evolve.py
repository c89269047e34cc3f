import contextlib
import dataclasses
import math
import re
import signal
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import skinwave as sw
from skinwave import evolve
from skinwave.config import ExperimentConfig, OutputOptions, TimeGrid
from skinwave.errors import DefectiveMatrix, DimensionMismatch, InvalidParameter, NumericalOverflow
from skinwave.evolve import (
    METHODS,
    _bidiagonal_svd,
    _edge_mode,
    _resolved,
    decompose,
    decompose_model,
    evolve_series,
    matrix_exp,
)
from skinwave.model import chain_similarity, counterpart
from skinwave.presets import get_preset, preset_names
from skinwave.runner import run_experiment

from reference import (
    adaptive_taylor_terms,
    banded,
    complex_chiral_frames,
    dense_bases,
    dense_bidiagonal_svd,
    eig_propagated,
    propagated,
)

RNG = np.random.default_rng(1234)


def random_state(dim, rng=RNG):
    return sw.WaveState.from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def test_decompose_diagonal_matrix():
    dec = decompose(np.diag([1.0, 2.0j]))
    assert sorted(dec.eigenvalues, key=lambda z: z.real) == [2.0j, 1.0 + 0j]
    assert np.allclose(np.abs(dec.right), np.eye(2), atol=1e-14)
    assert np.allclose(np.abs(dec.left), np.eye(2), atol=1e-14)


def test_decompose_biorthogonality_and_reconstruction():
    spec = sw.DiscreteHN(1.0, 2.0, 50)
    h = sw.build_hamiltonian(spec)
    for dec in (decompose(h), decompose_model(h)):
        right, left = dense_bases(dec)
        gram = left.conj().T @ right
        assert np.max(np.abs(gram - np.eye(50))) < 1e-8
        rebuilt = (right * dec.eigenvalues[None, :]) @ left.conj().T
        scale = np.linalg.norm(h.matrix, 2)
        assert np.max(np.abs(rebuilt - h.matrix)) < 1e-8 * scale


def test_decompose_shares_spectrum_with_counterpart():
    spec = sw.DiscreteHN(1.0, 2.0, 50)
    h = sw.build_hamiltonian(spec)
    _, diag, off = chain_similarity(h.bands)
    hbar = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    ev_h = np.sort_complex(decompose(h).eigenvalues)
    ev_b = np.sort_complex(np.linalg.eigvals(hbar))
    assert np.max(np.abs(ev_h - ev_b)) < 1e-8


def test_decompose_refuses_extreme_conditioning():
    h = sw.build_hamiltonian(sw.DiscreteHN(1.0, 2.0, 100))
    with pytest.raises(DefectiveMatrix):
        decompose(h)


def test_structured_route_survives_extreme_conditioning():
    spec = sw.DiscreteHN(1.0, 2.0, 100)
    h = sw.build_hamiltonian(spec)
    right, left = dense_bases(decompose_model(h))
    gram = left.conj().T @ right
    assert np.max(np.abs(gram - np.eye(100))) < 1e-12


@pytest.mark.parametrize(
    "spec",
    [sw.DiscreteHN(100.0, 0.01, 200), sw.DiscreteHN(0.01, 100.0, 200)],
    ids=["S-underflows", "S-overflows"],
)
def test_an_s_past_the_normal_range_either_way_has_no_counterpart(spec, tmp_path):
    """S falls (or grows) by 1e2 per site, past the normal floats by site 155: one rule for both mirror images.

    No counterpart, so 'auto' takes expm, 'spectral' refuses with its one
    message, and the run reports no oracle.
    """
    h = sw.build_hamiltonian(spec)
    assert counterpart(spec) is None and decompose_model(h) is None
    packet = sw.GaussianParams(sigma=10.0, x0=100.0)
    psi0 = sw.gaussian_state(h.geometry, packet)
    assert evolve.propagate(h, psi0, [0.0, 0.01])[0] == "expm"
    message = "method 'spectral': DiscreteHN has no Hermitian counterpart route; use 'auto' or 'expm'"
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
        evolve.propagate(h, psi0, [0.0, 0.01], "spectral")
    report = run_experiment(ExperimentConfig(spec, packet, TimeGrid(0.05, 10), output=OutputOptions(str(tmp_path))))
    assert report.route == "expm" and "oracle: n/a (no Hermitian counterpart)" in report.notes


def test_propagate_spectral_t0_is_identity():
    h = _chain(40)
    psi = random_state(40)
    (amps,), (log_norm,) = propagated(h, psi, [0.0], "spectral")
    assert np.allclose(amps, psi.amplitudes, atol=1e-12)
    assert log_norm == pytest.approx(psi.log_norm, abs=1e-12)


@pytest.mark.parametrize("method", ["spectral", "expm"])
def test_frame_zero_is_psi0_on_both_routes_and_nothing_is_written_through_it(method):
    """On the grid [-1, 0, 1] frame 1 is psi0 bit for bit and psi0 is left as it was.

    On 'expm' the block is a view of the running state, so frame 2 must be
    the stepped state that ``_expm_frames`` itself reaches from t = 0, not a
    step from psi0 written into it.
    """
    h = _chain(40)
    psi0 = random_state(40, np.random.default_rng(37))
    before = psi0.amplitudes.copy()
    times = np.array([-1.0, 0.0, 1.0])
    _, blocks = evolve.propagate(h, psi0, times, method)
    amps, log_norms = (np.concatenate(part) for part in zip(*((a, ln) for _, a, ln in blocks)))
    assert np.array_equal(amps[1], psi0.amplitudes) and log_norms[1] == psi0.log_norm
    assert np.array_equal(psi0.amplitudes, before)
    if method == "expm":
        stepped = [(state.copy(), ln) for state, ln in evolve._expm_frames(h, psi0, times)]
        assert np.array_equal(amps[2], stepped[2][0]) and log_norms[2] == stepped[2][1]
        assert not np.array_equal(stepped[1][0], psi0.amplitudes)   # the route's own t = 0 is a stepped state


def _chain(n, t1=1.0, tm1=2.0):
    return sw.build_hamiltonian(sw.DiscreteHN(t1, tm1, n))


def test_propagate_spectral_hermitian_norm_constant():
    h = _chain(60, 1.4, 1.4)
    psi = random_state(60)
    for t in (0.5, 3.0, 10.0):
        _, (log_norm,) = propagated(h, psi, [t], "spectral")
        assert log_norm == pytest.approx(psi.log_norm, abs=1e-10)


def test_propagation_composition():
    h = _chain(50)
    psi = random_state(50)
    (one,), (one_ln,) = propagated(h, psi, [3.1], "spectral")
    (mid,), (mid_ln,) = propagated(h, psi, [1.9], "spectral")
    mid_state = sw.WaveState(amplitudes=mid, log_norm_offset=mid_ln)
    (two,), (two_ln,) = propagated(h, mid_state, [1.2], "spectral")
    assert np.linalg.norm(one - two) < 1e-9
    assert one_ln == pytest.approx(two_ln, rel=1e-9, abs=1e-9)


def test_expm_nilpotent_exact():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    psi = sw.WaveState(amplitudes=np.array([0.0, 1.0 + 0j]))
    (amps,), (log_norm,) = propagated(banded(n), psi, [1.0], "expm")
    total = np.exp(log_norm) * amps
    assert np.allclose(total, [-1.0j, 1.0], atol=1e-15)
    assert np.allclose(matrix_exp(-1.0j * n), [[1.0, -1.0j], [0.0, 1.0]], atol=1e-15)


def test_expm_t0_is_identity():
    h = _chain(30)
    psi = random_state(30)
    (amps,), _ = propagated(h, psi, [0.0], "expm")
    assert np.allclose(amps, psi.amplitudes, atol=1e-14)


def test_expm_matches_spectral_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = rng.normal(size=(50, 50)) + 1j * rng.normal(size=(50, 50))
        psi = random_state(50, rng)
        for t in (0.3, 1.7):
            (a,), (a_ln,) = eig_propagated(m, psi, [t])
            (b,), (b_ln,) = propagated(banded(m), psi, [t], "expm")
            assert np.linalg.norm(a - b) < 1e-8
            assert a_ln == pytest.approx(b_ln, abs=1e-8)


def test_amplification_factor_continuous_rest_packet():
    """Norm growth of the rest packet before wall contact: exp(2) at t = 0.5."""
    spec = sw.ContinuousHN(m=1.0, b=1.0, length=10.0, dx=0.01)
    h = sw.build_hamiltonian(spec)
    psi0 = sw.gaussian_state(h.geometry, sw.GaussianParams(sigma=0.25, x0=5.0))
    _, (log_norm,) = propagated(h, psi0, [0.5], "spectral")
    ratio = np.exp(2.0 * (log_norm - psi0.log_norm))
    assert ratio == pytest.approx(np.exp(2.0), rel=0.05)


def test_evolve_series_single_time_is_initial_density():
    h = _chain(30)
    psi = random_state(30)
    res = evolve_series(h, psi, [0.0])
    assert np.allclose(res.site_densities[0], np.abs(psi.amplitudes) ** 2, atol=1e-12)


def test_evolve_series_result_invariants():
    h = _chain(40)
    psi = random_state(40)
    res = evolve_series(h, psi, np.linspace(0.0, 5.0, 9))
    assert np.all(res.site_densities >= 0.0)
    assert np.all(np.isfinite(res.log_norms))
    assert res.route == "sine"


def test_evolve_series_spectral_vs_expm_framewise():
    spec = sw.DiscreteHN(1.0, 2.0, 100)
    h = sw.build_hamiltonian(spec)
    psi0 = sw.gaussian_state(h.geometry, sw.GaussianParams(sigma=5.0, x0=50.0, k0=-1.0))
    times = np.linspace(0.0, 10.0, 21)
    a = evolve_series(h, psi0, times, method="spectral")
    b = evolve_series(h, psi0, times, method="expm")
    assert np.max(np.abs(a.site_densities - b.site_densities)) < 1e-7
    assert np.max(np.abs(a.log_norms - b.log_norms)) < 1e-7


def test_evolve_series_auto_falls_back_to_expm():
    """An operator without a spec has no counterpart route: auto takes expm, and spectral is refused."""
    h = dataclasses.replace(sw.build_hamiltonian(sw.DiscreteHN(1.0, 2.0, 100)), spec=None)
    psi = random_state(100)
    res = evolve_series(h, psi, np.linspace(0.0, 1.0, 4), method="auto")
    assert res.route == "expm"
    with pytest.raises(InvalidParameter, match="an operator without a spec has no Hermitian counterpart route"):
        evolve_series(h, psi, [0.0, 1.0], method="spectral")


def test_evolve_series_validates_times_and_method():
    h = _chain(10)
    psi = random_state(10)
    with pytest.raises(InvalidParameter):
        evolve_series(h, psi, [1.0, 0.5])
    with pytest.raises(InvalidParameter):
        evolve_series(h, psi, [0.0, np.inf])
    with pytest.raises(InvalidParameter):
        evolve_series(h, psi, [0.0, 1.0], method="verlet")


def test_propagate_refuses_a_directly_built_zero_state():
    h = banded(np.diag([1.0, 2.0]))
    with pytest.raises(InvalidParameter, match="nonzero"):
        sw.propagate(h, sw.WaveState(np.zeros(2, complex)), [0, 1], "spectral")
    for amps in (np.array([np.nan, 1.0]), np.array([np.inf, 1.0])):
        with pytest.raises(InvalidParameter, match="finite"):
            sw.propagate(h, sw.WaveState(amps + 0j), [0, 1], "expm")
    with pytest.raises(InvalidParameter):
        sw.propagate(h, sw.WaveState(np.ones(2, complex), np.inf), [0, 1])


def test_propagate_refuses_a_bare_matrix():
    """A dense ndarray, of any shape, is no operator form of ``propagate``: only a banded HamiltonianMatrix is."""
    for m in (np.eye(2), np.ones(3), np.ones((2, 3)), np.zeros((0, 0)), np.diag([1.0, np.nan])):
        for method in METHODS:
            with pytest.raises(InvalidParameter, match="must be a HamiltonianMatrix, got ndarray"):
                sw.propagate(m, sw.WaveState(np.ones(2, complex)), [0.0, 1.0], method)


def _propagate_bare(m):
    sw.propagate(m, sw.WaveState(np.ones(3, complex)), [0.0, 1.0])


@pytest.mark.parametrize("entry", [matrix_exp, decompose, _propagate_bare], ids=["matrix_exp", "decompose", "propagate"])
@pytest.mark.parametrize(
    "m, error",
    [
        (np.ones(3), DimensionMismatch),
        (np.ones((2, 3)), DimensionMismatch),
        (np.zeros((0, 0)), DimensionMismatch),
        (np.diag([1.0, np.nan, 2.0]), InvalidParameter),
    ],
    ids=["vector", "not square", "empty", "nan"],
)
def test_dense_entry_points_refuse_what_is_not_a_finite_square_matrix(entry, m, error):
    """matrix_exp and decompose name what is wrong with the matrix; propagate refuses any bare ndarray before its shape."""
    if entry is _propagate_bare:
        error = InvalidParameter
    with pytest.raises(error):
        entry(m)


@contextlib.contextmanager
def _within(seconds: float):
    """Raise TimeoutError in the block once ``seconds`` of wall time have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


_SHORT_CHAIN = sw.DiscreteHN(1.0, 2.0, 3)


@pytest.mark.parametrize(
    "h, spec, t_max, method",
    [
        (sw.build_hamiltonian(_SHORT_CHAIN), None, 1e300, "expm"),
        (sw.build_hamiltonian(_SHORT_CHAIN), _SHORT_CHAIN, 1e300, "auto"),
        (banded(np.full((3, 3), 1e308)), None, 1.0, "expm"),
    ],
    ids=["expm t_max 1e300", "sine t_max 1e300", "expm row sums past the float range"],
)
def test_propagate_refuses_times_whose_phases_lost_their_digits(h, spec, t_max, method):
    """eps |E| t_max > 1e-8 is refused before any step: not some 1e298 Taylor steps, nor an overflow warning."""
    with _within(10.0), pytest.raises(InvalidParameter, match="lost their digits"):
        propagated(h, sw.WaveState(np.ones(3, complex)), [0.0, t_max], method)


def test_similarity_dynamics_identity():
    """Spectral propagation equals the diagonal-conjugated evolution,
    exp(-i H t) = S exp(-i Hbar t) S^-1, frame by frame."""
    cases = [
        (sw.DiscreteHN(2.0, 2.5, 120), sw.GaussianParams(sigma=8.0, x0=60.0, k0=0.5), 2.0),
        (
            sw.NonHermitianSSH(2.0, 1.0, -0.2, 60, axis="y"),
            sw.GaussianParams(sigma=6.0, x0=30.0),
            10.0,
        ),
        (
            sw.ContinuousHN(m=1.0, b=0.5, length=10.0, dx=0.05),
            sw.GaussianParams(sigma=0.5, x0=5.0, k0=2.0),
            0.5,
        ),
    ]
    for spec, packet, t in cases:
        h = sw.build_hamiltonian(spec)
        s, _, _ = chain_similarity(h.bands)
        psi0 = sw.gaussian_state(h.geometry, packet)
        (lhs,), (lhs_ln,) = propagated(h, psi0, [t], "spectral")
        hbar = h.matrix * (s[None, :] / s[:, None])
        rhs = s * (matrix_exp(-1j * hbar * t) @ (psi0.amplitudes / s))
        nrm = np.linalg.norm(rhs)
        assert np.linalg.norm(lhs - rhs / nrm) < 1e-8
        assert lhs_ln == pytest.approx(psi0.log_norm_offset + np.log(nrm), abs=1e-8)


def test_hermitian_series_norm_drift():
    spec = sw.DiscreteHN(1.3, 1.3, 80)
    h = sw.build_hamiltonian(spec)
    psi0 = sw.gaussian_state(h.geometry, sw.GaussianParams(sigma=6.0, x0=40.0, k0=0.4))
    res = evolve_series(h, psi0, np.linspace(0.0, 40.0, 60))
    drift = np.abs(np.exp(res.log_norms - res.log_norms[0]) - 1.0)
    assert np.max(drift) < 1e-9


def test_global_phase_immunity():
    base = sw.ContinuousHN(m=1.0, b=1.0, length=10.0, dx=0.05)
    shifted = sw.ContinuousHN(m=1.0, b=1.0, length=10.0, dx=0.05, e0=base.e0 + 2.3)
    packet = sw.GaussianParams(sigma=0.25, x0=5.0)
    times = np.linspace(0.0, 1.0, 25)
    frames = []
    for spec in (base, shifted):
        h = sw.build_hamiltonian(spec)
        psi = sw.gaussian_state(h.geometry, packet)
        frames.append(evolve_series(h, psi, times).site_densities)
    assert np.max(np.abs(frames[0] - frames[1])) < 1e-12


def test_error_carries_frame_context():
    h = _chain(10)
    psi = random_state(11)
    with pytest.raises(Exception, match="frame 0"):
        evolve_series(h, psi, [0.0, 1.0])


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=5, max_value=25), st.floats(min_value=0.1, max_value=3.0))
def test_spectral_propagation_solves_schrodinger(n, t):
    """Independent check: the eigenbasis reference matches the Taylor series of
    exp(-i H t) applied to the state on a well-conditioned random matrix."""
    rng = np.random.default_rng(n * 1000 + int(t * 100))
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    psi = sw.WaveState.from_amplitudes(rng.normal(size=n) + 1j * rng.normal(size=n))
    (amps,), (log_norm,) = eig_propagated(m, psi, [t])
    direct = matrix_exp(-1j * m * t) @ psi.amplitudes
    total = np.exp(log_norm - psi.log_norm_offset) * amps
    assert np.linalg.norm(total - direct) < 1e-8 * max(1.0, np.linalg.norm(direct))


@pytest.mark.parametrize("axis", ["y", "z"])
def test_strong_gamma_ssh_spectral_matches_expm(axis):
    """|gamma/2| > |t1| has no Hermitian counterpart: auto takes expm, which must
    keep the anti-Hermitian part that the eigenbasis reference keeps."""
    spec = sw.NonHermitianSSH(0.5, 1.0, 2.0, 10, axis=axis)
    h = sw.build_hamiltonian(spec)
    psi0 = sw.gaussian_state(h.geometry, sw.GaussianParams(sigma=1.0, x0=4.5, k0=0.5))
    times = np.linspace(0.0, 3.0, 13)
    amps, log_norms = eig_propagated(h, psi0, times)
    b = evolve_series(h, psi0, times, method="auto")
    assert b.route == "expm"
    assert np.max(np.abs(np.abs(amps) ** 2 - b.site_densities)) < 1e-7
    assert np.max(np.abs(log_norms - b.log_norms)) < 1e-7


def test_singular_eigenvectors_fall_back_to_expm():
    shift = np.diag(np.ones(2), 1)
    with pytest.raises(DefectiveMatrix):
        decompose(shift)
    h = sw.HamiltonianMatrix(
        bands={1: np.ones(2, dtype=complex)}, geometry=sw.Geometry(positions=np.arange(3.0), dx=1.0)
    )
    psi = sw.WaveState(amplitudes=np.array([0.0, 0.0, 1.0 + 0j]))
    times = np.array([0.0, 0.5, 1.0, 2.5])
    res = evolve_series(h, psi, times, method="auto")
    assert res.route == "expm"
    with pytest.raises(InvalidParameter, match="no Hermitian counterpart"):
        evolve_series(h, psi, times, method="spectral")
    # exp(-i N t) e_3 = e_3 - i t e_2 - (t^2 / 2) e_1 for the nilpotent shift N
    exact = np.stack([times**4 / 4.0, times**2, np.ones_like(times)], axis=1)
    total = exact.sum(axis=1)
    assert np.allclose(res.site_densities, exact / total[:, None], atol=1e-14)
    assert np.allclose(res.log_norms, 0.5 * np.log(total), atol=1e-14)


class _DenseAssembled(Exception):
    pass


def _refuse_dense(self):
    raise _DenseAssembled("dense matrix assembled")


@pytest.mark.parametrize(
    "spec, method",
    [
        (sw.ContinuousHN(1.0, 1.0, 2.0, 0.1), "spectral"),
        (sw.DiscreteHN(1.0, 2.0, 12), "spectral"),
        (sw.NonHermitianSSH(2.0, 1.0, -0.2, 8, axis="y"), "spectral"),
        (sw.NonHermitianSSH(2.0, 1.0, -0.2, 8, axis="z"), "spectral"),
        (sw.BoundarySSH(2.0, 1.0, -0.8, 8, 3, axis="y"), "spectral"),
        (sw.BoundarySSH(2.0, 1.0, -0.8, 8, 3, axis="z"), "spectral"),
        (sw.NonHermitianSSH(0.5, 1.0, 2.0, 8, axis="z"), "auto"),   # |gamma/2| > |t1|: no counterpart
    ],
    ids=["continuous", "discrete", "ssh-y", "ssh-z", "boundary-y", "boundary-z", "no-counterpart"],
)
def test_chain_route_never_assembles_dense_matrix(spec, method, monkeypatch):
    """No route forms H as a dense matrix or solves an eigenproblem of it, a chain without a counterpart (on expm) included."""
    h = sw.build_hamiltonian(spec)
    psi0 = random_state(h.dim, np.random.default_rng(7))
    times = np.linspace(0.0, 2.0, 5)
    ref_amps, ref_log_norms = propagated(h, psi0, times, "expm")
    monkeypatch.setattr(sw.HamiltonianMatrix, "matrix", property(_refuse_dense))
    monkeypatch.setattr(np.linalg, "eig", _no_eigensolve)
    with pytest.raises(_DenseAssembled):
        h.matrix
    amps, log_norms = propagated(h, psi0, times, method)
    assert np.max(np.abs(np.abs(amps) ** 2 - np.abs(ref_amps) ** 2)) <= 1e-7
    assert np.max(np.abs(log_norms - ref_log_norms)) <= 1e-7


def test_spectral_grid_matches_per_frame_products():
    h = _chain(40)
    psi = random_state(40)
    times = np.array([0.0, 0.0, 0.7, 2.0, 2.0, 5.5])
    amps, log_norms = propagated(h, psi, times, "spectral")
    assert amps.shape == (6, 40)
    for k in (0, 1):
        assert np.array_equal(amps[k], psi.amplitudes)
        assert log_norms[k] == psi.log_norm
    # reference: one matrix-vector product per frame
    dec = decompose_model(h)
    right, left = dense_bases(dec)
    coeff = left.conj().T @ psi.amplitudes
    for k in (2, 3, 5):
        ref = right @ (coeff * np.exp(-1j * dec.eigenvalues * times[k]))
        assert np.linalg.norm(amps[k] - ref / np.linalg.norm(ref)) < 1e-9
        assert log_norms[k] == pytest.approx(psi.log_norm_offset + np.log(np.linalg.norm(ref)), abs=1e-9)
    assert np.allclose(np.linalg.norm(amps, axis=1), 1.0, atol=1e-14)


@st.composite
def small_specs(draw):
    """A small spec of any family whose skin span N |ln r| stays <= 10.

    N is sites for the chains and cells carrying gamma for the two-band
    chains.  Past that span the similarity route loses eps * S_max / S_min
    on states weighted at the small-S end, which 1e-7 cannot absorb.
    """
    family = draw(st.sampled_from(["continuous", "discrete", "ssh", "boundary"]))
    hop = st.floats(min_value=0.2, max_value=3.0)
    if family == "continuous":
        dx = draw(st.sampled_from([0.1, 0.2, 0.25]))
        n = draw(st.integers(min_value=3, max_value=30))
        spec = sw.ContinuousHN(m=draw(st.floats(0.5, 2.0)), b=draw(st.floats(-2.0, 2.0)), length=n * dx, dx=dx)
        # the grid's own hop ratio, which exp(b m dx) approximates at small dx
        drift = 2.0 * spec.m * spec.b * spec.dx
        assume(drift != 1.0)
        span = spec.n_sites * 0.5 * abs(math.log(abs(1.0 - drift)))
    elif family == "discrete":
        spec = sw.DiscreteHN(draw(hop), draw(hop), draw(st.integers(min_value=2, max_value=30)))
        span = spec.n_sites * abs(math.log(sw.skin_factor(spec)))
    else:
        t1, t2, gamma = draw(st.floats(-2.0, 2.0)), draw(hop), draw(st.floats(-5.0, 5.0))
        assume(abs(abs(gamma / 2.0) - abs(t1)) > 0.05)
        n = draw(st.integers(min_value=1, max_value=15))
        axis = draw(st.sampled_from(["y", "z"]))
        if family == "ssh":
            cells, spec = n, sw.NonHermitianSSH(t1, t2, gamma, n, axis)
        else:
            cells = draw(st.integers(min_value=0, max_value=n))
            spec = sw.BoundarySSH(t1, t2, gamma, n, cells, axis)
        span = cells * 0.5 * abs(math.log(abs(t1 - gamma / 2.0) / abs(t1 + gamma / 2.0)))
    assume(span <= 10.0)
    return spec


# a two-band twin with one cell, or with equal hops, is uniform: 'sine+rotation'
_COUNTERPART_ROUTES = ("sine", "chiral", "sine+rotation", "chiral+rotation")


@settings(max_examples=200, deadline=None)
@given(small_specs(), st.floats(min_value=0.1, max_value=3.0), st.integers(0, 2**32 - 1))
# exceptional point at finite size (near-defective), with no counterpart: auto takes expm
@example(sw.NonHermitianSSH(0.0, 2.0, 2.0, 2, "y"), 1.0, 0)
def test_auto_matches_expm_on_small_specs(spec, t_max, seed):
    h = sw.build_hamiltonian(spec)
    rng = np.random.default_rng(seed)
    psi0 = sw.WaveState.from_amplitudes(rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim))
    times = np.linspace(0.0, t_max, 5)
    auto = evolve_series(h, psi0, times, method="auto")
    ref = evolve_series(h, psi0, times, method="expm")
    if counterpart(spec) is not None:
        assert auto.route in _COUNTERPART_ROUTES
    else:
        assert auto.route == "expm"
    assert np.max(np.abs(auto.site_densities - ref.site_densities)) <= 1e-7
    assert np.max(np.abs(auto.log_norms - ref.log_norms)) <= 1e-7
    for res in (auto, ref):
        assert np.array_equal(res.site_densities[0], np.abs(psi0.amplitudes) ** 2)


def test_every_preset_has_a_chain_similarity():
    for name in preset_names():
        spec = get_preset(name).model
        assert counterpart(spec) is not None, name


def _no_eigensolve(*args, **kwargs):
    raise AssertionError("eigensolve of the whole chain")


def _half_size_eigh(dim: int):
    """``np.linalg.eigh`` refusing any matrix larger than half of a ``dim``-site chain."""
    eigh = np.linalg.eigh

    def checked(m, *args, **kwargs):
        if len(m) > dim // 2:
            raise AssertionError("eigensolve of the whole chain")
        return eigh(m, *args, **kwargs)

    return checked


@pytest.mark.parametrize("name", preset_names())
def test_preset_decomposition_holds_no_full_size_basis(name, monkeypatch):
    """sine holds vectors of dim entries and solves nothing; chiral holds (dim/2)^2 factors from at most a half-size eigh."""
    spec = get_preset(name).model
    h = sw.build_hamiltonian(spec)
    sine = isinstance(spec, (sw.ContinuousHN, sw.DiscreteHN))
    monkeypatch.setattr(np.linalg, "eigh", _no_eigensolve if sine else _half_size_eigh(h.dim))
    monkeypatch.setattr(np.linalg, "eig", _no_eigensolve)
    monkeypatch.setattr(np.linalg, "svd", _no_eigensolve)
    dec = decompose_model(h)
    assert dec.route in _COUNTERPART_ROUTES
    largest = h.dim if dec.route.startswith("sine") else (h.dim // 2) ** 2
    fields = [getattr(dec, f.name) for f in dataclasses.fields(dec)]
    assert max(a.size for a in fields if isinstance(a, np.ndarray)) <= largest


@pytest.mark.parametrize(
    "spec, method, route",
    [
        (sw.DiscreteHN(1.0, 2.0, 12), "auto", "sine"),
        (sw.BoundarySSH(2.0, 1.0, -0.8, 8, 3, axis="z"), "auto", "chiral+rotation"),
        (sw.NonHermitianSSH(0.5, 1.0, 2.0, 8, axis="y"), "auto", "expm"),
        (sw.DiscreteHN(1.0, 2.0, 12), "expm", "expm"),
        (sw.NonHermitianSSH(2.0, 1.0, -0.2, 8, axis="z"), "auto", "chiral+rotation"),
    ],
)
def test_evolve_series_names_its_route(spec, method, route):
    h = sw.build_hamiltonian(spec)
    psi0 = random_state(h.dim, np.random.default_rng(3))
    res = evolve_series(h, psi0, [0.0, 1.0], method=method)
    assert res.route == route
    if method != "expm":
        dec = decompose_model(h)
        assert (dec.route if dec else "expm") == route


@pytest.mark.parametrize(
    "sign_a, sign_b, ratio, n",
    [
        (sign_a, sign_b, ratio, n)
        for sign_a, sign_b in [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        for ratio in [0.05, 0.5, 1.0]
        for n in [1, 2, 3, 500]
    ]
    + [(1, 1, 0.999, 2048)],
)
def test_uniform_bidiagonal_modes_in_closed_form(n, ratio, sign_a, sign_b, monkeypatch):
    """A uniform B with |b| <= |a| is decomposed without an SVD, to roundoff.

    n = 2048 is the largest chiral block at ``MAX_DIM``, where the angle
    addition of ``_sine_rows`` carries its rows furthest.
    """
    a, b = 1.5 * sign_a, 1.5 * ratio * sign_b
    diag, sub = np.full(n, a), np.full(n - 1, b)
    dense = np.diag(diag) + np.diag(sub, -1)
    expected = np.linalg.svd(dense, compute_uv=False)
    monkeypatch.setattr(np.linalg, "svd", _no_eigensolve)
    u, sigma, v, path = _bidiagonal_svd(diag, sub)
    assert path == "standing waves"
    bound = 1e-13 * max(abs(a), abs(b))
    assert np.max(np.abs(dense @ v - u * sigma)) <= bound
    assert np.max(np.abs(u.T @ u - np.eye(n))) <= bound
    assert np.max(np.abs(v.T @ v - np.eye(n))) <= bound
    assert np.max(np.abs(sigma - expected)) <= bound


def _count_svd(monkeypatch) -> list:
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    return calls


@pytest.mark.parametrize("name", ["fig4", "fig5b", "fig5c", "sm-meet", "sm-spread-slow", "sm-spread-fast"])
def test_uniform_two_band_presets_skip_the_svd(name, monkeypatch):
    spec = get_preset(name).model
    calls = _count_svd(monkeypatch)
    assert decompose_model(sw.build_hamiltonian(spec)).route == "chiral"
    assert calls == []


@pytest.mark.parametrize("axis", ["y", "z"])
def test_non_uniform_block_takes_no_svd(axis, monkeypatch):
    """sm-boundary's block (gain/loss on 40 of 500 cells) is two uniform segments, matched in closed form."""
    spec = dataclasses.replace(get_preset("sm-boundary").model, axis=axis)
    calls = _count_svd(monkeypatch)
    monkeypatch.setattr(np.linalg, "eigh", _no_eigensolve)
    dec = decompose_model(sw.build_hamiltonian(spec))
    assert dec.route == "chiral" + ("+rotation" if axis == "z" else "")
    assert dec.path == "two segments"
    assert calls == []


def test_edge_mode_chain_keeps_one_svd(monkeypatch):
    """t1 < t2: a uniform block with |b| > |a|, whose edge mode has sigma near 0, takes one dense SVD."""
    spec = sw.NonHermitianSSH(1.0, 2.0, -0.2, 40)
    calls = _count_svd(monkeypatch)
    assert decompose_model(sw.build_hamiltonian(spec)).route == "chiral"
    assert calls == [1]


def test_two_segment_edge_mode_goes_straight_to_the_svd(monkeypatch):
    """t1 < t2 on both segments: the O(n) bound (~2^-500) finds the edge mode, so no eigensolve precedes the one SVD."""
    spec = sw.BoundarySSH(1.0, 2.0, -0.2, 500, 40)
    calls = _count_svd(monkeypatch)
    monkeypatch.setattr(np.linalg, "eigh", _no_eigensolve)
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigensolve)
    dec = decompose_model(sw.build_hamiltonian(spec))
    assert (dec.route, dec.path) == ("chiral+rotation", "dense SVD")
    assert calls == [1]


@pytest.mark.parametrize("name", preset_names())
def test_no_preset_decomposition_calls_an_eigensolver(name, monkeypatch):
    spec = get_preset(name).model
    for solver in ("eig", "eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, solver, _no_eigensolve)
    assert decompose_model(sw.build_hamiltonian(spec)).route in _COUNTERPART_ROUTES


def _sm_boundary_block() -> tuple[np.ndarray, np.ndarray]:
    _, _, off = counterpart(get_preset("sm-boundary").model)
    return off[0::2], off[1::2]


def _well_conditioned_block(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A random block with mixed signs: |a| in [2, 3] and |b| in [0, 1.5], so 0.5 <= sigma <= 4.5 (Weyl)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(2.0, 3.0, n) * rng.choice([-1.0, 1.0], n)
    b = rng.uniform(0.0, 1.5, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    return a, b


def _assert_svd_of(a, b, u, sigma, v):
    """B V = U Sigma, orthonormal U and V, and sigma of the dense SVD, each within 1e-13 max|a, b|."""
    n = len(a)
    dense = np.diag(a) + np.diag(b, -1)
    bound = 1e-13 * np.max(np.abs(dense))
    assert np.max(np.abs(dense @ v - u * sigma)) <= bound
    assert np.max(np.abs(u.T @ u - np.eye(n))) <= bound
    assert np.max(np.abs(v.T @ v - np.eye(n))) <= bound
    assert np.max(np.abs(sigma - dense_bidiagonal_svd(a, b)[1])) <= bound


@pytest.mark.parametrize(
    "a, b, path",
    [(*_sm_boundary_block(), "two segments")]
    + [
        (*_well_conditioned_block(n, seed=n), path)
        for n, path in [(1, "standing waves"), (2, "two segments")] + [(n, "dense SVD") for n in (3, 50, 500)]
    ],
    ids=["sm-boundary", "n1", "n2", "n3", "n50", "n500"],
)
def test_gram_modes_match_the_dense_svd(a, b, path):
    """sm-boundary's block and random mixed-sign blocks: two segments in closed form, more than two by the dense SVD."""
    *modes, taken = _bidiagonal_svd(a, b)
    assert taken == path
    _assert_svd_of(a, b, *modes)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 60), st.floats(0.0, 3.0), st.integers(0, 2**32 - 1))
def test_only_blocks_past_condition_10_take_the_dense_svd(n, reach, seed):
    """Mixed signs, |a| in [1, 2] and |b| up to ``reach``: conditions on either side of 10, every one an SVD within the bounds."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
    b = rng.uniform(0.0, reach, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    sigma = dense_bidiagonal_svd(a, b)[1]
    assume(abs(sigma[0] - 10.0 * sigma[-1]) > 1e-9 * sigma[0])
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_svd(mp)
        *modes, _ = _bidiagonal_svd(a, b)
    # n = 2 is two segments under one b, unless |b| is too small to part their modes or
    # sigma_min / sigma_max is below the closed form's floor; a larger random block has
    # more segments, and takes the SVD
    two = n == 2 and _resolved(np.abs(a), abs(b[0]), 1, 2) and sigma[-1] >= evolve._CONDITION * sigma[0]
    assert calls == ([] if two else [1])
    _assert_svd_of(a, b, *modes)


@pytest.mark.parametrize(
    "a, b, svd_calls",
    [
        (np.array([9.99, 1.0, -2.0, 3.0]), np.array([0.0, 0.0, 0.0]), 1),
        (np.array([10.01, 1.0, -2.0, 3.0]), np.array([0.0, 0.0, 0.0]), 1),
        (np.array([1.5, -1.0, 0.0, 2.0, 1.0]), np.array([0.5, -0.3, 0.2, 0.1]), 1),
    ],
    ids=["inside-the-guard", "just-past-the-guard", "sigma-near-0"],
)
def test_gram_guard_sends_ill_conditioned_blocks_to_the_dense_svd(a, b, svd_calls, monkeypatch):
    """Diagonal blocks of condition 9.99 and 10.01, and a singular block (a zero on its diagonal): four or five segments."""
    calls = _count_svd(monkeypatch)
    *modes, _ = _bidiagonal_svd(a, b)
    assert len(calls) == svd_calls
    assert all(np.all(np.isfinite(m)) for m in modes)
    _assert_svd_of(a, b, *modes)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 60), st.integers(0, 60), st.floats(0.3, 3.0), st.floats(0.3, 3.0), st.integers(0, 2**32 - 1))
@example(460, 40, 2.0, 1.9974984355438179, 0)
@example(30, 30, 1.0, 2.0, 1)
@example(53, 49, 3.0, 1.0766836955938197, 0)
@example(37, 34, 1.0, 1.0427862361804225, 0)
@example(1, 1, 3.0, 0.3, 2)
def test_two_segment_modes_match_the_dense_svd(n1, n2, a1, a2, seed):
    """|a1| on n1 rows and |a2| on n2 rows, on either side of |b| = 1, mixed signs, no edge mode: B V = U Sigma to 1e-13."""
    assume(n1 + n2 > 0)
    rng = np.random.default_rng(seed)
    a = np.concatenate([np.full(n1, a1), np.full(n2, a2)]) * rng.choice([-1.0, 1.0], n1 + n2)
    b = rng.choice([-1.0, 1.0], n1 + n2 - 1)
    if n1 == 0 or n2 == 0 or a1 == a2:
        # one segment: standing waves unless |b| > |a| gives it an edge mode
        expected = "standing waves" if (a1 if n1 else a2) >= 1.0 or n1 + n2 == 1 else "dense SVD"
    else:
        assume(not _edge_mode(np.abs(a), np.abs(b)))
        # a mode near sigma = 0 sends the block to the SVD
        sigma = dense_bidiagonal_svd(a, b)[1]
        expected = "two segments" if sigma[-1] >= evolve._CONDITION * sigma[0] else "dense SVD"
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_svd(mp)
        *modes, path = _bidiagonal_svd(a, b)
    assert path == expected
    assert calls == ([1] if path == "dense SVD" else [])
    _assert_svd_of(a, b, *modes)


def test_two_segment_modes_scale_with_the_block():
    """sm-boundary's block times 2^-900 or 2^900: sigma scales exactly, U and V keep every bit, and no square overflows."""
    a, b = _sm_boundary_block()
    u, sigma, v, _ = _bidiagonal_svd(a, b)
    for scale in (2.0**-900, 2.0**900):
        us, scaled, vs, path = _bidiagonal_svd(a * scale, b * scale)
        assert path == "two segments"
        assert np.array_equal(us, u) and np.array_equal(vs, v)
        assert np.array_equal(scaled, sigma * scale)


@pytest.mark.parametrize("axis", ["y", "z"])
def test_closed_form_chiral_route_matches_expm(axis):
    """100 cells with S_max / S_min = 4e6: the closed-form modes agree with expm within 1e-7."""
    spec = sw.NonHermitianSSH(2.0, 1.0, -0.6, 100, axis=axis)
    h = sw.build_hamiltonian(spec)
    psi0 = sw.gaussian_state(h.geometry, sw.GaussianParams(sigma=6.0, x0=50.0, k0=1.0))
    times = np.linspace(0.0, 60.0, 13)
    a = evolve_series(h, psi0, times, method="spectral")
    b = evolve_series(h, psi0, times, method="expm")
    assert a.route == "chiral" + ("+rotation" if axis == "z" else "")
    assert np.max(np.abs(a.site_densities - b.site_densities)) <= 1e-7
    assert np.max(np.abs(a.log_norms - b.log_norms)) <= 1e-7


@pytest.mark.parametrize("axis", ["y", "z"])
@pytest.mark.parametrize(
    "spec",
    [sw.NonHermitianSSH(2.0, 1.0, -0.6, 40), get_preset("sm-boundary").model, sw.NonHermitianSSH(1.0, 2.0, -0.2, 40)],
    ids=["closed-form", "sm-boundary", "edge-mode"],
)
def test_chiral_frames_match_the_complex_synthesis(spec, axis):
    """One real cos/sin table and one real product per sublattice give the frames of exp(-iEt) over all 2n modes."""
    spec = dataclasses.replace(spec, axis=axis)
    h = sw.build_hamiltonian(spec)
    dec = decompose_model(h)
    assert dec.route == "chiral" + ("+rotation" if axis == "z" else "")
    rng = np.random.default_rng(11)
    psi = rng.normal(size=h.dim) + 1j * rng.normal(size=h.dim)
    times = np.linspace(0.0, 30.0, 7)
    ref = complex_chiral_frames(dec, psi, times)
    assert np.max(np.abs(dec.frames(dec.expand(psi), times) - ref)) <= 1e-12 * np.max(np.abs(ref))


BLOCK = 7   # frames per block once the cell budget is set to BLOCK frames of the chain


@pytest.mark.parametrize("frames", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize(
    "spec, method",
    [
        (sw.DiscreteHN(1.0, 2.0, 40), "spectral"),
        (sw.NonHermitianSSH(2.0, 1.0, -0.6, 20, axis="y"), "spectral"),
        (sw.NonHermitianSSH(2.0, 1.0, -0.6, 20, axis="z"), "spectral"),
        (sw.NonHermitianSSH(2.0, 1.0, -0.6, 20, axis="z"), "expm"),
    ],
    ids=["sine", "chiral", "chiral+rotation", "expm"],
)
def test_blocked_series_matches_per_frame_propagation(spec, method, frames, monkeypatch):
    """Every block edge, t = 0 frames included: the densities and log-norms of one frame at a time.

    The sine route's FFTs and the expm steps give the same bits in any block;
    the chiral GEMMs may change their last bits with the block's shape.
    """
    h = sw.build_hamiltonian(spec)
    monkeypatch.setattr(evolve, "_BLOCK_CELLS", BLOCK * h.dim)
    psi0 = random_state(h.dim, np.random.default_rng(frames))
    times = np.linspace(0.0, 3.0, frames)
    times[: frames // 3] = 0.0
    res = evolve_series(h, psi0, times, method=method)
    if method == "expm":
        amps, log_norms = propagated(h, psi0, times, method)
    else:
        amps, log_norms = map(np.concatenate, zip(*(propagated(h, psi0, [t], method) for t in times)))
    density = np.abs(amps) ** 2
    assert res.site_densities.shape == (frames, h.dim)
    if res.route in ("sine", "expm"):
        assert np.array_equal(res.site_densities, density)
        assert np.array_equal(res.log_norms, log_norms)
    else:
        assert np.max(np.abs(res.site_densities - density)) <= 1e-12 * np.max(density)
        assert np.max(np.abs(res.log_norms - log_norms)) <= 1e-12 * np.max(np.abs(log_norms))
    assert np.all(res.log_norms[times == 0] == psi0.log_norm)


@pytest.mark.parametrize(
    "spec",
    [
        sw.DiscreteHN(1.0, 2.0, 40),
        sw.NonHermitianSSH(2.0, 1.0, -0.6, 20, axis="y"),
        sw.NonHermitianSSH(2.0, 1.0, -0.6, 20, axis="z"),
    ],
    ids=["sine", "chiral", "chiral+rotation"],
)
def test_propagate_expands_psi0_once_per_call(spec, monkeypatch):
    """Three full blocks and part of a fourth from one expansion of psi0, each with the bits of a block expanded on its own."""
    h = sw.build_hamiltonian(spec)
    monkeypatch.setattr(evolve, "_BLOCK_CELLS", BLOCK * h.dim)
    psi0 = random_state(h.dim, np.random.default_rng(36))
    times = np.linspace(0.0, 3.0, 3 * BLOCK + 2)
    dec = decompose_model(h)
    expand, calls = type(dec).expand, []

    def counted(self, psi):
        calls.append(psi)
        return expand(self, psi)

    monkeypatch.setattr(type(dec), "expand", counted)
    route, blocks = evolve.propagate(h, psi0, times, "spectral")
    blocks = list(blocks)
    assert route == dec.route and [a for a, _, _ in blocks] == [0, BLOCK, 2 * BLOCK, 3 * BLOCK]
    assert len(calls) == 1 and calls[0] is psi0.amplitudes
    for a, amps, log_norms in blocks:
        frames = dec.frames(expand(dec, psi0.amplitudes), times[a : a + BLOCK])
        _, ref_amps, ref_log_norms = evolve._block_step(psi0, times, a, *evolve._normalise(frames, psi0.log_norm_offset))
        assert np.array_equal(amps, ref_amps) and np.array_equal(log_norms, ref_log_norms)


def test_block_budget_below_one_frame_still_takes_a_frame(monkeypatch):
    h = _chain(40)
    psi0 = random_state(40)
    times = np.linspace(0.0, 2.0, 5)
    ref = evolve_series(h, psi0, times)
    monkeypatch.setattr(evolve, "_BLOCK_CELLS", 1)
    res = evolve_series(h, psi0, times)
    assert np.array_equal(res.site_densities, ref.site_densities)
    assert np.array_equal(res.log_norms, ref.log_norms)


def test_degenerate_norm_in_a_later_block_names_its_grid_frame(monkeypatch):
    """A packet at the small-S end of a 1,100-site chain: frame 4 (t = 400), the second of block 1, overflows its norm.

    S spans 2.6e165 over the chain, so by t = 400 the frame's unnormalised
    amplitudes reach about 5e159 at the far end and their squares overflow.
    The frame ends in NumericalOverflow, with no RuntimeWarning on the way.
    """
    spec = sw.DiscreteHN(1.0, 2.0, 1100)
    h = sw.build_hamiltonian(spec)
    psi0 = sw.gaussian_state(h.geometry, sw.GaussianParams(sigma=10.0, x0=60.0))
    times = np.linspace(0.0, 1200.0, 13)
    monkeypatch.setattr(evolve, "_BLOCK_CELLS", 3 * h.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalOverflow, match=re.escape("frame 4 (t=400.0): state norm degenerate")):
            evolve_series(h, psi0, times, method="spectral")


def _traced_evolution(spec, packet, frames: int) -> tuple[int, int]:
    """(traced peak, density bytes) of one evolution over ``frames`` frames."""
    h = sw.build_hamiltonian(spec)
    psi0 = sw.gaussian_state(h.geometry, packet)
    tracemalloc.start()
    try:
        res = evolve_series(h, psi0, np.linspace(0.0, 1.0, frames))
        return tracemalloc.get_traced_memory()[1], res.site_densities.nbytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "spec, packet",
    [
        (sw.ContinuousHN(1.0, 1.0, 10.23, 0.01), sw.GaussianParams(sigma=0.5, x0=5.0, k0=0.5)),
        (sw.NonHermitianSSH(2.0, 1.0, -0.6, 500, axis="z"), sw.GaussianParams(sigma=20.0, x0=250.0, k0=0.5)),
    ],
    ids=["sine", "chiral+rotation"],
)
def test_evolution_memory_stays_near_its_density_array(spec, packet):
    """Streamed in blocks, the traced peak is the density array plus one block, not ~5 complex frame stacks.

    Whole-grid complex stacks put about 10x the density array on top of it.
    """
    (small_peak, small), (peak, density) = (_traced_evolution(spec, packet, n) for n in (256, 1024))
    assert density >= 8e6
    assert peak <= 2 * density
    assert (peak - density) - (small_peak - small) <= 0.02 * density   # the excess does not grow with the frames


def test_matrix_exp_only_reads_its_input():
    rng = np.random.default_rng(3)
    for n, scale in ((1, 0.1), (7, 0.02), (40, 0.3), (60, 5.0)):
        m = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * scale
        before = m.copy()
        matrix_exp(m)
        assert np.array_equal(m, before)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["dense", "strictly triangular", "diagonal"]),
    st.integers(1, 12),
    st.floats(0.0, 10.0, exclude_min=True),
    st.integers(0, 2**32 - 1),
)
def test_taylor_degree_is_never_below_the_adaptive_term_count(kind, n, x, seed):
    """The degree fixed from the scaled norm alone sums at least the terms an adaptive stopping test would.

    x runs past 0.25, matrix_exp's scaled norm, to the 1-norms of the expm
    route's Taylor steps (at most 8.5, where the degree reaches 55).
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "strictly triangular":
        a = np.triu(a, 1)
    elif kind == "diagonal":
        a = np.diag(a.diagonal())
    norm = np.linalg.norm(a, 1)
    assume(norm > 0)
    a *= x / norm
    assert evolve._taylor_degree(float(np.linalg.norm(a, 1))) >= adaptive_taylor_terms(a)


def test_sm_boundary_step_takes_twelve_terms_and_nine_squarings(monkeypatch):
    """matrix_exp scales a generator of 1-norm 82.41 (sm-boundary's gap) by 2^-9: 12 Horner terms and 9 squarings."""
    rng = np.random.default_rng(5)
    m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m *= 82.41 / np.linalg.norm(m, 1)
    degrees = []
    taylor_degree = evolve._taylor_degree

    def recorded(x):
        degrees.append((x, taylor_degree(x)))
        return degrees[-1][1]

    monkeypatch.setattr(evolve, "_taylor_degree", recorded)
    matrix_exp(m)
    assert degrees == [(np.linalg.norm(m, 1) / 2**9, 12)]   # the norm seen by the degree rule: 9 halvings


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _drained(h, psi0, times, method):
    """Run ``propagate`` over every block and keep none of them."""
    _, blocks = evolve.propagate(h, psi0, times, method)
    for _ in blocks:
        pass


def test_expm_on_a_non_uniform_grid_keeps_one_propagator(monkeypatch):
    """41 distinct gaps: one unit-time generator serves every gap, scaled by it, and none is formed per gap.

    The generator's bands take as many bytes as H's; beside them stand its
    column sums while it is formed and a few state vectors, about 3x its
    bytes at the peak.
    """
    h = _chain(2000)
    psi0 = random_state(2000, np.random.default_rng(8))
    times = np.cumsum(np.concatenate([[0.0], 0.01 + 0.001 * np.arange(41)]))
    assert len(set(np.diff(times))) == 41
    calls = []
    generator = evolve._generator
    monkeypatch.setattr(evolve, "_generator", lambda *args: calls.append(1) or generator(*args))
    _drained(h, psi0, times, "expm")   # a first call's one-time allocations (a few KB) stay out of the peak
    assert len(calls) == 1
    peak = _traced_peak(lambda: _drained(h, psi0, times, "expm"))
    assert peak <= 3.5 * sum(band.nbytes for band in h.bands.values())


def test_expm_route_forms_no_dense_matrix(monkeypatch):
    """The Taylor action steps vectors on H's bands: no matrix exponential, and nothing N x N beside the densities."""
    calls = []
    exp = evolve.matrix_exp

    def counted(*args, **kwargs):
        calls.append(1)
        return exp(*args, **kwargs)

    monkeypatch.setattr(evolve, "matrix_exp", counted)
    h = _chain(1000)
    psi0 = random_state(1000)
    times = np.linspace(0.0, 2.0, 21)
    evolve_series(h, psi0, times, method="expm")   # a first call's one-time allocations stay out of the peak
    result = []
    peak = _traced_peak(lambda: result.append(evolve_series(h, psi0, times, method="expm")))
    assert calls == []
    assert peak <= result[0].site_densities.nbytes + 1e6


def test_expm_route_follows_an_amplification_past_the_float_range():
    """exp(-i H) on diag(0, 2000j) is diag(1, e^2000): dense expm overflows, the normalised steps keep log-norm 2000."""
    psi0 = sw.WaveState(np.ones(2, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (_, end), (_, log_norm) = propagated(banded(np.diag([0.0, 2000.0j])), psi0, [0.0, 1.0], "expm")
        with pytest.raises(NumericalOverflow):
            matrix_exp(-1j * np.diag([0.0, 2000.0j]))
    assert log_norm == pytest.approx(2000.0, rel=1e-12)   # ln |(1, e^2000)| = 2000 + ln(1 + e^-4000) / 2
    assert np.array_equal(np.abs(end), [0.0, 1.0])


def test_expm_route_keeps_a_state_below_the_squares_underflow():
    """(1e-200, e^-400) has norm 1.9e-174 though every square underflows: each step scales by its largest amplitude.

    e^-400 decays against the shift, so its Taylor sums cancel (about
    eps e^(2 x) per step at 1-norm x = 8.3): 1e-10 bounds the drift.
    """
    psi0 = sw.WaveState(np.array([1e-200, 1.0], dtype=complex))
    _, log_norms = propagated(banded(np.diag([0.0, -1000.0j])), psi0, [0.0, 0.2, 0.4], "expm")
    assert log_norms[2] == pytest.approx(-400.0, rel=1e-10)


def test_matrix_exp_overflow_ends_in_its_numerical_overflow():
    """Squaring diag(e^-1000, e^1000) overflows: NumericalOverflow, with no RuntimeWarning on the way.

    So do 1-norms that take 1,024 squarings (3 * 2^1020) or whose scaling
    overflows (3 * 2^1021, and column sums past the float range).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalOverflow, match="overflow during squaring"):
            matrix_exp(np.diag([-1000.0, 1000.0]) + 0j)
        for entry in (1.5 * 2.0**1020, 1.5 * 2.0**1021, 1e308):
            with pytest.raises(NumericalOverflow):
                matrix_exp(np.full((2, 2), entry))


def test_matrix_exp_flushes_below_an_absolute_floor():
    """exp([[0, 1e160], [0, 0]]) is [[1, 1e160], [0, 1]], exactly: 534 squarings of I + a, powers of two throughout.

    Only entries below sqrt(tiny) are zeroed before a squaring; a floor
    scaled by max|r| (past 1 once the corner is 7e153) zeroes the unit
    diagonal, and the result with it.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(matrix_exp(np.array([[0.0, 1e160], [0.0, 0.0]])), [[1.0, 1e160], [0.0, 1.0]])


def test_sm_boundary_gap_takes_ten_steps_of_degree_54():
    """A generator of 1-norm 82.41, sm-boundary's gap: 540 products, the fewest of any step count."""
    assert evolve._steps(82.41) == (10, 54)


# each preset's expm plan (steps, degree), the same for every gap of its grid
_PRESET_PLANS = {
    **dict.fromkeys(["fig1a", "fig1b", "fig1c", "fig1d", "fig3"], (14, 55)),
    "fig4": (6, 52), "fig5b": (2, 39), "fig5c": (2, 41), "sm-meet": (2, 42),
    "sm-spread-slow": (6, 51), "sm-spread-fast": (8, 52), "sm-boundary": (10, 54),
}


def test_every_preset_keeps_its_expm_plan_per_gap():
    """``_steps`` at the unit-time generator's 1-norm times each gap of a preset's own grid gives one plan."""
    assert sorted(_PRESET_PLANS) == sorted(preset_names())
    for name, plan in _PRESET_PLANS.items():
        cfg = get_preset(name)
        _, norm1, _ = evolve._generator(sw.build_hamiltonian(cfg.model))
        gaps = np.diff(np.linspace(0.0, cfg.times.t_max, cfg.times.frame_count))
        assert {evolve._steps(norm1 * gap) for gap in gaps} == {plan}, name


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 60.0), st.floats(0.0, 60.0))
@example(0.0, 1e-300)
def test_taylor_degree_never_falls_as_the_norm_rises(x, y):
    """``_fewest_steps``' bisection and the memoised plan rely on the degree being monotone in x."""
    lo, hi = sorted((x, y))
    assert evolve._taylor_degree(lo) <= evolve._taylor_degree(hi)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 200.0))
def test_steps_take_the_fewest_products(norm1):
    """No step count whose degree is at most 55 takes fewer products s m than ``_steps``'s."""
    s, m = evolve._steps(norm1)
    assert m == evolve._taylor_degree(norm1 / s) <= evolve._MAX_DEGREE
    for other in range(max(1, math.ceil(norm1 / evolve._MAX_DEGREE)), s * m):
        degree = evolve._taylor_degree(norm1 / other)
        assert degree > evolve._MAX_DEGREE or other * degree >= s * m

