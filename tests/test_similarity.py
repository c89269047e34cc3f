import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skinwave as sw
from skinwave.errors import DimensionMismatch
from skinwave.evolve import _decompose_chain


def test_skin_factor_values():
    assert sw.skin_factor(sw.DiscreteHN(1.0, 2.0, 8)) == pytest.approx(np.sqrt(2.0))
    assert sw.skin_factor(sw.NonHermitianSSH(2.0, 1.0, -0.2, 8)) == pytest.approx(
        np.sqrt(2.1 / 1.9)
    )
    assert sw.skin_factor(sw.NonHermitianSSH(2.0, 1.0, -0.2, 8)) == pytest.approx(
        1.051315, abs=1e-6
    )


def test_skin_factor_hermitian_cases_are_one():
    assert sw.skin_factor(sw.DiscreteHN(1.7, 1.7, 8)) == 1.0
    assert sw.skin_factor(sw.NonHermitianSSH(2.0, 1.0, 0.0, 8)) == 1.0
    assert sw.skin_factor(sw.ContinuousHN(m=1.0, b=0.0, length=5.0, dx=0.1)) == 1.0
    assert sw.skin_factor(sw.BoundarySSH(2.0, 1.0, -0.2, 8, boundary_cells=3)) == 1.0


@settings(max_examples=40)
@given(
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=1.1, max_value=4.0),
)
def test_skin_factor_scale_consistent(t1, tm1, c):
    a = sw.skin_factor(sw.DiscreteHN(t1, tm1, 6))
    b = sw.skin_factor(sw.DiscreteHN(c * t1, c * tm1, 6))
    assert a == pytest.approx(b, rel=1e-12)


def test_skin_factor_per_unit_length_continuous():
    spec = sw.ContinuousHN(m=1.5, b=0.8, length=5.0, dx=0.05)
    assert sw.skin_factor(spec) == pytest.approx(np.exp(0.8 * 1.5 * 0.05))
    assert sw.skin_factor_per_unit_length(spec) == pytest.approx(np.exp(0.8 * 1.5))


def test_build_similarity_discrete_pattern():
    s = sw.build_similarity(sw.DiscreteHN(1.0, 4.0, 3), 3)   # r = 2
    assert np.allclose(s.diagonal, [2.0, 4.0, 8.0], rtol=1e-12)
    assert s.skin_factor == pytest.approx(2.0)


def test_build_similarity_ssh_pattern():
    # t1 = 5/3, gamma = -2 gives r = 2 per cell
    spec = sw.NonHermitianSSH(t1=5.0 / 3.0, t2=1.0, gamma=-2.0, n_cells=2)
    s = sw.build_similarity(spec, 4)
    assert np.allclose(s.diagonal, [1.0, 2.0, 2.0, 4.0], rtol=1e-12)


def test_build_similarity_hermitian_is_identity():
    s = sw.build_similarity(sw.DiscreteHN(1.2, 1.2, 5), 5)
    assert np.allclose(s.diagonal, np.ones(5))


def test_build_similarity_boundary_ssh_identity_flagged():
    spec = sw.BoundarySSH(20.0, 10.0, -2.0, 6, boundary_cells=2)
    s = sw.build_similarity(spec, 12)
    assert not s.uniform
    assert s.skin_factor == 1.0
    assert np.array_equal(s.diagonal, np.ones(12))


def test_build_similarity_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        sw.build_similarity(sw.DiscreteHN(1.0, 2.0, 5), 6)


def test_continuous_similarity_ratio_constant():
    spec = sw.ContinuousHN(m=2.0, b=0.3, length=4.0, dx=0.1)
    s = sw.build_similarity(spec, spec.n_sites)
    ratios = s.diagonal[1:] / s.diagonal[:-1]
    assert np.allclose(ratios, np.exp(0.3 * 2.0 * 0.1), rtol=1e-12)
    assert np.allclose(s.diagonal, np.exp(0.3 * 2.0 * 0.1 * np.arange(spec.n_sites)))


def test_hermitian_counterpart_discrete_hand_conjugation():
    spec = sw.DiscreteHN(1.0, 2.0, 4)
    h = sw.build_hamiltonian(spec)
    s = sw.build_similarity(spec, 4)
    hbar = sw.hermitian_counterpart(h, s).matrix
    hop = np.sqrt(2.0)
    expected = np.array(
        [
            [0, hop, 0, 0],
            [hop, 0, hop, 0],
            [0, hop, 0, hop],
            [0, 0, hop, 0],
        ]
    )
    assert np.allclose(hbar, expected, atol=1e-12)
    assert sw.hermiticity_residual(hbar) < 1e-12


def test_hermitian_counterpart_identity_is_noop():
    spec = sw.DiscreteHN(1.0, 2.0, 4)
    h = sw.build_hamiltonian(spec)
    ident = sw.SimilarityTransform(np.ones(4), 1.0, "DiscreteHN")
    assert np.array_equal(sw.hermitian_counterpart(h, ident).matrix, h.matrix)


def test_hermitian_counterpart_ssh():
    spec = sw.NonHermitianSSH(2.0, 1.0, -0.2, 20, axis="y")
    h = sw.build_hamiltonian(spec)
    s = sw.build_similarity(spec, h.dim)
    hbar = sw.hermitian_counterpart(h, s).matrix
    assert sw.hermiticity_residual(hbar) < 1e-10
    assert hbar[0, 1].real == pytest.approx(1.997498, abs=1e-6)


def test_hermiticity_residual_values():
    herm = np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -1.0]])
    assert sw.hermiticity_residual(herm) <= 1e-15
    for axis in ("y", "z"):
        h = sw.build_hamiltonian(sw.NonHermitianSSH(2.0, 1.0, -0.2, 6, axis=axis)).matrix
        assert sw.hermiticity_residual(h) == pytest.approx(0.2, rel=1e-12)


def test_continuous_counterpart_residual():
    """The sampled-exponential conjugation leaves a b^2 m residual on the
    off-diagonals (the forward stencil is not exactly conjugated); relative to
    the 1/dx^2 matrix scale it is O(dx)."""
    spec = sw.ContinuousHN(m=1.0, b=1.0, length=10.0, dx=0.01)
    h = sw.build_hamiltonian(spec)
    s = sw.build_similarity(spec, h.dim)
    hbar = sw.hermitian_counterpart(h, s).matrix
    residual = sw.hermiticity_residual(hbar)
    b, m, dx = spec.b, spec.m, spec.dx
    assert residual <= 1.1 * (b * b * m + b**3 * m * m * dx)
    assert residual / np.max(np.abs(hbar)) <= 5.0 * dx * max(abs(b), 1.0) * m


@pytest.mark.parametrize(
    "spec",
    [
        sw.DiscreteHN(1.0, 2.0, 60),
        sw.NonHermitianSSH(2.0, 1.0, -0.2, 30, axis="y"),
        sw.ContinuousHN(m=1.0, b=0.5, length=10.0, dx=0.05),
    ],
)
def test_conjugation_preserves_spectrum(spec):
    h = sw.build_hamiltonian(spec)
    s = sw.build_similarity(spec, h.dim)
    hbar = sw.hermitian_counterpart(h, s).matrix
    ev_h = np.sort_complex(np.linalg.eigvals(h.matrix))
    ev_b = np.sort_complex(np.linalg.eigvals(hbar))
    scale = max(1.0, np.max(np.abs(ev_h)))
    assert np.max(np.abs(ev_h - ev_b)) < 1e-8 * scale


def test_chain_symmetric_counterpart():
    spec = sw.DiscreteHN(1.0, 2.0, 10)
    h = sw.build_hamiltonian(spec)
    dec = _decompose_chain(h.bands)
    biorth = dec.left.conj().T @ dec.right - np.eye(10)
    rebuilt = (dec.right * dec.eigenvalues) @ dec.left.conj().T - h.matrix
    assert np.max(np.abs(biorth)) < 1e-12
    assert np.max(np.abs(rebuilt)) < 1e-12
    # sign-mixed off-diagonals admit no positive-diagonal symmetrizer: [[0, 1], [-1, 0]]
    assert _decompose_chain({0: np.zeros(2), 1: np.array([1.0]), -1: np.array([-1.0])}) is None
