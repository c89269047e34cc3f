import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skinwave as sw
from skinwave.model import band_curvature, counterpart, group_velocity

from reference import dense_bases, hermiticity_residual, skin_factor_per_unit_length

COARSE = sw.ContinuousHN(m=1.5, b=1.375, length=4.0, dx=0.25)   # 2 m b dx > 1


def _counterpart(spec):
    """S, H conjugated by S (dense), and the symmetric counterpart ``chain_similarity`` reports."""
    h = sw.build_hamiltonian(spec)
    s, diag, off = sw.chain_similarity(h.bands)
    conjugated = h.matrix * (s[None, :] / s[:, None])
    return s, conjugated, np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def test_skin_factor_values():
    assert sw.skin_factor(sw.DiscreteHN(1.0, 2.0, 8)) == pytest.approx(np.sqrt(2.0))
    assert sw.skin_factor(sw.NonHermitianSSH(2.0, 1.0, -0.2, 8)) == pytest.approx(
        np.sqrt(2.1 / 1.9)
    )
    assert sw.skin_factor(sw.NonHermitianSSH(2.0, 1.0, -0.2, 8)) == pytest.approx(
        1.051315, abs=1e-6
    )
    # one cell has no intercell hop: the intracell ratio stands for the cell
    assert sw.skin_factor(sw.NonHermitianSSH(2.0, 1.0, -0.2, 1)) == sw.skin_factor(
        sw.NonHermitianSSH(2.0, 1.0, -0.2, 8)
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
    # the grid's own hop ratio (1 - 2 m b dx)^(-1/2), not the continuum exp(b m dx)
    spec = sw.ContinuousHN(m=1.5, b=0.8, length=5.0, dx=0.05)
    assert sw.skin_factor(spec) == pytest.approx(0.88 ** -0.5)
    assert skin_factor_per_unit_length(spec) == pytest.approx(0.88 ** -10.0)


def test_skin_factor_per_unit_length_overflow_names_the_spec():
    # r = 35.36 per site is finite, r^(1/dx) = r^200 is not
    spec = sw.ContinuousHN(m=1.0, b=99.92, length=0.5, dx=0.005)
    assert sw.skin_factor(spec) == pytest.approx(35.36, rel=1e-3)
    with pytest.raises(sw.NumericalOverflow, match=r"ContinuousHN\(m=1.0, b=99.92.*overflows"):
        skin_factor_per_unit_length(spec)


def test_skin_factor_none_without_counterpart():
    assert sw.skin_factor(sw.NonHermitianSSH(1.0, 1.0, 3.0, 8)) is None
    assert sw.skin_factor(sw.NonHermitianSSH(1.0, 1.0, 3.0, 8, axis="z")) is None
    assert sw.skin_factor(COARSE) is None
    assert skin_factor_per_unit_length(COARSE) is None


def test_continuum_band_tends_to_the_paper_forms():
    """The grid band's v, E'' and ln(r)/dx tend to the continuum's k/m, 1/m and b m
    as dx -> 0, each error falling about tenfold per decade of dx (first order)."""
    k = 2.0
    errors = []
    for dx in (1e-2, 1e-3):
        spec = sw.ContinuousHN(m=1.5, b=0.8, length=1.0, dx=dx)
        got = np.array([group_velocity(spec, k), band_curvature(spec, k), np.log(sw.skin_factor(spec)) / dx])
        paper = np.array([k / spec.m, 1.0 / spec.m, spec.b * spec.m])
        errors.append(np.abs(got / paper - 1.0))
    at_1e2, at_1e3 = errors
    assert np.all(at_1e2 < 0.02)
    assert np.all((8.0 < at_1e2 / at_1e3) & (at_1e2 / at_1e3 < 12.0)), at_1e2 / at_1e3


def test_band_functions_refuse_a_grid_without_counterpart():
    """2 m b dx >= 1 leaves the grid's hops of opposite sign (or a zero hop): no band to read.
    Nor is there one where the product of the hops overflows; neither gives a nan."""
    edge = sw.ContinuousHN(m=1.0, b=50.0, length=1.0, dx=0.01)   # 2 m b dx = 1
    light = sw.ContinuousHN(m=1e-300, b=0.0, length=1.0, dx=0.01)   # hops -5e303
    for spec in (COARSE, edge, light):
        for law in (group_velocity, band_curvature):
            with pytest.raises(sw.InvalidParameter, match="no Hermitian counterpart"):
                law(spec, 0.3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "spec",
    [
        sw.ContinuousHN(m=1e-300, b=0.0, length=1.0, dx=0.01),   # hops -5e303: a b overflows
        sw.DiscreteHN(1e-300, 1e300, 10),   # a b = 1, but b / a overflows
        sw.DiscreteHN(1e300, 1e-300, 40),   # a b = 1, but b / a underflows to 0
        sw.DiscreteHN(1.0, 1e10, 4096),   # r = 1e5 per site: S overflows past site 61
    ],
)
def test_a_counterpart_past_the_float_range_is_none_without_a_warning(spec):
    """The reader, the skin factor, the routes and the band laws all say "no counterpart"."""
    h = sw.build_hamiltonian(spec)
    assert sw.chain_similarity(h.bands) is None and counterpart(spec) is None
    assert sw.skin_factor(spec) is None
    assert sw.decompose_model(h) is None
    for law in (group_velocity, band_curvature):
        with pytest.raises(sw.InvalidParameter, match="no Hermitian counterpart"):
            law(spec, 0.3)


def test_build_similarity_discrete_pattern():
    s, _, _ = sw.chain_similarity(sw.build_hamiltonian(sw.DiscreteHN(1.0, 4.0, 3)).bands)   # r = 2
    assert np.allclose(s, [1.0, 2.0, 4.0], rtol=1e-12)
    assert sw.skin_factor(sw.DiscreteHN(1.0, 4.0, 3)) == pytest.approx(2.0)


def test_build_similarity_ssh_pattern():
    # t1 = 5/3, gamma = -2 gives r = 2 per cell, on both axes
    for axis in ("y", "z"):
        spec = sw.NonHermitianSSH(t1=5.0 / 3.0, t2=1.0, gamma=-2.0, n_cells=2, axis=axis)
        s, _, _ = counterpart(spec)
        assert np.allclose(s, [1.0, 2.0, 2.0, 4.0], rtol=1e-12)
        assert sw.skin_factor(spec) == pytest.approx(2.0)


def test_build_similarity_hermitian_is_identity():
    s, _, _ = sw.chain_similarity(sw.build_hamiltonian(sw.DiscreteHN(1.2, 1.2, 5)).bands)
    assert np.allclose(s, np.ones(5))


def test_build_similarity_boundary_ssh_identity_flagged():
    """The boundary-restricted chain has a non-uniform S: ratio 1 in the bulk
    and r only across the gamma cells; its bulk skin factor is 1."""
    spec = sw.BoundarySSH(20.0, 10.0, -2.0, 6, boundary_cells=2)
    assert sw.chain_similarity(sw.build_hamiltonian(spec).bands) is None   # axis z: imaginary hops
    s, _, _ = counterpart(spec)
    r = np.sqrt(21.0 / 19.0)
    assert np.allclose(s, [1.0] * 9 + [r, r, r * r], rtol=1e-12)
    assert sw.skin_factor(spec) == 1.0


def test_continuous_similarity_ratio_constant():
    spec = sw.ContinuousHN(m=2.0, b=0.3, length=4.0, dx=0.1)
    s, _, _ = sw.chain_similarity(sw.build_hamiltonian(spec).bands)
    ratios = s[1:] / s[:-1]
    ratio = (1.0 - 2.0 * 2.0 * 0.3 * 0.1) ** -0.5
    assert np.allclose(ratios, ratio, rtol=1e-12)
    assert np.allclose(s, ratio ** np.arange(spec.n_sites))


def test_hermitian_counterpart_discrete_hand_conjugation():
    _, conjugated, hbar = _counterpart(sw.DiscreteHN(1.0, 2.0, 4))
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
    assert np.allclose(conjugated, expected, atol=1e-12)
    assert hermiticity_residual(conjugated) < 1e-12


def test_hermitian_counterpart_identity_is_noop():
    h = sw.build_hamiltonian(sw.DiscreteHN(1.3, 1.3, 4))
    s, diag, off = sw.chain_similarity(h.bands)
    assert np.array_equal(s, np.ones(4))
    assert np.array_equal(diag, h.bands[0].real)
    assert np.array_equal(off, h.bands[1].real)


def test_hermitian_counterpart_ssh():
    _, conjugated, hbar = _counterpart(sw.NonHermitianSSH(2.0, 1.0, -0.2, 20, axis="y"))
    assert hermiticity_residual(conjugated) < 1e-10
    assert np.max(np.abs(conjugated - hbar)) < 1e-10
    assert hbar[0, 1] == pytest.approx(1.997498, abs=1e-6)


def test_hermiticity_residual_values():
    herm = np.array([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -1.0]])
    assert hermiticity_residual(herm) <= 1e-15
    for axis in ("y", "z"):
        h = sw.build_hamiltonian(sw.NonHermitianSSH(2.0, 1.0, -0.2, 6, axis=axis)).matrix
        assert hermiticity_residual(h) == pytest.approx(0.2, rel=1e-12)


def test_continuous_counterpart_residual():
    """S read from the grid's own bands conjugates the finite-difference
    matrix exactly: the residual is roundoff on the 1/dx^2 matrix scale."""
    _, conjugated, hbar = _counterpart(sw.ContinuousHN(m=1.0, b=1.0, length=10.0, dx=0.01))
    scale = np.max(np.abs(conjugated))
    assert hermiticity_residual(conjugated) <= 1e-13 * scale
    assert np.max(np.abs(conjugated - hbar)) <= 1e-13 * scale


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
    _, _, hbar = _counterpart(spec)
    ev_h = np.sort_complex(np.linalg.eigvals(h.matrix))
    ev_b = np.sort_complex(np.linalg.eigvals(hbar))
    scale = max(1.0, np.max(np.abs(ev_h)))
    assert np.max(np.abs(ev_h - ev_b)) < 1e-8 * scale


def test_chain_symmetric_counterpart():
    spec = sw.DiscreteHN(1.0, 2.0, 10)
    h = sw.build_hamiltonian(spec)
    dec = sw.decompose_model(h)
    right, left = dense_bases(dec)
    biorth = left.conj().T @ right - np.eye(10)
    rebuilt = (right * dec.eigenvalues) @ left.conj().T - h.matrix
    assert np.max(np.abs(biorth)) < 1e-12
    assert np.max(np.abs(rebuilt)) < 1e-12
    # sign-mixed off-diagonals admit no positive-diagonal symmetrizer: [[0, 1], [-1, 0]]
    assert sw.chain_similarity({0: np.zeros(2), 1: np.array([1.0]), -1: np.array([-1.0])}) is None
