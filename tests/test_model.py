import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skinwave as sw
from skinwave.errors import ExceptionalParameter, InvalidGrid, InvalidParameter
from skinwave.model import MAX_DIM, band_curvature, group_velocity, solve_momentum_for_velocity

from reference import (
    bloch_dispersion,
    bloch_matrix,
    build_gradient_forward,
    build_laplacian,
    hermitian_dispersion,
    hermiticity_residual,
)


def test_laplacian_3x3_exact():
    expected = np.array([[-2.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -2.0]])
    assert np.array_equal(build_laplacian(1.0, 3), expected)


def test_laplacian_dx_scaling():
    assert np.array_equal(build_laplacian(0.5, 3), 4.0 * build_laplacian(1.0, 3))


@given(st.integers(min_value=3, max_value=60), st.floats(min_value=0.05, max_value=3.0))
def test_laplacian_interior_row_sums_vanish(n, dx):
    lap = build_laplacian(dx, n)
    sums = lap.sum(axis=1)
    assert np.all(sums[1:-1] == 0.0)


def test_gradient_3x3_exact():
    expected = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]])
    assert np.array_equal(build_gradient_forward(1.0, 3), expected)


def test_gradient_annihilates_constant():
    g = build_gradient_forward(1.0, 8)
    out = g @ np.ones(8)
    assert np.all(out[:-1] == 0.0)


def test_gradient_of_linear_samples_is_one():
    n, dx = 12, 1.0
    g = build_gradient_forward(dx, n)
    out = g @ (np.arange(n) * dx)
    assert np.allclose(out[:-1], 1.0, atol=1e-12)


def test_grid_errors():
    with pytest.raises(InvalidGrid):
        build_laplacian(1.0, 2)
    with pytest.raises(InvalidGrid):
        build_gradient_forward(1.0, 1)
    with pytest.raises(InvalidGrid):
        build_laplacian(-0.1, 5)


def test_oversized_grids_refused_at_construction():
    # the check runs in __post_init__, before anything is allocated
    oversized = [
        ("length/dx", lambda: sw.ContinuousHN(m=1.0, b=1.0, length=10.0, dx=1e-5)),
        ("length/dx", lambda: sw.ContinuousHN(m=1.0, b=1.0, length=1.0, dx=1e-320)),
        ("n_sites", lambda: sw.DiscreteHN(1.0, 2.0, MAX_DIM + 1)),
        ("n_cells", lambda: sw.NonHermitianSSH(2.0, 1.0, 0.2, MAX_DIM // 2 + 1)),
        ("n_cells", lambda: sw.BoundarySSH(2.0, 1.0, 0.2, MAX_DIM // 2 + 1, 1)),
    ]
    for field, make in oversized:
        with pytest.raises(InvalidGrid, match=field):
            make()
    assert sw.DiscreteHN(1.0, 2.0, MAX_DIM).n_sites == MAX_DIM
    assert sw.NonHermitianSSH(2.0, 1.0, 0.2, MAX_DIM // 2).n_cells == MAX_DIM // 2


def test_continuous_box_matches_grid_count():
    spec = sw.ContinuousHN(m=1.0, b=1.0, length=10.0, dx=0.01)
    assert spec.n_sites == 1000
    assert spec.e0 == -0.5
    h = sw.build_hamiltonian(spec)
    assert h.matrix.shape == (1000, 1000)
    assert h.geometry.positions[0] == 0.0
    assert h.geometry.positions[1] == 0.01


def test_continuous_assembles_from_stencils():
    spec = sw.ContinuousHN(m=2.0, b=-0.7, length=3.0, dx=0.5, e0=0.3)
    h = sw.build_hamiltonian(spec).matrix
    n = spec.n_sites
    expected = (
        -build_laplacian(0.5, n) / 4.0
        - 0.7 * build_gradient_forward(0.5, n)
        + 0.3 * np.eye(n)
    )
    assert np.allclose(h, expected, atol=1e-14)


def test_discrete_tridiagonal_layout():
    h = sw.build_hamiltonian(sw.DiscreteHN(1.0, 2.0, 4)).matrix
    expected = np.array(
        [[0, 1, 0, 0], [2, 0, 1, 0], [0, 2, 0, 1], [0, 0, 2, 0]], dtype=float
    )
    assert np.array_equal(h.real, expected)
    assert np.all(h.imag == 0.0)


def test_discrete_equal_hops_is_hermitian():
    h = sw.build_hamiltonian(sw.DiscreteHN(1.3, 1.3, 6)).matrix
    assert hermiticity_residual(h) < 1e-12


def _ring_from_bloch(spec, n_cells):
    """Brute-force inverse Fourier transform of the 2x2 momentum blocks."""
    ring = np.zeros((2 * n_cells, 2 * n_cells), dtype=complex)
    for j in range(n_cells):
        k = 2.0 * np.pi * j / n_cells
        hk = bloch_matrix(spec, k)
        for c1 in range(n_cells):
            for c2 in range(n_cells):
                ring[2 * c1 : 2 * c1 + 2, 2 * c2 : 2 * c2 + 2] += (
                    np.exp(1j * k * (c1 - c2)) * hk / n_cells
                )
    return ring


@pytest.mark.parametrize("axis", ["y", "z"])
@pytest.mark.parametrize("n_cells", [3, 4])
def test_ssh_matches_bloch_expansion_minus_wrap(axis, n_cells):
    # on a 2-cell ring the forward and backward couplings overlap, so the
    # smallest faithful ring has 3 cells
    spec = sw.NonHermitianSSH(t1=2.0, t2=1.0, gamma=-0.2, n_cells=n_cells, axis=axis)
    ring = _ring_from_bloch(spec, n_cells)
    # delete the wrap-around couplings between the first and last cell
    ring[: 2, -2:] = 0.0
    ring[-2:, : 2] = 0.0
    h = sw.build_hamiltonian(spec).matrix
    assert np.allclose(h, ring, atol=1e-12)


@pytest.mark.parametrize("axis", ["y", "z"])
def test_ssh_two_cell_block_consistent(axis):
    # the 4x4 open chain equals the top-left corner of a longer chain
    small = sw.build_hamiltonian(sw.NonHermitianSSH(2.0, 1.0, -0.2, 2, axis=axis)).matrix
    large = sw.build_hamiltonian(sw.NonHermitianSSH(2.0, 1.0, -0.2, 5, axis=axis)).matrix
    assert np.array_equal(small, large[:4, :4])


def test_ssh_axis_variants_are_unitarily_equivalent():
    y = sw.build_hamiltonian(sw.NonHermitianSSH(2.0, 1.0, -0.2, 5, axis="y")).matrix
    z = sw.build_hamiltonian(sw.NonHermitianSSH(2.0, 1.0, -0.2, 5, axis="z")).matrix
    u = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / np.sqrt(2.0)
    w = np.kron(np.eye(5), u)
    assert np.allclose(w @ y @ w.conj().T, z, atol=1e-12)


@pytest.mark.parametrize("axis", ["y", "z"])
def test_boundary_ssh_endpoints(axis):
    full = sw.build_hamiltonian(
        sw.BoundarySSH(2.0, 1.0, -0.2, 6, boundary_cells=6, axis=axis)
    ).matrix
    uniform = sw.build_hamiltonian(
        sw.NonHermitianSSH(2.0, 1.0, -0.2, 6, axis=axis)
    ).matrix
    assert np.array_equal(full, uniform)

    off = sw.build_hamiltonian(
        sw.BoundarySSH(2.0, 1.0, -0.2, 6, boundary_cells=0, axis=axis)
    ).matrix
    hermitian = sw.build_hamiltonian(sw.NonHermitianSSH(2.0, 1.0, 0.0, 6, axis=axis)).matrix
    assert np.array_equal(off, hermitian)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=0.2, max_value=3.0),
    st.integers(min_value=2, max_value=12),
)
def test_hermiticity_toggle(t1, t2, n_cells):
    chain = sw.build_hamiltonian(sw.DiscreteHN(t1, t1, n_cells + 1)).matrix
    assert hermiticity_residual(chain) < 1e-12
    for axis in ("y", "z"):
        ssh = sw.build_hamiltonian(
            sw.NonHermitianSSH(t1, t2, 0.0, n_cells, axis=axis)
        ).matrix
        assert hermiticity_residual(ssh) < 1e-12
    cont = sw.build_hamiltonian(
        sw.ContinuousHN(m=1.0, b=0.0, length=float(n_cells), dx=0.25)
    ).matrix
    assert hermiticity_residual(cont) < 1e-12


@pytest.mark.parametrize(
    "spec",
    [
        sw.ContinuousHN(m=1.0, b=1.0, length=5.0, dx=0.1),
        sw.DiscreteHN(1.0, 2.0, 30),
        sw.NonHermitianSSH(2.0, 1.0, -0.2, 15, axis="y"),
        sw.NonHermitianSSH(2.0, 1.0, -0.2, 15, axis="z"),
        sw.BoundarySSH(20.0, 10.0, -2.0, 15, boundary_cells=4, axis="z"),
    ],
)
def test_dirichlet_closure_no_wrap(spec):
    h = sw.build_hamiltonian(spec).matrix
    cells = h.shape[0] // (2 if not isinstance(spec, (sw.ContinuousHN, sw.DiscreteHN)) else 1)
    width = h.shape[0] // cells if cells else 1
    assert np.all(h[:width, -width:] == 0.0)
    assert np.all(h[-width:, :width] == 0.0)


def test_discrete_pbc_dispersion_matches_circulant():
    t1, tm1, n = 1.0, 2.0, 24
    h = sw.build_hamiltonian(sw.DiscreteHN(t1, tm1, n)).matrix.copy()
    h[n - 1, 0] = t1        # test-only wrap variant
    h[0, n - 1] = tm1
    eig = np.linalg.eigvals(h)
    ks = 2.0 * np.pi * np.arange(n) / n
    analytic = t1 * np.exp(1j * ks) + tm1 * np.exp(-1j * ks)
    # multiset match: claim the nearest eigenvalue for each analytic value
    free = np.ones(n, dtype=bool)
    for e in analytic:
        gaps = np.where(free, np.abs(eig - e), np.inf)
        j = int(np.argmin(gaps))
        assert gaps[j] < 1e-10
        free[j] = False


def test_dispersion_continuous():
    spec = sw.ContinuousHN(m=1.0, b=1.0, length=10.0, dx=0.01)
    assert bloch_dispersion(spec, 0.0) == pytest.approx(-0.5)
    assert bloch_dispersion(spec, 20.0) == pytest.approx(200.0 + 20.0j - 0.5)


def test_dispersion_ssh_pair():
    spec = sw.NonHermitianSSH(2.0, 1.0, -0.2, 10, axis="y")
    tbar = np.sqrt(2.1 * 1.9)
    pair = bloch_dispersion(spec, 0.0)
    assert pair == pytest.approx([-(tbar + 1.0), tbar + 1.0])
    assert tbar == pytest.approx(1.997498, abs=1e-6)


def test_dispersion_discrete():
    spec = sw.DiscreteHN(1.0, 2.0, 10)
    k = 0.7
    assert bloch_dispersion(spec, k) == pytest.approx(
        np.exp(1j * k) + 2.0 * np.exp(-1j * k)
    )
    assert hermitian_dispersion(spec, k) == pytest.approx(
        2.0 * np.sqrt(2.0) * np.cos(k)
    )


def test_spec_validation_errors():
    with pytest.raises(ExceptionalParameter):
        sw.NonHermitianSSH(t1=1.0, t2=1.0, gamma=2.0, n_cells=4)
    with pytest.raises(ExceptionalParameter):
        sw.BoundarySSH(t1=1.0, t2=1.0, gamma=-2.0, n_cells=4, boundary_cells=2)
    with pytest.raises(InvalidParameter):
        sw.DiscreteHN(t1=-1.0, t_minus1=2.0, n_sites=4)
    with pytest.raises(InvalidParameter):
        sw.ContinuousHN(m=1.0, b=float("nan"), length=10.0, dx=0.1)
    with pytest.raises(InvalidParameter):
        sw.BoundarySSH(t1=1.0, t2=1.0, gamma=-0.2, n_cells=4, boundary_cells=5)
    with pytest.raises(InvalidGrid):
        sw.ContinuousHN(m=1.0, b=1.0, length=0.2, dx=0.1)
    with pytest.raises(InvalidGrid, match="n_sites"):
        sw.DiscreteHN(t1=1.0, t_minus1=2.0, n_sites=10.5)
    with pytest.raises(InvalidGrid, match="n_cells"):
        sw.NonHermitianSSH(t1=1.0, t2=1.0, gamma=-0.2, n_cells=10.5)
    with pytest.raises(InvalidGrid, match="n_cells"):
        sw.BoundarySSH(t1=1.0, t2=1.0, gamma=-0.2, n_cells=10.5, boundary_cells=2)
    with pytest.raises(InvalidGrid, match="boundary_cells"):
        sw.BoundarySSH(t1=1.0, t2=1.0, gamma=-0.2, n_cells=10, boundary_cells=2.5)


_VELOCITY_SPECS = (
    sw.ContinuousHN(m=1.5, b=1.0, length=10.0, dx=0.01),
    sw.DiscreteHN(1.0, 2.0, 10),
    sw.NonHermitianSSH(2.0, 1.0, -0.2, 10, axis="y"),
    sw.NonHermitianSSH(2.0, 1.0, -0.2, 10, axis="z"),
    sw.BoundarySSH(20.0, 10.0, -2.0, 10, 4, axis="y"),
    sw.BoundarySSH(20.0, 10.0, -2.0, 10, 4, axis="z"),
)


def test_group_velocity_matches_dispersion_derivative():
    h = 1e-5
    for spec in _VELOCITY_SPECS:
        for band in (1, -1):
            for k in (-2.9, -1.3, -0.4, 0.3, 1.0, 2.0, 2.8):
                e_up = hermitian_dispersion(spec, k + h, band)
                e_down = hermitian_dispersion(spec, k - h, band)
                numeric = (e_up - e_down) / (2.0 * h)
                assert group_velocity(spec, k, band) == pytest.approx(numeric, rel=1e-7)


def test_group_velocity_array_equals_scalar():
    ks = np.linspace(-np.pi, np.pi, 41)
    for spec in _VELOCITY_SPECS:
        for band in (1, -1):
            v = group_velocity(spec, ks, band)
            assert np.array_equal(v, [group_velocity(spec, k, band) for k in ks])


def test_group_velocity_is_odd():
    """v(-k) = -v(k): every counterpart band is even, so a packet reflects to -k0."""
    ks = np.linspace(0.0, np.pi, 41)
    for spec in _VELOCITY_SPECS:
        for band in (1, -1):
            assert np.array_equal(group_velocity(spec, -ks, band), -group_velocity(spec, ks, band))


def test_group_velocity_band_must_be_plus_or_minus_one():
    for spec in _VELOCITY_SPECS[2:]:
        for band in (0, 2):
            with pytest.raises(InvalidParameter, match="band"):
                group_velocity(spec, 0.5, band)


def test_band_curvature_is_derivative_of_group_velocity():
    """d^2E/dk^2 against a central difference of dE/dk, on every family, both bands
    and axes, plus a two-band chain with t1 < t2; an array k gives the scalar values."""
    h = 1e-5
    ks = np.array([-2.9, -1.3, -0.4, 0.3, 1.0, 2.0, 2.8])
    for spec in _VELOCITY_SPECS + (sw.NonHermitianSSH(1.0, 2.0, 0.4, 10, axis="z"),):
        for band in (1, -1):
            numeric = (group_velocity(spec, ks + h, band) - group_velocity(spec, ks - h, band)) / (2.0 * h)
            curvature = np.broadcast_to(band_curvature(spec, ks, band), ks.shape)
            assert np.all(np.abs(curvature - numeric) <= 1e-6 * np.abs(curvature)), (spec, band)
            assert np.array_equal(curvature, [band_curvature(spec, k, band) for k in ks])
        if isinstance(spec, (sw.NonHermitianSSH, sw.BoundarySSH)):
            with pytest.raises(InvalidParameter, match="band"):
                band_curvature(spec, 0.5, 0)


def test_band_laws_keep_the_sign_of_t1():
    """t1 < 0: the counterpart's intracell hop is -sqrt((t1 - gamma/2)(t1 + gamma/2)), and
    v and E'' are the derivatives of the Bloch band built from that signed hop."""
    spec = sw.NonHermitianSSH(-2.0, 1.0, -0.2, 10)
    h = 1e-4
    for band in (1, -1):
        for k in (-2.9, -1.3, -0.4, 0.3, 1.0, 2.0, 2.8):
            e = [hermitian_dispersion(spec, k + d, band) for d in (-h, 0.0, h)]
            assert group_velocity(spec, k, band) == pytest.approx((e[2] - e[0]) / (2.0 * h), rel=1e-7)
            assert band_curvature(spec, k, band) == pytest.approx((e[2] - 2.0 * e[1] + e[0]) / h**2, abs=1e-6)
    assert group_velocity(spec, 1.0, band=-1) == pytest.approx(-0.99889, abs=1e-5)


def test_band_laws_of_an_all_gamma_boundary_chain_are_the_uniform_chain_laws():
    """gamma on every cell of a BoundarySSH makes it the uniform chain: its counterpart hop carries gamma."""
    ks = np.linspace(-np.pi, np.pi, 41)
    uniform = sw.NonHermitianSSH(2.0, 1.0, -0.2, 10)
    for axis in ("y", "z"):
        boundary = sw.BoundarySSH(2.0, 1.0, -0.2, 10, boundary_cells=10, axis=axis)
        for band in (1, -1):
            for law in (group_velocity, band_curvature):
                assert np.array_equal(law(boundary, ks, band), law(uniform, ks, band))
        assert sw.skin_factor(boundary) == sw.skin_factor(uniform)
        assert group_velocity(boundary, 1.0, band=-1) == pytest.approx(0.62866, abs=1e-5)


def test_one_cell_keeps_the_intercell_hop_of_its_spec():
    """A one-cell chain's counterpart has no intercell hop; the laws keep t2 from the spec."""
    assert group_velocity(sw.NonHermitianSSH(2.0, 1.0, -0.2, 1), 1.0, band=-1) == pytest.approx(0.62866, abs=1e-5)


def test_momentum_solver_hits_target_velocity():
    spec = sw.NonHermitianSSH(t1=20.0, t2=10.0, gamma=-2.0, n_cells=50, axis="y")
    k = solve_momentum_for_velocity(spec, 1.0, band=-1)
    assert group_velocity(spec, k, band=-1) == pytest.approx(1.0, abs=1e-6)


def test_geometry_labels_and_density_grid():
    chain = sw.build_hamiltonian(sw.DiscreteHN(1.0, 2.0, 5)).geometry
    assert np.array_equal(chain.density_positions, chain.positions)

    ssh = sw.build_hamiltonian(sw.NonHermitianSSH(2.0, 1.0, -0.2, 3)).geometry
    assert np.array_equal(ssh.density_positions, [0.0, 1.0, 2.0])
    assert ssh.positions[0] == ssh.positions[1] == 0.0


@pytest.mark.parametrize(
    "spec",
    [
        sw.ContinuousHN(1.0, 1.0, 2.0, 0.1, e0=3.0),
        sw.DiscreteHN(1.0, 2.0, 12),
        sw.NonHermitianSSH(2.0, 1.0, -0.2, 8, axis="z"),
        sw.BoundarySSH(2.0, 1.0, -0.8, 8, 3, axis="z"),
    ],
    ids=["continuous", "discrete", "ssh-z", "boundary-z"],
)
def test_energy_bound_is_the_largest_gershgorin_row_sum(spec):
    h = sw.build_hamiltonian(spec)
    rows = np.abs(h.matrix).sum(axis=1)
    assert h.energy_bound == pytest.approx(rows.max(), rel=1e-15)
    assert np.max(np.abs(np.linalg.eigvals(h.matrix))) <= h.energy_bound
