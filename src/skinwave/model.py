"""Open-boundary Hamiltonians for the four model families.

Conventions used throughout:

* Chains (continuous and discrete): matrix index i sits at coordinate
  ``x_i = i * dx`` (``dx = 1`` for lattice models).  The walls are implicit,
  ``psi = 0`` one site beyond each end of the grid.
* Two-band chains: basis ordering (cell 0 A, cell 0 B, cell 1 A, ...), both
  sublattices of cell c at coordinate c.  The asymmetric variant carries the
  non-Hermiticity on the intracell hops (t1 +/- gamma/2); the gain/loss
  variant carries it as +i gamma/2 on A and -i gamma/2 on B sites.
* Every family is banded (|offset| <= 3) and is stored as its bands.

The Hermitian counterpart is read from the bands in one place, ``counterpart``:
a real tridiagonal H with same-sign off-diagonals a (super) and b (sub) is
S Hbar S^-1, with S = diag(1, cumprod(sqrt(b/a))) positive and Hbar real
symmetric (same diagonal, off-diagonals sign(a) sqrt(a b)).  S carries the skin
effect and Hbar the Hermitian spreading; the counterpart routes, the skin
factor and the band laws all read them there.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .errors import ExceptionalParameter, InvalidGrid, InvalidParameter

# largest dimension a spec may ask for: the chiral route's mode tables are (dim/2) x (dim/2)
MAX_DIM = 4096


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise InvalidParameter(f"{name}: non-finite parameter {v!r}")


def _require_size(name: str, field: str, dim: float) -> None:
    if dim > MAX_DIM:
        raise InvalidGrid(f"{name}: {field} gives matrix dimension {dim:.6g} > MAX_DIM = {MAX_DIM}")


@dataclass(frozen=True)
class ContinuousHN:
    """Continuum drift-diffusion chain in a hard-wall box, discretized on a grid.

    ``e0 = None`` resolves to the conventional offset -b^2 m / 2.
    """

    m: float
    b: float
    length: float
    dx: float
    e0: float | None = None

    def __post_init__(self) -> None:
        _require_finite("ContinuousHN", self.m, self.b, self.length, self.dx)
        if self.m <= 0:
            raise InvalidParameter("ContinuousHN: mass must be positive")
        if self.dx <= 0 or self.length <= 0:
            raise InvalidGrid("ContinuousHN: dx and length must be positive")
        _require_size("ContinuousHN", "length/dx", self.length / self.dx)
        if self.n_sites < 3:
            raise InvalidGrid("ContinuousHN: need at least 3 grid points")
        if self.e0 is None:
            object.__setattr__(self, "e0", -self.b * self.b * self.m / 2.0)
        _require_finite("ContinuousHN.e0", self.e0)

    @property
    def n_sites(self) -> int:
        return round(self.length / self.dx)


@dataclass(frozen=True)
class DiscreteHN:
    """Single-band chain with asymmetric hops: superdiagonal t1, subdiagonal t_minus1."""

    t1: float
    t_minus1: float
    n_sites: int

    def __post_init__(self) -> None:
        _require_finite("DiscreteHN", self.t1, self.t_minus1)
        if self.t1 <= 0 or self.t_minus1 <= 0:
            raise InvalidParameter("DiscreteHN: hops must be positive")
        if not isinstance(self.n_sites, numbers.Integral) or self.n_sites < 2:
            raise InvalidGrid(f"DiscreteHN: n_sites must be an integer >= 2, got {self.n_sites!r}")
        _require_size("DiscreteHN", "n_sites", self.n_sites)


@dataclass(frozen=True)
class NonHermitianSSH:
    """Two-band chain with uniform non-Hermiticity of strength gamma.

    ``axis='y'``: asymmetric intracell hops t1 +/- gamma/2.
    ``axis='z'``: on-site gain/loss +/- i gamma/2 (kinetic sine term moves onto
    the sublattice-diagonal, giving imaginary same-sublattice hops).
    """

    t1: float
    t2: float
    gamma: float
    n_cells: int
    axis: str = "y"

    def __post_init__(self) -> None:
        _require_finite("NonHermitianSSH", self.t1, self.t2, self.gamma)
        if not isinstance(self.n_cells, numbers.Integral) or self.n_cells < 1:
            raise InvalidGrid(f"NonHermitianSSH: n_cells must be an integer >= 1, got {self.n_cells!r}")
        _require_size("NonHermitianSSH", "n_cells", 2 * self.n_cells)
        if self.axis not in ("y", "z"):
            raise InvalidParameter(f"NonHermitianSSH: axis must be 'y' or 'z', got {self.axis!r}")
        if abs(self.gamma / 2.0) == abs(self.t1):
            raise ExceptionalParameter("NonHermitianSSH: |gamma/2| == |t1| is excluded")


@dataclass(frozen=True)
class BoundarySSH:
    """Two-band chain with gamma switched on only in the rightmost cells."""

    t1: float
    t2: float
    gamma: float
    n_cells: int
    boundary_cells: int
    axis: str = "z"

    def __post_init__(self) -> None:
        _require_finite("BoundarySSH", self.t1, self.t2, self.gamma)
        if not isinstance(self.n_cells, numbers.Integral) or self.n_cells < 1:
            raise InvalidGrid(f"BoundarySSH: n_cells must be an integer >= 1, got {self.n_cells!r}")
        _require_size("BoundarySSH", "n_cells", 2 * self.n_cells)
        if not isinstance(self.boundary_cells, numbers.Integral):
            raise InvalidGrid(f"BoundarySSH: boundary_cells must be an integer, got {self.boundary_cells!r}")
        if not 0 <= self.boundary_cells <= self.n_cells:
            raise InvalidParameter("BoundarySSH: boundary_cells must lie in [0, n_cells]")
        if self.axis not in ("y", "z"):
            raise InvalidParameter(f"BoundarySSH: axis must be 'y' or 'z', got {self.axis!r}")
        if self.boundary_cells > 0 and abs(self.gamma / 2.0) == abs(self.t1):
            raise ExceptionalParameter("BoundarySSH: |gamma/2| == |t1| is excluded")


ModelSpec = Union[ContinuousHN, DiscreteHN, NonHermitianSSH, BoundarySSH]


@dataclass(frozen=True)
class Geometry:
    """Map from matrix index to physical coordinate."""

    positions: np.ndarray          # coordinate of each matrix index
    dx: float                      # grid spacing (1 for lattice models)
    sites_per_cell: int = 1        # 2 for two-band chains (A, B interleaved)

    @property
    def dim(self) -> int:
        return len(self.positions)

    @property
    def density_positions(self) -> np.ndarray:
        """Coordinates of density bins (one per cell for two-band chains)."""
        return self.positions[:: self.sites_per_cell]


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Complex operator as bands, ``bands[k] = numpy.diagonal(H, k)`` (absent = 0), plus geometry.

    ``spec`` is the model spec the bands were built from (``build_hamiltonian``),
    None for bands given directly; the counterpart routes read it.
    """

    bands: dict[int, np.ndarray]
    geometry: Geometry
    spec: ModelSpec | None = None

    @property
    def dim(self) -> int:
        return self.geometry.dim

    @property
    def matrix(self) -> np.ndarray:
        """The dense dim x dim matrix, assembled from the bands on every access."""
        m = np.zeros((self.dim, self.dim), dtype=complex)
        for k, band in self.bands.items():
            i = np.arange(len(band)) + max(-k, 0)
            m[i, i + k] = band
        return m

    @property
    def energy_bound(self) -> float:
        """Largest Gershgorin row sum of |H|, a bound on every |E|, read from the bands in O(N)."""
        rows = np.zeros(self.dim)
        with np.errstate(over="ignore"):   # a sum past the float range is an infinite bound
            for k, band in self.bands.items():
                rows[max(-k, 0) : max(-k, 0) + len(band)] += np.abs(band)
        return float(rows.max())


def _band(length: int, even, odd=0.0) -> np.ndarray:
    """Complex band with ``even`` and ``odd`` in its alternating entries."""
    band = np.zeros(max(length, 0), dtype=complex)
    band[0::2], band[1::2] = even, odd
    return band


def _build_ssh(spec: NonHermitianSSH | BoundarySSH) -> dict[int, np.ndarray]:
    dim = 2 * spec.n_cells
    t1, t2 = spec.t1, spec.t2
    # per-cell gamma: on every cell, or on the rightmost boundary cells only
    cells = spec.n_cells if isinstance(spec, NonHermitianSSH) else spec.boundary_cells
    gamma = np.zeros(spec.n_cells)
    gamma[spec.n_cells - cells:] = spec.gamma
    if spec.axis == "y":
        # even entries intracell (A -> B), odd entries intercell (B -> next A)
        return {1: _band(dim - 1, t1 + gamma / 2.0, t2), -1: _band(dim - 1, t1 - gamma / 2.0, t2)}
    # sublattice-diagonal variant: intracell t1 symmetric, the cosine part of
    # the intercell coupling stays on the off-sublattice bands (+-1, +-3) and
    # the sine part becomes imaginary same-sublattice hops (+-2); gain/loss on
    # the diagonal
    return {
        0: _band(dim, 1j * gamma / 2.0, -1j * gamma / 2.0),
        1: _band(dim - 1, t1, t2 / 2.0),
        -1: _band(dim - 1, t1, t2 / 2.0),
        2: _band(dim - 2, -1j * t2 / 2.0, 1j * t2 / 2.0),
        -2: _band(dim - 2, 1j * t2 / 2.0, -1j * t2 / 2.0),
        3: _band(dim - 3, t2 / 2.0),
        -3: _band(dim - 3, t2 / 2.0),
    }


def _chain_stencil(spec: ContinuousHN | DiscreteHN) -> tuple[float, float, float, float]:
    """(dx, diagonal, superdiagonal, subdiagonal) of a single-band chain's uniform three-point stencil."""
    if isinstance(spec, ContinuousHN):
        # -(1/2m) Laplacian + b forward gradient + e0, in the stencils' order
        dx, inv = spec.dx, 1.0 / spec.dx
        kin = -(1.0 / (2.0 * spec.m)) * (1.0 / (dx * dx))
        return dx, -2.0 * kin - spec.b * inv + spec.e0, kin + spec.b * inv, kin
    return 1.0, 0.0, spec.t1, spec.t_minus1


def build_hamiltonian(spec: ModelSpec) -> HamiltonianMatrix:
    """Open-boundary Hamiltonian of any model family, stored as its bands, with ``spec`` on it."""
    if isinstance(spec, (ContinuousHN, DiscreteHN)):
        n = spec.n_sites
        dx, diag, sup, sub = _chain_stencil(spec)
        bands = {k: np.full(n - abs(k), v, dtype=complex) for k, v in ((0, diag), (1, sup), (-1, sub))}
        geom = Geometry(positions=np.arange(n) * dx, dx=dx)
    elif isinstance(spec, (NonHermitianSSH, BoundarySSH)):
        bands = _build_ssh(spec)
        geom = Geometry(
            positions=np.repeat(np.arange(spec.n_cells, dtype=float), 2),
            dx=1.0,
            sites_per_cell=2,
        )
    else:
        raise InvalidParameter(f"unknown model spec {type(spec).__name__}")
    if not all(np.all(np.isfinite(band)) for band in bands.values()):
        raise InvalidParameter("build_hamiltonian: non-finite matrix entry")
    return HamiltonianMatrix(bands, geom, spec)


def chain_similarity(bands: dict[int, np.ndarray]):
    """``(S, diagonal, off_diagonal)`` of the symmetric counterpart, or None where H has none.

    None for dim < 2, an imaginary entry, a nonzero entry off the three bands,
    a b <= 0 anywhere, or a product a b, a ratio b/a or an S past the float range
    (a ratio that underflows to 0 among them).
    """
    n = len(bands.get(1, ())) + 1
    diag, sup, sub = (bands.get(k, np.zeros(n - abs(k))).real for k in (0, 1, -1))
    if n < 2 or any(np.count_nonzero(b.imag) or (abs(k) > 1 and np.count_nonzero(b)) for k, b in bands.items()):
        return None
    with np.errstate(over="ignore"):   # a product, ratio or S past the float range: no counterpart
        prod = sup * sub
        if not np.all((0 < prod) & (prod < math.inf)):
            return None
        ratio = sub / sup
        if not np.all(ratio > 0):
            return None
        s = np.concatenate([[1.0], np.cumprod(np.sqrt(ratio))])
    if not np.all(np.isfinite(s)):
        return None
    return s, diag, np.sign(sup) * np.sqrt(prod)


def counterpart(spec: ModelSpec):
    """``chain_similarity`` of the spec's bands: the one reader of S and Hbar, or None where there is none.

    An axis-'z' two-band spec is read through its axis-'y' twin, equal up to a
    per-cell rotation.
    """
    twin = replace(spec, axis="y") if getattr(spec, "axis", "y") == "z" else spec
    return chain_similarity(build_hamiltonian(twin).bands)


def skin_factor(spec: ModelSpec) -> float | None:
    """Bulk ratio r = S[cell] / S[0] of the spec's similarity; r = 1 iff the bulk is Hermitian.

    Per site for chains, per cell for two-band chains (the intracell ratio if
    there is one cell).  None without a Hermitian counterpart: strong gamma,
    a continuum grid with 2 m b dx >= 1, or hops or an S past the float range.
    """
    if (sim := counterpart(spec)) is None:
        return None
    s = sim[0]
    return float(s[min(2 if isinstance(spec, (NonHermitianSSH, BoundarySSH)) else 1, len(s) - 1)] / s[0])


@functools.cache
def _first_hop(spec: ModelSpec) -> float:
    """The counterpart's first hop, signed: a chain's uniform c, a two-band chain's intracell hop."""
    if (sim := counterpart(spec)) is None:
        raise InvalidParameter(f"{type(spec).__name__}: no Hermitian counterpart")
    return float(sim[2][0])


def group_velocity(spec: ModelSpec, k, band: int = 1):
    """dE/dk of the Hermitian counterpart in closed form, for scalar or array ``k``.

    A chain's counterpart band is E = d + 2 c cos(k dx) (the continuum's grid
    band, not its dx -> 0 limit k^2/2m), a two-band chain's E = +-|c + t2 e^{ik}|,
    with c the counterpart's first hop, signed, and t2 the spec's intercell hop.
    ``band`` = +1/-1 picks the band of two-band chains; chains ignore it.
    """
    if isinstance(spec, (ContinuousHN, DiscreteHN)):
        c, dx = _first_hop(spec), getattr(spec, "dx", 1.0)
        return -2.0 * c * dx * np.sin(k * dx)
    if band not in (1, -1):
        raise InvalidParameter("group_velocity: band must be +1 or -1")
    tbar = _first_hop(spec)
    return -band * tbar * spec.t2 * np.sin(k) / np.abs(tbar + spec.t2 * np.exp(1j * k))


def band_curvature(spec: ModelSpec, k, band: int = 1):
    """d^2E/dk^2 of the Hermitian counterpart in closed form, for scalar or array ``k``.

    The effective inverse mass that sets a packet's spreading; ``band`` as in
    ``group_velocity``.
    """
    if isinstance(spec, (ContinuousHN, DiscreteHN)):
        c, dx = _first_hop(spec), getattr(spec, "dx", 1.0)
        return -2.0 * c * dx * dx * np.cos(k * dx)
    v = group_velocity(spec, k, band)   # checks the band
    tbar = _first_hop(spec)
    return -band * (tbar * spec.t2 * np.cos(k) + v * v) / np.abs(tbar + spec.t2 * np.exp(1j * k))


def solve_momentum_for_velocity(
    spec: ModelSpec, target: float, band: int = 1, k_hi: float = math.pi
) -> float:
    """Smallest k in (0, k_hi] whose counterpart group velocity reaches ``target``.

    Falls back to the velocity maximum when the target is (marginally) out of
    reach, which happens when the target equals the band's top speed.
    """
    ks = np.linspace(1e-6, k_hi, 4001)
    vs = group_velocity(spec, ks, band)
    if target > 0:
        above = np.nonzero(vs >= target)[0]
    else:
        above = np.nonzero(vs <= target)[0]
    if len(above) == 0:
        return float(ks[int(np.argmax(np.abs(vs)))])
    j = above[0]
    if j == 0:
        return float(ks[0])
    k_lo, k_up = ks[j - 1], ks[j]
    for _ in range(80):
        mid = 0.5 * (k_lo + k_up)
        if (group_velocity(spec, mid, band) - target) * (1 if target > 0 else -1) >= 0:
            k_up = mid
        else:
            k_lo = mid
    return float(0.5 * (k_lo + k_up))
