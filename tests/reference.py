"""Reference operators, dispersions, closed forms and writers that only the tests use.

Dense finite-difference stencils, the two-band Bloch block, the
periodic-boundary dispersions and a hermiticity residual: independent
statements of what the banded Hamiltonians and the closed-form velocities
in ``skinwave.model`` must agree with.  The paper's dx -> 0 closed forms of
the continuum chain (``HNOracleParams`` and the laws on it) are what the
acceptance criteria check the runs against, and what the grid's own band
law tends to on a fine grid.  The per-cell ``repr`` writer of density.csv
states what ``skinwave.shortest`` must write byte for byte, and its tables
are rebuilt here one entry at a time.  The chiral route's frames are
restated as a complex synthesis over all 2n modes, and
``adaptive_taylor_terms`` is the adaptive stopping rule that the fixed
Taylor degree of ``matrix_exp`` and the expm route replaced.
``banded`` stores a dense matrix's nonzero diagonals as the
``HamiltonianMatrix`` that ``propagate`` takes, ``propagated`` joins
``propagate``'s blocks, and ``dense_bases`` assembles the N x N bases that
the sine route keeps as maps.  ``eig_propagated`` evolves any square matrix
through ``decompose``'s biorthogonal eigenbasis, the reference that shares
nothing with either route.
``cell_sums`` is the reshape-and-sum of a two-band cell's densities that
``aggregate_density``'s strided add replaced.
``script`` imports a script under ``scripts/`` whose checks a test reuses.
"""

from __future__ import annotations

import importlib.util
import math
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from skinwave.errors import DimensionMismatch, InvalidGrid, InvalidParameter, NumericalOverflow
from skinwave.evolve import ChiralModes, decompose, propagate
from skinwave.model import (
    BoundarySSH,
    ContinuousHN,
    DiscreteHN,
    Geometry,
    HamiltonianMatrix,
    ModelSpec,
    NonHermitianSSH,
    skin_factor,
)
from skinwave.oracle import width_series
from skinwave.shortest import _DIGIT, _DOT, _E, _EXPONENT, _FIXED, _MINUS, _NUL, _PLUS, _SPLIT, _ZERO, WIDTH

_SQ = math.sqrt


def build_laplacian(dx: float, n: int) -> np.ndarray:
    """Second-difference matrix with hard-wall closure: diag -2/dx^2, off-diag 1/dx^2."""
    if n < 3:
        raise InvalidGrid(f"build_laplacian: need n >= 3, got {n}")
    if dx <= 0:
        raise InvalidGrid("build_laplacian: dx must be positive")
    inv2 = 1.0 / (dx * dx)
    lap = np.zeros((n, n))
    np.fill_diagonal(lap, -2.0 * inv2)
    idx = np.arange(n - 1)
    lap[idx, idx + 1] = inv2
    lap[idx + 1, idx] = inv2
    return lap


def build_gradient_forward(dx: float, n: int) -> np.ndarray:
    """Two-point forward difference: diag -1/dx, superdiagonal 1/dx."""
    if n < 2:
        raise InvalidGrid(f"build_gradient_forward: need n >= 2, got {n}")
    if dx <= 0:
        raise InvalidGrid("build_gradient_forward: dx must be positive")
    inv = 1.0 / dx
    grad = np.zeros((n, n))
    np.fill_diagonal(grad, -inv)
    idx = np.arange(n - 1)
    grad[idx, idx + 1] = inv
    return grad


def bloch_matrix(spec: NonHermitianSSH | BoundarySSH, k: float) -> np.ndarray:
    """2x2 momentum-space block of the two-band chain (bulk gamma)."""
    gamma = spec.gamma if isinstance(spec, NonHermitianSSH) else 0.0
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    hx = spec.t1 + spec.t2 * math.cos(k)
    hyz = spec.t2 * math.sin(k) + 0.5j * gamma
    return hx * sx + hyz * (sy if spec.axis == "y" else sz)


def bloch_dispersion(spec: ModelSpec, k: float):
    """Periodic-boundary dispersion.

    Chains return the (complex) single-band energy; two-band chains return the
    Hermitian-counterpart pair ``array([E_minus, E_plus])``, whose intracell
    hop is sign(t1 + gamma/2) sqrt((t1 - gamma/2)(t1 + gamma/2)) (bulk gamma).
    """
    if isinstance(spec, ContinuousHN):
        return k * k / (2.0 * spec.m) + 1j * spec.b * k + spec.e0
    if isinstance(spec, DiscreteHN):
        return spec.t1 * np.exp(1j * k) + spec.t_minus1 * np.exp(-1j * k)
    gamma = spec.gamma if isinstance(spec, NonHermitianSSH) else 0.0
    prod = (spec.t1 - gamma / 2.0) * (spec.t1 + gamma / 2.0)
    if prod <= 0:
        raise InvalidParameter("bloch_dispersion: no Hermitian counterpart for |gamma/2| > |t1|")
    tbar = math.copysign(_SQ(prod), spec.t1 + gamma / 2.0)
    e = _SQ((tbar + spec.t2 * math.cos(k)) ** 2 + (spec.t2 * math.sin(k)) ** 2)
    return np.array([-e, e])


def continuum_grid_matrix(spec: ContinuousHN, n: int) -> np.ndarray:
    """Dense -(1/2m) Laplacian + b forward gradient + e0 on ``n`` points of the spec's grid."""
    return (
        -(1.0 / (2.0 * spec.m)) * build_laplacian(spec.dx, n)
        + spec.b * build_gradient_forward(spec.dx, n)
        + spec.e0 * np.eye(n)
    )


def hermitian_dispersion(spec: ModelSpec, k: float, band: int = 1) -> float:
    """Real dispersion of the Hermitian counterpart; ``band`` = +1/-1 for two-band chains.

    The continuum chain's is the band of its grid, d + 2 c cos(k dx) with
    c = sign(a) sqrt(a b), read off an interior row of the dense stencils
    (diagonal d, super a, sub b).  It is written from its k = 0 value,
    (d + 2 c) - 4 c sin^2(k dx / 2), so that a difference quotient is not
    swamped by the 1/dx^2 size of d and c.
    """
    if isinstance(spec, ContinuousHN):
        h = continuum_grid_matrix(spec, 3)
        d, a, b = h[1, 1], h[1, 2], h[1, 0]
        c = math.copysign(_SQ(a * b), a)
        return (d + 2.0 * c) - 4.0 * c * math.sin(0.5 * k * spec.dx) ** 2
    if isinstance(spec, DiscreteHN):
        return 2.0 * _SQ(spec.t1 * spec.t_minus1) * math.cos(k)
    if band not in (1, -1):
        raise InvalidParameter("hermitian_dispersion: band must be +1 or -1")
    return float(bloch_dispersion(spec, k)[1 if band == 1 else 0])


def skin_factor_per_unit_length(spec: ModelSpec) -> float | None:
    """``skin_factor`` re-expressed per unit coordinate, r**(1/dx) on the continuum grid.

    Raises ``NumericalOverflow`` where r**(1/dx) leaves the float range.
    """
    r = skin_factor(spec)
    if r is not None and isinstance(spec, ContinuousHN):
        try:
            return r ** (1.0 / spec.dx)
        except OverflowError:
            raise NumericalOverflow(
                f"skin factor per unit length of {spec}: {r:.6g} per site to the power 1/dx = {1.0 / spec.dx:g} "
                "overflows"
            ) from None
    return r


@dataclass(frozen=True)
class HNOracleParams:
    """Symbols of the continuum chain's dx -> 0 closed forms."""

    m: float
    b: float
    sigma: float
    k0: float = 0.0
    x0: float = 0.0

    def __post_init__(self) -> None:
        if self.m <= 0 or self.sigma <= 0:
            raise InvalidParameter("HNOracleParams: m and sigma must be positive")


def sigma_sq_t(p: HNOracleParams, t) -> float | np.ndarray:
    """sigma(t)^2 = sigma^2 + t^2 / (4 sigma^2 m^2)."""
    return width_series(p.sigma, 1.0 / p.m, t)[0]


def hn_peak(p: HNOracleParams, t) -> float | np.ndarray:
    """Peak displacement 2 b m [sigma(t)^2 - sigma^2], relative to x0 (drift excluded)."""
    return 2.0 * p.b * p.m * (sigma_sq_t(p, t) - p.sigma**2)


def norm_amplification(p: HNOracleParams, t: float) -> float:
    """exp(2 b^2 m^2 [sigma(t)^2 - sigma^2])."""
    return math.exp(2.0 * p.b**2 * p.m**2 * (sigma_sq_t(p, t) - p.sigma**2))


def hn_density(p: HNOracleParams, x, t: float):
    """Free-evolution probability density; valid before boundary contact.

    Amplitude A / sqrt(2 pi sigma(t)^2) centered at
    x0 + (k0/m) t + 2 b m [sigma(t)^2 - sigma^2].
    """
    s2 = sigma_sq_t(p, t)
    center = p.x0 + (p.k0 / p.m) * t + hn_peak(p, t)
    amp = norm_amplification(p, t) / math.sqrt(2.0 * math.pi * s2)
    x = np.asarray(x, dtype=float)
    return amp * np.exp(-((x - center) ** 2) / (2.0 * s2))


def hermiticity_residual(m: np.ndarray) -> float:
    """max_ij |M_ij - conj(M_ji)|."""
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("hermiticity_residual: matrix must be square")
    return float(np.max(np.abs(m - m.conj().T)))


def repr_column(values) -> list[str]:
    """``repr`` of each value; empty for nan."""
    return ["" if v != v else repr(v) for v in np.asarray(values, dtype=float).tolist()]


def repr_density_csv(positions, times, log_norms, dens) -> bytes:
    """density.csv with one ``repr`` call per cell: the header, then (t, x, density, log_norm) rows."""
    xs = [x + "," for x in repr_column(positions)]
    lines = ["t,x,density,log_norm\n"]
    for t, ln, frame in zip(repr_column(times), repr_column(log_norms), dens):
        lines.append(f"{t}," + f",{ln}\n{t},".join(map(operator.add, xs, repr_column(frame))) + f",{ln}\n")
    return "".join(lines).encode()


def complex_chiral_frames(dec: ChiralModes, psi: np.ndarray, times) -> np.ndarray:
    """Unnormalised frames (times x dim) of ``psi`` on the chiral route, in complex arithmetic.

    x = S^-1 W^H psi; c = [(a + b), (a - b)] / sqrt(2) with a = U^T x_A and
    b = V^T x_B; every mode takes its phase exp(-i E t), and the frames are
    W S of U (c+ + c-) / sqrt(2) on the even sites and V (c+ - c-) / sqrt(2)
    on the odd ones.  W is the per-cell rotation [[1, -i], [-i, 1]] / sqrt(2)
    of the '+rotation' routes.
    """
    w = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / _SQ(2.0)
    cells = np.asarray(psi, dtype=complex).reshape(-1, 2)
    x = ((cells @ w.conj()) if dec.rotated else cells).ravel() / dec.s
    a, b = x[0::2] @ dec.u, x[1::2] @ dec.v
    coeff = np.concatenate([a + b, a - b]) / _SQ(2.0)
    phases = np.exp(np.outer(np.asarray(times, dtype=float), -1j * dec.eigenvalues.real))
    plus, minus = np.split(phases * coeff / _SQ(2.0), 2, axis=-1)
    amps = np.empty((len(phases), dec.dim), dtype=complex)
    amps[:, 0::2] = (plus + minus) @ dec.u.T
    amps[:, 1::2] = (plus - minus) @ dec.v.T
    amps *= dec.s
    if dec.rotated:
        amps = (amps.reshape(len(amps), -1, 2) @ w.T).reshape(amps.shape)
    return amps


def cell_sums(densities: np.ndarray, sites_per_cell: int) -> np.ndarray:
    """Per-cell density of a (frames, dim) or (dim,) stack: each cell's sites summed over a reshaped axis."""
    d = np.asarray(densities, dtype=float)
    return d.reshape(d.shape[:-1] + (d.shape[-1] // sites_per_cell, sites_per_cell)).sum(axis=-1)


def banded(m) -> HamiltonianMatrix:
    """The square matrix ``m`` as a ``HamiltonianMatrix``: its nonzero diagonals as bands, on unit-spaced sites."""
    m = np.asarray(m, dtype=complex)
    bands = {k: m.diagonal(k).copy() for k in range(1 - len(m), len(m)) if np.any(m.diagonal(k))}
    return HamiltonianMatrix(bands=bands, geometry=Geometry(positions=np.arange(float(len(m))), dx=1.0))


def propagated(h, psi0, times, method: str) -> tuple[np.ndarray, np.ndarray]:
    """Unit amplitudes (frames x dim) and log-norms of ``propagate``'s blocks, concatenated over the grid."""
    _, blocks = propagate(h, psi0, times, method)
    _, amps, log_norms = zip(*blocks)
    return np.concatenate(amps), np.concatenate(log_norms)


def eig_propagated(h, psi0, times) -> tuple[np.ndarray, np.ndarray]:
    """Unit amplitudes (frames x dim) and log-norms of ``psi0`` under ``h`` from ``decompose``'s eigenbasis.

    R (c exp(-i E t)) with c = L^H psi0.  The spectrum may be complex, so the
    largest Im(E_n) t over the populated modes (c_n != 0) of each frame is
    factored into its log-norm, and an empty mode's exponent is capped at 0.
    Frames at zero elapsed time are psi0's amplitudes and log-norm.
    """
    dec = decompose(h)
    ts = np.asarray(times, dtype=float)
    coeff = dec.expand(psi0.amplitudes)
    growth = np.outer(ts, dec.eigenvalues.imag)
    mu = growth.max(axis=1, where=coeff != 0, initial=-np.inf)
    amps = dec.synthesize(np.exp(np.outer(ts, -1j * dec.eigenvalues.real) + np.minimum(growth - mu[:, None], 0.0)) * coeff)
    nrm = np.linalg.norm(amps, axis=1)
    amps /= nrm[:, None]
    log_norms = psi0.log_norm_offset + mu + np.log(nrm)
    amps[ts == 0], log_norms[ts == 0] = psi0.amplitudes, psi0.log_norm
    return amps, log_norms


def dense_bases(dec) -> tuple[np.ndarray, np.ndarray]:
    """Right (unit columns) and left bases, L^H R = I, of a sine decomposition or ``decompose``'s: its maps on the identity."""
    eye = np.eye(dec.dim)
    right = dec.synthesize(eye).T
    norms = np.linalg.norm(right, axis=0)
    return right / norms, dec.expand(eye).conj() * norms


def dense_bidiagonal_svd(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U, descending sigma and V of B = diag(a) + diag(b, -1), B = U diag(sigma) V^T, from one dense SVD."""
    u, sigma, vt = np.linalg.svd(np.diag(a) + np.diag(b, -1))
    return u, sigma, vt.T


def adaptive_taylor_terms(a: np.ndarray) -> int:
    """Terms an adaptive Taylor loop sums for ``a``: it stops after the first term with ||T_k||_1 <= 1e-18 ||sum||_1."""
    result = np.eye(len(a), dtype=complex)
    term = np.eye(len(a), dtype=complex)
    for k in range(1, 60):
        term = term @ a / k
        result += term
        if np.linalg.norm(term, 1) <= 1e-18 * np.linalg.norm(result, 1):
            return k
    return 59


def power_of_ten(s: int) -> tuple[float, float, float, float, int]:
    """10**s = (hi + lo) 2**q with hi + lo in [1, 2), hi split into halves hh + hl of 26 bits."""
    if s >= 0:
        q = (10 ** s).bit_length() - 1
        fixed = (10 ** s << 120) >> q
    else:
        q = -(10 ** -s).bit_length()   # 10**-s is no power of two
        fixed = (1 << (120 - q)) // 10 ** -s
    hi = float(fixed)
    lo = float(fixed - int(hi)) * 2.0 ** -120
    hi *= 2.0 ** -120
    c = _SPLIT * hi
    hh = c - (c - hi)
    return hi, hh, hi - hh, lo, q


def powers_of_ten_table() -> np.ndarray:
    """``shortest._powers_of_ten``: columns of ``power_of_ten(16 - e10)`` for e10 = 308 down to -308."""
    return np.array([power_of_ten(16 - e10) for e10 in range(308, -309, -1)]).T.copy()


def quads_table() -> np.ndarray:
    """``shortest._quads``: '0000'..'9999' as uint32 words of four ascii bytes, then '0.e-' and '+'."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    tail = np.frombuffer(b"0.e-+\0\0\0", dtype=np.uint8).reshape(2, 4)
    return np.concatenate([digits.astype(np.uint8), tail]).view(np.uint32).ravel()


def layouts_table() -> tuple[np.ndarray, np.ndarray]:
    """``shortest._layouts``, one layout at a time: source columns and length per (sign, class, count)."""
    table = np.full((2, _FIXED + 4, 18, WIDTH), _NUL, dtype=np.intp)
    lengths = np.zeros((2, _FIXED + 4, 18), dtype=np.intp)
    for cls in range(_FIXED + 4):
        for count in range(1, 18):
            digits = list(range(_DIGIT, _DIGIT + count))
            if cls < _FIXED:
                point = cls - 3
                if point <= 0:
                    body = [_ZERO, _DOT] + [_ZERO] * -point + digits
                elif point < count:
                    body = digits[:point] + [_DOT] + digits[point:]
                else:
                    body = digits + [_ZERO] * (point - count) + [_DOT, _ZERO]
            else:
                positive, three = divmod(cls - _FIXED, 2)
                body = digits[:1] + ([_DOT] + digits[1:] if count > 1 else []) + [_E]
                body += [_PLUS if positive else _MINUS] + list(range(_EXPONENT + 1 - three, _EXPONENT + 3))
            for sign, text in enumerate((body, [_MINUS] + body)):
                table[sign, cls, count, :len(text)] = text
                lengths[sign, cls, count] = len(text)
    return table.reshape(-1, WIDTH), lengths.ravel()


def script(name: str):
    """``scripts/<name>.py`` of this repository, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
