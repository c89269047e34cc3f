"""Reference operators, dispersions and writers that only the tests use.

Dense finite-difference stencils, the two-band Bloch block, the
periodic-boundary dispersions and a hermiticity residual: independent
statements of what the banded Hamiltonians and the closed-form velocities
in ``skinwave.model`` must agree with.  The per-cell ``repr`` writer of
density.csv states what ``skinwave.shortest`` must write byte for byte, and
``script`` imports a script under ``scripts/`` whose checks a test reuses.
"""

from __future__ import annotations

import importlib.util
import math
import operator
from pathlib import Path

import numpy as np

from skinwave.errors import DimensionMismatch, InvalidGrid, InvalidParameter
from skinwave.model import BoundarySSH, ContinuousHN, DiscreteHN, ModelSpec, NonHermitianSSH, counterpart_t1

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
    Hermitian-counterpart pair ``array([E_minus, E_plus])``.
    """
    if isinstance(spec, ContinuousHN):
        return k * k / (2.0 * spec.m) + 1j * spec.b * k + spec.e0
    if isinstance(spec, DiscreteHN):
        return spec.t1 * np.exp(1j * k) + spec.t_minus1 * np.exp(-1j * k)
    tbar = counterpart_t1(spec)
    e = _SQ((tbar + spec.t2 * math.cos(k)) ** 2 + (spec.t2 * math.sin(k)) ** 2)
    return np.array([-e, e])


def hermitian_dispersion(spec: ModelSpec, k: float, band: int = 1) -> float:
    """Real dispersion of the Hermitian counterpart; ``band`` = +1/-1 for two-band chains."""
    if isinstance(spec, ContinuousHN):
        return k * k / (2.0 * spec.m) + spec.e0
    if isinstance(spec, DiscreteHN):
        return 2.0 * _SQ(spec.t1 * spec.t_minus1) * math.cos(k)
    if band not in (1, -1):
        raise InvalidParameter("hermitian_dispersion: band must be +1 or -1")
    return float(bloch_dispersion(spec, k)[1 if band == 1 else 0])


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


def script(name: str):
    """``scripts/<name>.py`` of this repository, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
