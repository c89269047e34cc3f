"""Diagonal similarity transforms and Hermitian counterparts.

A uniform-skin model H is conjugated to a Hermitian matrix by a positive
diagonal S whose consecutive-entry ratio is the skin factor r (per site for
chains, per cell for two-band chains).  The boundary-restricted family has no
uniform transform; it reports the bulk value r = 1 and an identity diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter
from .model import (
    BoundarySSH,
    ContinuousHN,
    DiscreteHN,
    Geometry,
    HamiltonianMatrix,
    ModelSpec,
    NonHermitianSSH,
)


@dataclass(frozen=True)
class SimilarityTransform:
    """Positive diagonal S with its per-site (or per-cell) ratio r."""

    diagonal: np.ndarray
    skin_factor: float
    family: str
    uniform: bool = True   # False: no uniform transform exists (boundary-restricted gamma)

    @property
    def dim(self) -> int:
        return len(self.diagonal)


def skin_factor(spec: ModelSpec) -> float:
    """Exponential envelope ratio r of the skin modes; r = 1 iff Hermitian.

    For ``ContinuousHN`` this is the continuum value exp(b m dx), not the
    finite-difference matrix's own hop ratio (1 - 2 m b dx)^(-1/2); their
    logarithms agree to first order in m b dx.  Once 2 m b dx >= 1 the
    forward-gradient hop changes sign and the grid has no Hermitian
    counterpart at all, while this still returns a finite r.
    """
    if isinstance(spec, ContinuousHN):
        return math.exp(spec.b * spec.m * spec.dx)
    if isinstance(spec, DiscreteHN):
        if spec.t1 <= 0 or spec.t_minus1 <= 0:
            raise InvalidParameter("skin_factor: hops must be positive")
        return math.sqrt(spec.t_minus1 / spec.t1)
    if isinstance(spec, NonHermitianSSH):
        num = abs(spec.t1 - spec.gamma / 2.0)
        den = abs(spec.t1 + spec.gamma / 2.0)
        if den == 0 or num == 0:
            raise InvalidParameter("skin_factor: |gamma/2| == |t1| is excluded")
        return math.sqrt(num / den)
    if isinstance(spec, BoundarySSH):
        return 1.0
    raise InvalidParameter(f"skin_factor: unknown spec {type(spec).__name__}")


def skin_factor_per_unit_length(spec: ModelSpec) -> float:
    """r re-expressed per unit coordinate (equals skin_factor for lattice models)."""
    r = skin_factor(spec)
    if isinstance(spec, ContinuousHN):
        return r ** (1.0 / spec.dx)
    return r


def build_similarity(spec: ModelSpec, dim: int) -> SimilarityTransform:
    """Diagonal transform matching ``build_hamiltonian(spec)``.

    Chains: diag(r, r^2, ..., r^n) with the continuum case sampled as
    exp(b m x_i); two-band chains: diag(1, r, r, r^2, r^2, ...).
    """
    r = skin_factor(spec)
    name = type(spec).__name__
    if isinstance(spec, ContinuousHN):
        expected = spec.n_sites
        diag = np.exp(spec.b * spec.m * spec.dx * np.arange(expected))
    elif isinstance(spec, DiscreteHN):
        expected = spec.n_sites
        diag = r ** np.arange(1, expected + 1)
    elif isinstance(spec, NonHermitianSSH):
        expected = 2 * spec.n_cells
        cells = np.arange(spec.n_cells)
        diag = np.empty(expected)
        diag[0::2] = r ** cells
        diag[1::2] = r ** (cells + 1)
    elif isinstance(spec, BoundarySSH):
        expected = 2 * spec.n_cells
        diag = np.ones(expected)
    else:
        raise InvalidParameter(f"build_similarity: unknown spec {type(spec).__name__}")
    if dim != expected:
        raise DimensionMismatch(f"build_similarity: dim {dim} != expected {expected}")
    if not np.all(np.isfinite(diag)) or np.any(diag <= 0):
        raise InvalidParameter("build_similarity: diagonal must be positive and finite")
    return SimilarityTransform(
        diagonal=diag,
        skin_factor=r,
        family=name,
        uniform=not isinstance(spec, BoundarySSH),
    )


def hermitian_counterpart(h: HamiltonianMatrix, s: SimilarityTransform) -> HamiltonianMatrix:
    """S^-1 H S computed band by band: Hbar_ij = H_ij * S_jj / S_ii."""
    if h.dim != s.dim:
        raise DimensionMismatch(f"hermitian_counterpart: {h.dim} vs {s.dim}")
    d = s.diagonal
    hbar = {}
    for k, band in h.bands.items():
        i = np.arange(len(band)) + max(-k, 0)
        hbar[k] = band * (d[i + k] / d[i])
    return HamiltonianMatrix(bands=hbar, geometry=h.geometry)


def hermiticity_residual(m: np.ndarray) -> float:
    """max_ij |M_ij - conj(M_ji)|."""
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("hermiticity_residual: matrix must be square")
    return float(np.max(np.abs(m - m.conj().T)))

