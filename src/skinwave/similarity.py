"""The diagonal similarity S of a chain, read from its three bands.

A real tridiagonal H with same-sign off-diagonals a (super) and b (sub) is
taken by the positive diagonal S = diag(1, cumprod(sqrt(b/a))) to the real
symmetric counterpart S^-1 H S (same diagonal, off-diagonals sign(a) sqrt(a b)).
S carries the skin effect and the counterpart the Hermitian spreading.  Uniform
chains give a geometric S, the boundary-restricted two-band chain a non-uniform
one; the gain/loss variants are read through their asymmetric-hop twin.
"""

from __future__ import annotations

import numpy as np

from .model import ModelSpec, axis_y_twin, build_hamiltonian


def chain_similarity(bands: dict[int, np.ndarray]):
    """``(S, diagonal, off_diagonal)`` of the symmetric counterpart, or None where H has none.

    None for dim < 2, an imaginary entry, a nonzero entry off the three bands,
    a b <= 0 anywhere, or a non-finite S.
    """
    n = len(bands.get(1, ())) + 1
    diag, sup, sub = (bands.get(k, np.zeros(n - abs(k))).real for k in (0, 1, -1))
    if n < 2 or any(np.count_nonzero(b.imag) or (abs(k) > 1 and np.count_nonzero(b)) for k, b in bands.items()):
        return None
    if np.any(sup * sub <= 0):
        return None
    s = np.concatenate([[1.0], np.cumprod(np.sqrt(sub / sup))])
    if not np.all(np.isfinite(s)):
        return None
    return s, diag, np.sign(sup) * np.sqrt(sup * sub)


def skin_factor(spec: ModelSpec) -> float | None:
    """Bulk ratio r = S[cell] / S[0] of the spec's similarity; r = 1 iff the bulk is Hermitian.

    Per site for chains, per cell for two-band chains (the intracell ratio if
    there is one cell); axis 'z' reads its axis-'y' twin.  None without a
    Hermitian counterpart: strong gamma, or a continuum grid with 2 m b dx >= 1.
    """
    h = build_hamiltonian(axis_y_twin(spec))
    sim = chain_similarity(h.bands)
    if sim is None:
        return None
    s = sim[0]
    return float(s[min(h.geometry.sites_per_cell, len(s) - 1)] / s[0])
