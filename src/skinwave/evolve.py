"""Exact time evolution under non-Hermitian Hamiltonians.

Two independent routes:

* spectral: the modes of the chain's Hermitian counterpart, every frame of
  the time grid evaluated directly from the initial state in one synthesis
  (no step accumulation);
* expm: the truncated Taylor action of exp(-i H t) on the state, stepped
  over the frame grid with products on H's bands (no eigensolve, no
  similarity); one unit-time generator serves every gap, scaled by it.

``propagate`` is the one interface to both, and it takes one operator form:
a banded ``HamiltonianMatrix`` (``build_hamiltonian``), which carries the spec
it was built from, so one input picks the route.  It takes a grid of elapsed
times and yields unit-normalised amplitudes with the total log-norm per frame
(so norms of order exp(hundreds) stay representable), a block of frames at a
time (``_BLOCK_CELLS`` cells, or one frame on the expm route).  A frame at
zero elapsed time is the initial state itself.  Times whose phases E t have
lost their digits (``PHASE_LIMIT``, against the operator's Gershgorin bound
on |E|) are refused on the call, on every route.
``evolve_series`` writes the blocks' densities into one (frames x dim) float
array, so it never forms a complex (frames x dim) array.

The spectral route is the paper's factorisation H = S Hbar S^-1: an operator
whose spec has a real symmetric counterpart Hbar and positive diagonal S
(``model.counterpart``, read from its three bands) is evolved through Hbar's
modes; the route is chosen from Hbar's bands and none solves an eigenproblem
of the whole chain:

* sine: a uniform Hbar (continuum and discrete chains); its modes are the
  DST-I, so expansion and synthesis are one FFT each and only S is stored;
* chiral: a zero-diagonal Hbar (the two-band chains); the singular modes of
  its half-size intercell block give the modes at E = +-sigma, in closed form
  for a block without an edge mode that is uniform (standing waves) or made
  of two uniform segments (standing waves matched at the interface), and
  from one dense SVD otherwise (an edge mode among them).  Spectrum and
  modes are real, so its frames are formed in real arithmetic: one cos/sin
  table of sigma t for both halves +-sigma, and one real GEMM per sublattice;
* ...+rotation: the gain/loss two-band chains use their asymmetric-hop twin,
  rotating psi0 into it and the frames back cell by cell.

Every other input (a chain without a counterpart, or an operator built
without a spec) takes expm.  States are mapped through S^-1 and S, which
stays accurate far past where inverting a right-eigenvector matrix fails
(states weighted at the small-S end lose eps * S_max / S_min).  No route
forms an N x N array: only a chiral block with an edge mode or more than two
segments forms a dense half-size B (for its SVD), and the expm route keeps
its generator as bands.  ``decompose`` (eig plus a polished inverse) and
``matrix_exp`` (plain scaling and squaring) serve no route: they are the
biorthogonal and the dense references the tests check the routes against,
and both take their input through one check (``_as_matrix``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DefectiveMatrix, DimensionMismatch, InvalidParameter, NumericalOverflow
from .model import Geometry, HamiltonianMatrix, counterpart

CONDITION_LIMIT = 1e12

METHODS = ("spectral", "expm", "auto")

# frames x dim cells per block of the spectral routes: the block's complex
# temporaries (about 0.5 MB each) are all that is alive beside the densities
_BLOCK_CELLS = 32768

_EPS = np.finfo(float).eps

# eps * max|E| * t_max above this leaves the phases E t too few digits for
# the 1e-7 agreement of the routes; every preset stays 1,895x inside it
PHASE_LIMIT = 1e-8

# a two-segment chiral block whose O(n) bound on sigma_min is below _EDGE_MODE
# times max|a, b| may hold an edge mode (or a mode in the gap near sigma = 0,
# where the closed form loses precision), and takes the dense SVD; so does one
# whose relative band width per squared segment length is below _RESOLVED
_EDGE_MODE = 0.1
_RESOLVED = 1e-10

# smallest sigma_min / sigma_max at which the two-segment closed form keeps its
# modes orthogonal to roundoff; below it the block takes the dense SVD
_CONDITION = 0.05

# grid points per mode that bracket a two-segment block's modes, the most
# bisection and secant steps that then narrow and solve them, and the roundoff
# of the secant's interface cross product per unit magnitude of its two terms
_GRID_POINTS = 4
_ROOT_STEPS = 60
_NOISE = 2 * _EPS

# per-cell rotation taking the gain/loss two-band variant to the asymmetric-hop one
_U_AXIS = np.array([[1.0, -1.0j], [-1.0j, 1.0]], dtype=complex) / math.sqrt(2.0)


@dataclass(frozen=True)
class WaveState:
    """Complex amplitudes plus an accumulated log-norm offset.

    Total squared norm is ``exp(2 * log_norm_offset) * ||amplitudes||^2``.
    """

    amplitudes: np.ndarray
    log_norm_offset: float = 0.0

    @classmethod
    def from_amplitudes(cls, amps: np.ndarray) -> "WaveState":
        amps = np.asarray(amps, dtype=complex)
        nrm = float(np.linalg.norm(amps))
        if nrm == 0 or not math.isfinite(nrm):
            raise InvalidParameter("WaveState: amplitudes must be finite and nonzero")
        return cls(amplitudes=amps / nrm, log_norm_offset=math.log(nrm))

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    @property
    def log_norm(self) -> float:
        """log of the total state norm."""
        return self.log_norm_offset + math.log(float(np.linalg.norm(self.amplitudes)))


@dataclass(frozen=True)
class SpectralDecomposition:
    """``decompose``'s eigenvalues with biorthonormal right/left bases, left^H @ right == I; serves no route.

    ``expand`` maps states to mode coefficients and ``synthesize`` per-frame
    coefficients back to amplitudes, both over the last axis; ``SineModes``
    has the same two maps without a stored basis.
    """

    eigenvalues: np.ndarray
    right: np.ndarray    # columns R_n
    left: np.ndarray     # columns L_n

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def expand(self, psi: np.ndarray) -> np.ndarray:
        """Mode coefficients L^H psi of the states ``psi`` (..., dim)."""
        return psi @ self.left.conj()

    def synthesize(self, coeff: np.ndarray) -> np.ndarray:
        """Amplitudes R c of the mode coefficients ``coeff`` (..., dim)."""
        return coeff @ self.right.T


def _rotate(amps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Apply the 2x2 matrix ``u`` to every two-site cell along the last axis."""
    return (amps.reshape(amps.shape[:-1] + (-1, 2)) @ u.T).reshape(amps.shape)


def _dst1(x: np.ndarray) -> np.ndarray:
    """Orthonormal DST-I over the last axis, sqrt(2/(N+1)) sum_j x_j sin(j n pi/(N+1)); its own inverse.

    Bins 1..N of the FFT of the odd extension (0, x, 0, -reversed x) are -2i
    times the sine sums.
    """
    n = x.shape[-1]
    odd = np.zeros(x.shape[:-1] + (2 * n + 2,), dtype=x.dtype)
    odd[..., 1 : n + 1] = x
    np.negative(x[..., ::-1], out=odd[..., n + 2 :])
    return np.fft.fft(odd)[..., 1 : n + 1] * (0.5j * math.sqrt(2.0 / (n + 1)))


@dataclass(frozen=True)
class _CounterpartModes:
    """Modes of H = S Hbar S^-1 from the orthonormal modes Q of its real symmetric counterpart Hbar.

    R = S Q and L = Q / S, never stored: this class keeps the S maps between
    the chain's sites and the counterpart's, and subclasses apply Q.
    ``rotated`` (axis 'z') conjugates both maps by the per-cell rotation from
    the axis-'y' twin.
    """

    eigenvalues: np.ndarray
    s: np.ndarray
    rotated: bool

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def route(self) -> str:
        return self.name + ("+rotation" if self.rotated else "")

    def _to_counterpart(self, psi: np.ndarray) -> np.ndarray:
        """S^-1 W^H psi: the states ``psi`` on the counterpart's sites."""
        if self.rotated:
            psi = _rotate(psi, _U_AXIS.conj().T)
        return psi / self.s

    def _from_counterpart(self, x: np.ndarray) -> np.ndarray:
        """W S x: counterpart site amplitudes ``x`` back on the chain's sites (S applied in place)."""
        x *= self.s
        return _rotate(x, _U_AXIS) if self.rotated else x


@dataclass(frozen=True)
class SineModes(_CounterpartModes):
    """Route 'sine': a uniform counterpart, whose modes Q = Q^T are the orthonormal DST-I (one FFT per map)."""

    name = "sine"

    def frames(self, psi: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Unnormalised amplitudes (frames x dim) of ``psi`` at the elapsed times ``ts``: R (c exp(-i E t)), c = L^H psi."""
        return self.synthesize(np.exp(np.outer(ts, -1j * self.eigenvalues.real)) * self.expand(psi))

    def expand(self, psi: np.ndarray) -> np.ndarray:
        """Mode coefficients L^H psi = Q S^-1 W^H psi of the states ``psi`` (..., dim)."""
        return _dst1(self._to_counterpart(psi))

    def synthesize(self, coeff: np.ndarray) -> np.ndarray:
        """Amplitudes R c = W S Q c of the mode coefficients ``coeff`` (..., dim)."""
        return self._from_counterpart(_dst1(coeff))


def _stacked(z: np.ndarray) -> np.ndarray:
    """Real and imaginary parts of ``z`` stacked on a new leading axis."""
    return np.stack([z.real, z.imag])


@dataclass(frozen=True)
class ChiralModes(_CounterpartModes):
    """Route 'chiral': a zero-diagonal counterpart, [[0, B], [B^T, 0]] between even and odd sites.

    With B = U diag(sigma) V^T, the modes are (u_n, +-v_n) / sqrt(2) at
    E = +-sigma_n, and ``frames`` takes two half-size products each way.
    Every product is real: complex operands go in as their real and imaginary
    parts stacked into one operand, so U and V are never copied to complex.
    """

    u: np.ndarray
    v: np.ndarray
    path: str   # how B was decomposed: 'standing waves', 'two segments' or 'dense SVD'
    name = "chiral"

    def _sublattices(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """U^T x_A and V^T x_B of counterpart site amplitudes ``x`` (..., dim), each stacked [Re, Im]."""
        return _stacked(x[..., 0::2]) @ self.u, _stacked(x[..., 1::2]) @ self.v

    def _products(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Site amplitudes U p on the even sites and V q on the odd ones; ``p`` and ``q`` stacked [Re, Im].

        Each sublattice is one real GEMM of its [Re; Im] rows.
        """
        n = self.u.shape[0]
        amps = np.empty(p.shape[1:-1] + (2 * n,), dtype=complex)
        parts = amps.view(float).reshape(amps.shape[:-1] + (n, 2, 2))   # (..., cell, sublattice, re/im)
        for sub, coeff, basis in ((0, p, self.u), (1, q, self.v)):
            prod = (coeff.reshape(-1, n) @ basis.T).reshape(coeff.shape)
            parts[..., sub, 0], parts[..., sub, 1] = prod
        return amps

    def frames(self, psi: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """Unnormalised amplitudes (frames x dim) of ``psi`` at the elapsed times ``ts``, in real arithmetic.

        With p = U^T x_A and q = V^T x_B (x = S^-1 W^H psi), the mode pair
        +-sigma carries p cos(sigma t) - i q sin(sigma t) on the even
        sublattice and q cos(sigma t) - i p sin(sigma t) on the odd one, so one
        cos/sin table serves both halves of the spectrum.
        """
        (pr, pi), (qr, qi) = self._sublattices(self._to_counterpart(psi))
        cos = np.outer(ts, self.eigenvalues[: self.u.shape[0]].real)
        sin = np.sin(cos)
        np.cos(cos, out=cos)
        even = np.stack([pr * cos + qi * sin, pi * cos - qr * sin])
        odd = np.stack([qr * cos + pi * sin, qi * cos - pr * sin])
        del cos, sin   # not alive through the products
        return self._from_counterpart(self._products(even, odd))


@dataclass(frozen=True)
class EvolutionResult:
    """Sampled frames: per-index densities of unit-normalized states plus log norms."""

    times: np.ndarray
    site_densities: np.ndarray   # shape (frames, dim)
    log_norms: np.ndarray        # total log norm per frame
    geometry: Geometry
    route: str                   # 'sine', 'chiral' (either '+rotation') or 'expm'


def _as_matrix(h) -> np.ndarray:
    """The dense complex matrix of ``h`` (a ``HamiltonianMatrix`` or a bare matrix): non-empty, square and finite."""
    m = h.matrix if isinstance(h, HamiltonianMatrix) else np.asarray(h)
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise DimensionMismatch(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidParameter("matrix has non-finite entries")
    return m


def decompose(h) -> SpectralDecomposition:
    """Biorthogonal eigenbasis of any square matrix: eig + inversion of the right-eigenvector matrix.

    Serves no route; it is the independent reference of the tests.  One
    Newton polish of the inverse tightens biorthogonality to roundoff; raises
    DefectiveMatrix past the 1e12 condition limit, when the polish falls short
    (near-defective H) or when LAPACK fails.
    """
    m = _as_matrix(h)
    try:
        w, v = np.linalg.eig(m)
        x = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise DefectiveMatrix(f"eigendecomposition failed: {exc}") from exc
    cond = float(np.linalg.norm(v, 1) * np.linalg.norm(x, 1))
    if cond > CONDITION_LIMIT:
        raise DefectiveMatrix(
            f"right-eigenvector matrix condition {cond:.2e} exceeds {CONDITION_LIMIT:.0e}"
        )
    x = x @ (2.0 * np.eye(m.shape[0]) - v @ x)
    scale = np.einsum("ij,ji->i", x, v)
    if np.max(np.abs(scale - 1.0)) > 1e-8:
        raise DefectiveMatrix(f"left eigenvectors off biorthogonal by {np.max(np.abs(scale - 1.0)):.1e}")
    x /= scale[:, None]
    return SpectralDecomposition(eigenvalues=w, right=v, left=x.conj().T)


def _bidiagonal_svd(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """U, descending sigma, V and the path of the n x n B = diag(a) + diag(b, -1), B = U diag(sigma) V^T.

    B is diag(r) |B| diag(c) for row and column signs r, c (``_gauge``), so
    the closed forms decompose |B| and put the signs back.  A uniform |B|
    with |b| <= |a| has no edge mode and its modes are standing waves
    (``_standing_waves``).  A |B| of two uniform runs of |a| under one |b|
    takes ``_two_segments``, unless the O(n) bound of ``_edge_mode`` puts an
    edge mode in it, a segment's band is too narrow to part its modes
    (``_resolved``), or its sigma_min turns out below ``_CONDITION`` sigma_max.
    Every other B (a uniform one with |b| > |a| among them, whose edge mode has
    sigma_min ~ |a/b|^n) takes one dense SVD.
    """
    n = len(a)
    pa, pb = np.abs(a), np.abs(b)
    b0 = pb[0] if n > 1 else 0.0
    cuts = np.flatnonzero(pa[1:] != pa[:-1]) + 1
    modes = None
    if len(cuts) == 0 and np.all(pb == b0) and b0 <= pa[0]:
        modes, path = _standing_waves(pa[0], b0, n), "standing waves"
    elif len(cuts) == 1 and np.all(pb == b0) and not _edge_mode(pa, pb) and _resolved(pa[[0, -1]], b0, cuts[0], n):
        modes, path = _two_segments(pa[0], pa[-1], b0, cuts[0], n - cuts[0]), "two segments"
    if modes is None:
        u, sigma, vt = np.linalg.svd(np.diag(a) + np.diag(b, -1))
        return u, sigma, vt.T, "dense SVD"
    u, sigma, v = modes
    if np.any(a < 0) or np.any(b < 0):
        rows, cols = _gauge(a, b)
        u *= rows[:, None]
        v *= cols[:, None]
    return u, sigma, v, path


def _gauge(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and column signs r, c with B = diag(r) |B| diag(c): the running sign products along a_0, b_0, a_1, ..."""
    signs = np.ones(2 * len(a))
    signs[1::2] = np.where(a < 0, -1.0, 1.0)
    signs[2::2] = np.where(b < 0, -1.0, 1.0)
    run = np.cumprod(signs) * signs[1]
    return run[0::2], run[1::2]


def _resolved(pa: np.ndarray, pb: float, cut: int, n: int) -> bool:
    """Whether both segments' bands part their modes by more than roundoff.

    A segment of length L has sigma^2 in a band 4|ab| wide, its modes about
    4|ab| / L^2 apart; a narrow band (|b| << |a|: nearly decoupled cells) or a
    long segment puts them closer than the closed form resolves, so the
    relative width 4r / (1 + r)^2 (r = |b/a|) must reach ``_RESOLVED`` (L + 1)^2.
    """
    r = pb / pa
    lengths = np.array([cut, n - cut])
    return bool(np.all(4.0 * r / (1.0 + r) ** 2 >= _RESOLVED * (lengths + 1.0) ** 2))


def _edge_mode(pa: np.ndarray, pb: np.ndarray) -> bool:
    """Whether |B| may hold an edge mode: an O(n) bound on its sigma_min below ``_EDGE_MODE`` max|a, b|.

    x_0 = 1, x_(i+1) = -a_i x_i / b_i is the near-null vector of B^T, and each
    truncation x_0 .. x_i of it bounds sigma_min <= |a_i x_i| / max_(j<=i) |x_j|.
    The bound is taken in logs, so no x overflows; a zero a or b counts as an
    edge mode.
    """
    if not (np.all(pa > 0) and np.all(pb > 0)):
        return True
    logs = np.concatenate([[0.0], np.cumsum(np.log(pa[:-1]) - np.log(pb))])
    bound = np.min(np.log(pa) + logs - np.maximum.accumulate(logs))
    return not bound >= math.log(_EDGE_MODE * max(pa.max(), pb.max()))


def _standing_waves(pa: float, pb: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U, descending sigma and V of the uniform |B| with |b| <= |a|, in closed form.

    k_m = m pi/(n+1) + delta_m, with delta_m in (0, m pi/(n(n+1))) bisected
    from |a| sin((n+1) delta) = |b| sin(m pi/(n+1) - n delta);
    sigma_m^2 = a^2 + b^2 + 2|ab| cos k_m; u_c ~ sin(k_m (n-c)) / sin k_m,
    the rows of ``_sine_rows`` (phases reduced exactly, as in ``_waves``); v
    is u reversed (B^T is B reversed) with the sign (-1)^(m+1) that gives
    B v = sigma u.
    """
    m = np.arange(1, n + 1)
    step = math.pi / (n + 1)
    lo, hi = np.zeros(n), m * (step / n)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = pa * np.sin((n + 1) * mid) < pb * np.sin(m * step - n * mid)
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    delta = 0.5 * (lo + hi)
    # (|a| - |b|)^2 + 4|ab| cos^2(k/2), free of the cancellation near k = pi
    sigma = np.sqrt((pa - pb) ** 2 + 4.0 * pa * pb * np.sin(0.5 * ((n + 1 - m) * step - delta)) ** 2)
    u = np.empty((n, n))
    _sine_rows(m, n + 1, delta, n, n, n, -1, u)
    u /= np.linalg.norm(u, axis=0)
    v = u[::-1] * (-1.0) ** (m + 1)
    return u, sigma, v


def _wave(q: np.ndarray, big: np.ndarray, d: np.ndarray):
    """x = q pi/big + d, x - pi and kappa (-x below 0, x - pi past pi, 0 between); x - pi exact in its multiple of pi.

    x codes the wave number k of a standing wave: k = x in the band [0, pi],
    i kappa above it (sigma past a + b) and pi + i kappa below it.
    """
    unit = math.pi / big
    x = q * unit + d
    past = (q - big) * unit + d
    return x, past, np.where(x < 0, -x, np.maximum(past, 0.0))


def _halves(x: np.ndarray, past: np.ndarray, kappa: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin^2(k/2) and cos^2(k/2) of the coded wave numbers, each free of cancellation at its own band edge."""
    sh = np.sinh(0.5 * kappa) ** 2
    band = kappa == 0
    s = np.where(band, np.sin(0.5 * x) ** 2, np.where(x < 0, -sh, 1.0 + sh))
    c = np.where(band, np.sin(0.5 * past) ** 2, np.where(x < 0, 1.0 + sh, -sh))
    return s, c


def _derived(s, c, ap, ad, b) -> tuple[np.ndarray, np.ndarray]:
    """sin^2 and cos^2 of the other segment's half wave number at the same sigma, by the plain exact difference.

    sigma^2 = (a + b)^2 - 4ab sin^2(k/2) = (a - b)^2 + 4ab cos^2(k/2) in both
    segments.  The sums cancel near the other segment's band edges, so this
    form only brackets; ``_gap`` gives the precise one.
    """
    scale = 4.0 * ad * b
    return ((ad - ap) * (ad + ap + 2.0 * b) + 4.0 * ap * b * s) / scale, ((ap - ad) * (ap + ad - 2.0 * b) + 4.0 * ap * b * c) / scale


def _code(s, c) -> tuple[np.ndarray, np.ndarray]:
    """Code (q, d; big = 1) of the wave number whose sin^2(k/2) is s and cos^2(k/2) is c; k past pi/2 is coded from pi."""
    kappa = 2.0 * np.arcsinh(np.sqrt(np.maximum(-np.minimum(s, c), 0.0)))
    root_s, root_c = np.sqrt(np.maximum(s, 0.0)), np.sqrt(np.maximum(c, 0.0))
    upper = c < s
    band = np.where(upper, -2.0 * np.arctan2(root_c, root_s), 2.0 * np.arctan2(root_s, root_c))
    return upper.astype(np.int64), np.where(s < 0, -kappa, np.where(c < 0, kappa, band))


def _gap(q, big, d, edge: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """sin^2(x/2) - sin^2(x0/2) of the coded x = q pi/big + d and x0 = edge[0] pi/big + edge[1], free of cancellation.

    x - x0 = (q - edge[0]) pi/big + (d - edge[1]) loses nothing to roundoff
    while d and edge[1] are small.  In one regime the difference of squares is
    a product: sin((x - x0)/2) sin((x + x0)/2) in the lower half of the band,
    minus the same with x - pi and x0 - pi in the upper half, and the like with
    sinh past the band.  Across regimes sin^2 (or, across pi, cos^2) has
    opposite signs at x and x0, and is subtracted as it is.
    """
    x, past, kappa = _wave(q, big, d)
    x0, past0, kappa0 = _wave(edge[0], big, edge[1])
    half = 0.5 * ((q - edge[0]) * (math.pi / big) + (d - edge[1]))
    below, below0 = (kappa > 0) & (x > 0), (kappa0 > 0) & (x0 > 0)
    above, above0 = x < 0, x0 < 0
    upper = 0.5 * (past + past0)   # (x + x0)/2 - pi
    product = np.where(
        kappa == 0,
        np.sin(half) * np.where(upper < -0.5 * math.pi, np.sin(0.5 * (x + x0)), -np.sin(upper)),
        np.sinh(half) * np.where(above, -np.sinh(0.5 * (x + x0)), np.sinh(upper)),
    )
    (s, c), (s0, c0) = _halves(x, past, kappa), _halves(x0, past0, kappa0)
    across = np.where(below | below0, c0 - c, s - s0)
    return np.where((below == below0) & (above == above0), product, across)


def _waves(q, big, d, j, offset) -> tuple[np.ndarray, np.ndarray]:
    """(sin kj / sin k, cos kj) of the coded wave numbers at the integer rows ``j`` (rows x modes).

    Band phases are reduced exactly: ((q j) mod 2 big) pi/big + d j.  Past the
    band edges both stay real: (sinh, cosh)(kappa j) / (sinh kappa, 1) above
    the band and the same times (-(-1)^j, (-1)^j) below it, each times
    exp(-kappa offset) so that no row of a segment of length ``offset`` overflows.
    """
    x, _, kappa = _wave(q, big, d)
    j = j[:, None] if j.ndim == 1 else j
    unit = math.pi / big
    phase = j * q % (2 * big) * unit + j * d
    sin_k = np.sin(q % (2 * big) * unit + d)
    with np.errstate(divide="ignore", invalid="ignore"):
        s, c = np.sin(phase) / sin_k, np.cos(phase)
    if np.any(sin_k == 0):
        s = np.where(sin_k == 0, j, s)
    ev = kappa > 0
    if np.any(ev):   # the evanescent columns only
        j, kappa, past_pi = (j if j.shape[1] == 1 else j[:, ev]), kappa[ev], x[ev] > 0
        offset = offset[ev] if np.ndim(offset) else offset
        grow, decay = np.exp((j - offset) * kappa), np.exp((-j - offset) * kappa)
        odd = np.where(past_pi, 1.0 - 2.0 * (j % 2), 1.0)
        s[:, ev] = 0.5 * (grow - decay) * np.where(past_pi, -odd, odd) / np.sinh(kappa)
        c[:, ev] = 0.5 * (grow + decay) * odd
    return s, c


def _sine_rows(q, big, d, length: int, first: int, count: int, sign: int, out: np.ndarray) -> None:
    """Write S(first + sign r) = sin(k (first + sign r)) / sin k, r = 0 .. count-1, into the rows of ``out``.

    Band columns come by angle addition over sqrt(count)-row blocks,
    S(J + sign i) = S(J) cos ki + sign cos kJ S(i), so only 2 sqrt(count) rows
    take a sine; evanescent columns (scaled as in ``_waves``) are written
    directly over them.
    """
    step = max(1, math.isqrt(count))
    with np.errstate(over="ignore", invalid="ignore"):   # evanescent columns may overflow here
        head, head_cos = _waves(q, big, d, first + sign * np.arange(0, count, step), length)
        tail, tail_cos = _waves(q, big, d, np.arange(step), 0)
        tail *= sign
        for block, row in enumerate(range(0, count, step)):
            rows = slice(row, min(row + step, count))
            width = rows.stop - row
            np.multiply(tail_cos[:width], head[block], out=out[rows])
            out[rows] += head_cos[block] * tail[:width]
    ev = _wave(q, big, d)[2] > 0
    if np.any(ev):
        out[:, ev] = _waves(q[ev], big[ev], d[ev], first + sign * np.arange(count), length)[0]


def _lift(x, kappa, sigma, a, b, length) -> tuple[np.ndarray, np.ndarray]:
    """Lifted angle of a segment's interface pair (a S(L+1) + b S(L), sigma S(L)): its multiple of pi and the rest.

    S(j) = sin kj is the segment's standing wave from its outer end, of
    length L.  The angle turns by pi per half wave: in the band it is
    floor(kL/pi) pi plus the angle of the reduced phase r = kL mod pi; above
    the band it stays below pi/2 and below the band it lies within
    ((L-1) pi, L pi).  Plain float phases: it labels and brackets the modes,
    no more.
    """
    t = np.tanh(kappa * length)
    grow = a * (t * np.cosh(kappa) + np.sinh(kappa))
    k = np.clip(x, 0.0, math.pi)
    theta = k * length
    turns = np.floor(theta / math.pi)
    r = theta - turns * math.pi
    band = kappa == 0
    angle = np.where(
        band,
        np.arctan2(sigma * np.sin(r), a * np.sin(r + k) + b * np.sin(r)),
        np.arctan2(sigma * t, np.where(x < 0, grow + b * t, b * t - grow)),
    )
    return np.where(band, turns, np.where(x < 0, 0, length - 1)), angle


def _two_segments(a1: float, a2: float, b: float, n1: int, n2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """U, descending sigma and V of |B| with a = a1 on rows [0, n1) and a2 on [n1, n), b throughout; None below ``_CONDITION``.

    In each segment a mode is a standing wave S(j) = sin(kj) / sin k with
    sigma^2 = (a + b)^2 - 4ab sin^2(k/2): v_c = S(c+1) from the top (v_(-1) = 0)
    in segment 1 and u_c = S(n-c) from the bottom (u_n = 0) in segment 2, each
    with its other sublattice (a S(j) + b S(j-1)) / sigma; past a segment's band
    edges S continues as sinh or (-1)^j sinh.  The segments meet on the b bond
    at the interface, where their (v_(n1-1), u_(n1)) must be parallel
    (Kunst & Dwivedi, PRB 99, 245116, 2019).  Mode m is where the segments'
    lifted interface angles (``_lift``) sum to (m - 1/2) pi, a sum monotone in
    sigma, so a grid in segment 1's wave number and a few bisections give
    every mode a bracket of its own.  Secant steps then zero the interface
    cross product, which is smooth, in the wave number of one segment (the
    primary: the one from which the other loses the least phase), its phases
    reduced exactly as in ``_standing_waves``.  The other's half-angle squares
    follow from the exact difference of the two segments' band edges, measured
    by ``_gap`` from its band edge nearer the mode, so they keep their
    relative precision.  Each segment's sin table is filled once
    (``_sine_rows``).
    """
    # a power of two scales |B| to max|a, b| in [1/2, 1), exactly, so no square overflows
    unit = 2.0 ** math.frexp(max(a1, a2, b))[1]
    a1, a2, b = a1 / unit, a2 / unit, b / unit
    n = n1 + n2
    m = np.arange(1, n + 1)
    ones, zeros = np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)

    def excess(x):
        """Lifted sum of interface angles minus (m - 1/2) pi, whole pis and the rest, at segment 1's wave number x."""
        _, past, kappa = _wave(np.zeros(len(x), dtype=np.int64), 1, x)
        s, c = _halves(x, past, kappa)
        sigma = np.sqrt(np.maximum((a1 - b) ** 2 + 4.0 * a1 * b * c, 0.0))
        q2, d2 = _code(*_derived(s, c, a1, a2, b))
        x2, _, kappa2 = _wave(q2, 1, d2)
        turns1, angle1 = _lift(x, kappa, sigma, a1, b, n1)
        turns2, angle2 = _lift(x2, kappa2, sigma, a2, b, n2)
        return turns1 + turns2, angle1 + angle2 + 0.5 * math.pi

    x_lo = -2.0 * math.asinh(math.sqrt(max(a2 - a1, 0.0) * (a2 + a1 + 2.0 * b) / (4.0 * a1 * b)))
    x_hi = math.pi + 2.0 * math.asinh(abs(a1 - b) / (2.0 * math.sqrt(a1 * b)))
    grid = np.linspace(x_lo, x_hi, _GRID_POINTS * n + 1)
    turns, rest = excess(grid)
    at = np.clip(np.searchsorted(turns * math.pi + rest, m * math.pi), 1, len(grid) - 1)
    lo, hi = grid[at - 1], grid[at]
    g_lo, g_hi = (turns[at - 1] - m) * math.pi + rest[at - 1], (turns[at] - m) * math.pi + rest[at]
    for _ in range(_ROOT_STEPS):
        k = np.flatnonzero(g_hi - g_lo > 0.25 * math.pi)   # brackets still wider than a quarter turn
        if not len(k):
            break
        mid = 0.5 * (lo[k] + hi[k])
        turns, rest = excess(mid)
        g = (turns - m[k]) * math.pi + rest
        below = g < 0
        lo[k], g_lo[k] = np.where(below, mid, lo[k]), np.where(below, g, g_lo[k])
        hi[k], g_hi[k] = np.where(below, hi[k], mid), np.where(below, g_hi[k], g)

    # the primary segment: the one whose partner's wave number, derived from it, loses less phase
    _, past, kappa = _wave(zeros, 1, 0.5 * (lo + hi))
    s1, c1 = _halves(0.5 * (lo + hi), past, kappa)
    s2, c2 = _derived(s1, c1, a1, a2, b)
    spread = abs(a1 - a2) * (a1 + a2 + 2.0 * b) / (4.0 * b)
    with np.errstate(divide="ignore"):
        strain2 = n2 * (1.0 + spread / a2 / np.sqrt(np.abs(s2)) / np.sqrt(np.abs(c2)))
        strain1 = n1 * (1.0 + spread / a1 / np.sqrt(np.abs(s1)) / np.sqrt(np.abs(c1)))
    first = strain2 <= strain1

    def primary(x):
        """Wave number of the primary segment at segment 1's wave number x (plain float)."""
        _, past, kappa = _wave(zeros, 1, x)
        q2, d2 = _code(*_derived(*_halves(x, past, kappa), a1, a2, b))
        return np.where(first, x, q2 * math.pi + d2)

    ap, ad = np.where(first, a1, a2), np.where(first, a2, a1)
    lp, ld = np.where(first, n1, n2), np.where(first, n2, n1)
    big = lp + 1
    w_lo, w_hi = primary(lo), primary(hi)
    q = np.floor(0.5 * (w_lo + w_hi) * big / math.pi).astype(np.int64)
    d_lo, d_hi = w_lo - q * (math.pi / big), w_hi - q * (math.pi / big)
    rows = np.array([[0], [1]])   # the interface rows L and L + 1 of each segment
    # the other segment's band edge nearer each mode (sigma = a + b on top, |a - b| below), as a
    # coded wave number of the primary one, from which the other's half-angle square is measured
    s_mid, c_mid = _derived(*_halves(*_wave(q, big, 0.5 * (d_lo + d_hi))), ap, ad, b)
    near_top = s_mid < c_mid
    s_edge = np.where(near_top, (ap - ad) * (ap + ad + 2.0 * b), (ap - ad + 2.0 * b) * (ap + ad)) / (4.0 * ap * b)
    q_pi, d_pi = _code(s_edge, 1.0 - s_edge)
    q_edge = np.round((q_pi * math.pi + d_pi) * big / math.pi).astype(np.int64)
    near = q_edge, (q_pi * big - q_edge) * (math.pi / big) + d_pi

    def other(d, k=slice(None)):
        """sin^2 and cos^2 of the other segment's half wave number at the primary's coded q pi/big + d, modes k."""
        gap = ap[k] / ad[k] * _gap(q[k], big[k], d, (near[0][k], near[1][k]))
        return np.where(near_top[k], gap, 1.0 + gap), np.where(near_top[k], 1.0 - gap, -gap)

    def cross(d, k=slice(None)):
        """sigma^2 times the cross product of the two segments' interface pairs (zero at a mode, smooth in d), modes k."""
        a_p, a_d, l_p, l_d = ap[k], ad[k], lp[k], ld[k]
        s, c = _halves(*_wave(q[k], big[k], d))
        qd, dd = _code(*other(d, k))
        sp, _ = _waves(q[k], big[k], d, rows + l_p, l_p)
        so, _ = _waves(qd, np.ones_like(qd), dd, rows + l_d, l_d)
        sigma2 = (a_p - b) ** 2 + 4.0 * a_p * b * c
        one, two = sigma2 * sp[0] * so[0], (a_p * sp[1] + b * sp[0]) * (a_d * so[1] + b * so[0])
        return one - two, _NOISE * (np.abs(one) + np.abs(two))

    (f_lo, _), (f_hi, _) = cross(d_lo), cross(d_hi)
    # secant steps from the bracket ends, bisection where a step leaves the
    # bracket, until the cross product is down to its roundoff or a step moves
    # d by no more than a few roundoffs of its phase; only unsettled modes are
    # evaluated again
    tol = 4.0 * _EPS * (math.pi / big)
    d_old, f_old, d, f = d_lo.copy(), f_lo.copy(), d_hi.copy(), f_hi.copy()
    k = np.arange(n)
    for _ in range(_ROOT_STEPS):
        with np.errstate(divide="ignore", invalid="ignore"):
            new = d[k] - f[k] * (d[k] - d_old[k]) / (f[k] - f_old[k])
        new = np.where((new > d_lo[k]) & (new < d_hi[k]), new, 0.5 * (d_lo[k] + d_hi[k]))
        moving = np.abs(new - d[k]) > tol[k]
        k, new = k[moving], new[moving]
        if not len(k):
            break
        d_old[k], f_old[k], d[k] = d[k], f[k], new
        f[k], noise = cross(new, k)
        low = (f[k] < 0) == (f_lo[k] < 0)
        d_lo[k], f_lo[k] = np.where(low, new, d_lo[k]), np.where(low, f[k], f_lo[k])
        d_hi[k], f_hi[k] = np.where(low, d_hi[k], new), np.where(low, f_hi[k], f[k])
        k = k[np.abs(f[k]) > noise]

    x, past, kappa = _wave(q, big, d)
    s, c = _halves(x, past, kappa)
    sigma = np.sqrt((ap - b) ** 2 + 4.0 * ap * b * c)
    if not sigma.min() >= _CONDITION * sigma.max():   # modes near sigma = 0 would lose orthogonality
        return None
    qd, dd = _code(*other(d))
    seg1 = np.where(first, q, qd), np.where(first, big, ones), np.where(first, d, dd)
    seg2 = np.where(first, qd, q), np.where(first, ones, big), np.where(first, dd, d)
    u, v = np.empty((n, n)), np.empty((n, n))
    # segment 1 from the top: v_c = S(c+1) and u_c = (a1 S(c+1) + b S(c)) / a1; v row n1 holds S(n1+1) for now
    _sine_rows(*seg1, n1, 1, n1 + 1, 1, v[: n1 + 1])
    upper = (sigma * v[n1 - 1], a1 * v[n1] + b * v[n1 - 1])
    u[0] = v[0]
    np.multiply(v[: n1 - 1], b / a1, out=u[1:n1])
    u[1:n1] += v[1:n1]
    # segment 2 from the bottom: u_c = S(n-c) and v_c = (a2 S(n-c) + b S(n-c-1)) / a2
    _sine_rows(*seg2, n2, n2, n2, -1, u[n1:])
    past = _waves(*seg2, np.array([n2 + 1]), n2)[0][0]
    lower = (a2 * past + b * u[n1], sigma * u[n1])
    v[n - 1] = u[n - 1]
    np.multiply(u[n1 + 1 :], b / a2, out=v[n1 : n - 1])
    v[n1 : n - 1] += u[n1 : n - 1]
    # segment 2's scale: (v, u) on the b bond at the interface, each times sigma, parallel in both
    scale = (upper[0] * lower[0] + upper[1] * lower[1]) / (lower[0] ** 2 + lower[1] ** 2)
    u[n1:] *= scale * sigma / a1
    v[n1:] *= scale * a2 / sigma
    u /= np.sqrt(np.einsum("ij,ij->j", u, u))
    v /= np.sqrt(np.einsum("ij,ij->j", v, v))
    return u, sigma * unit, v


def decompose_model(h: HamiltonianMatrix) -> SineModes | ChiralModes | None:
    """Counterpart route of the operator's spec, chosen from its ``counterpart``; None without one, or without a spec.

    A uniform counterpart d + c (shift + shift^T) takes 'sine', E_n = d + 2 c
    cos(n pi / (N+1)); every other one is a zero-diagonal two-band chain and
    takes 'chiral', the singular modes of the half-size B (``_bidiagonal_svd``).
    A gain/loss two-band chain's modes are those of its asymmetric-hop twin,
    rotated back cell by cell.  No eigensolve of the whole chain.
    """
    if h.spec is None or (sim := counterpart(h.spec)) is None:
        return None
    s, diag, off = sim
    if s.min() < np.finfo(float).tiny:
        raise NumericalOverflow("similarity S underflows: S^-1 is not representable")
    n, rotated = len(s), getattr(h.spec, "axis", "y") == "z"
    if np.all(diag == diag[0]) and np.all(off == off[0]):
        energies = diag[0] + 2.0 * off[0] * np.cos(np.arange(1, n + 1) * (math.pi / (n + 1)))
        return SineModes(energies.astype(complex), s, rotated)
    u, sigma, v, path = _bidiagonal_svd(off[0::2], off[1::2])
    return ChiralModes(np.concatenate([sigma, -sigma]).astype(complex), s, rotated, u, v, path)


# largest Taylor degree of an expm step, Al-Mohy and Higham's m_max: a higher
# degree sums larger terms of exp(A / s) psi that cancel
_MAX_DEGREE = 55


def _taylor_degree(x: float) -> int:
    """Taylor terms for a scaled norm ``x``: the smallest m with x^m / m! <= 1e-18 e^-x.

    ||exp(a)|| >= e^-||a||, so the last term left out is below 1e-18 of the
    result, the threshold an adaptive stopping test would apply term by term.
    """
    bound, last, m = 1e-18 * math.exp(-x), x, 1
    while last > bound:
        m += 1
        last *= x / m
    return m


def matrix_exp(m) -> np.ndarray:
    """exp(m) of a square matrix by scaling and squaring with a machine-precision Taylor core; ``m`` is only read.

    With a = m / 2^s of 1-norm at most 0.25, the Taylor polynomial of
    ``_taylor_degree`` terms is evaluated by Horner, r <- I + (a r) / k for
    k = degree, ..., 1 from r = I, and r is squared s times.  Serves no
    route: it is the dense exponential the tests check the routes against.
    """
    m = _as_matrix(m)
    with np.errstate(over="ignore"):   # a column sum past the float range is refused below
        norm1 = float(np.linalg.norm(m, 1))
    if not math.isfinite(norm1 / 0.25):
        raise NumericalOverflow(f"matrix_exp: input 1-norm {norm1:.3g} past the float range")
    squarings = max(0, int(math.ceil(math.log2(norm1 / 0.25)))) if norm1 > 0.25 else 0
    a = m * math.ldexp(1.0, -squarings)   # the bits of m / 2^s, where 2.0 ** s overflows at s = 1024
    degree = _taylor_degree(math.ldexp(norm1, -squarings))
    diagonal = slice(None, None, len(m) + 1)
    result = a / degree
    result.flat[diagonal] += 1.0
    for k in range(degree - 1, 0, -1):
        result = a @ result
        result /= k
        result.flat[diagonal] += 1.0
    # entries below sqrt(tiny) are zeroed before each squaring, so two kept
    # entries multiply to at least tiny: no product is (slow) subnormal
    floor = math.sqrt(np.finfo(float).tiny)
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow ends in the NumericalOverflow below
        for _ in range(squarings):
            result[np.abs(result) < floor] = 0.0
            result = result @ result
    if not np.all(np.isfinite(result)):
        raise NumericalOverflow("matrix_exp: overflow during squaring")
    return result


def _check_times(times, psi0: WaveState, dim: int) -> np.ndarray:
    """The elapsed-time grid as an array, checked against the state (its dim, and a finite nonzero norm)."""
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or len(ts) == 0:
        raise InvalidParameter("times: need a non-empty 1-d time list")
    if not np.all(np.isfinite(ts)):
        raise InvalidParameter("times must be finite")
    if np.any(np.diff(ts) < 0):
        raise InvalidParameter("times must be ascending")
    if psi0.dim != dim:
        raise DimensionMismatch(f"frame 0 (t={ts[0]}): state dim {psi0.dim} != operator dim {dim}")
    if not (0 < np.linalg.norm(psi0.amplitudes) < np.inf and np.isfinite(psi0.log_norm_offset)):
        raise InvalidParameter("WaveState: amplitudes must be finite and nonzero")
    return ts


def _check_phase_resolution(h: HamiltonianMatrix, t_max: float) -> None:
    """Refuse elapsed times up to ``t_max`` whose phases E t lose their digits, before anything is decomposed or stepped.

    |E| is bounded by the largest Gershgorin row sum of |H|, ``energy_bound``.
    """
    bound = h.energy_bound
    phase = float(np.finfo(float).eps) * bound * t_max   # a Python float overflows to inf silently
    if phase > PHASE_LIMIT:
        raise InvalidParameter(
            f"times.t_max: {t_max:g} with |E| <= {bound:.6g} (Gershgorin) gives "
            f"eps |E| t_max = {phase:.3g} > {PHASE_LIMIT:g}: the phases E t have lost their digits"
        )


def _normalise(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalise the last axis in place; returns the scaled amplitudes and log of the norms."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):   # a degenerate frame ends in _check_frames
        nrm = np.linalg.norm(amps, axis=-1, keepdims=True)
        amps /= nrm
        return amps, np.log(nrm[..., 0])


def _check_frames(log_norms: np.ndarray, ts: np.ndarray, first: int) -> np.ndarray:
    """Pass the log-norms of grid frames ``first``, ``first + 1``, ... through; name the first degenerate one."""
    bad = ~np.isfinite(log_norms)
    if np.any(bad):
        k = first + int(np.argmax(bad))
        raise NumericalOverflow(f"frame {k} (t={ts[k]}): state norm degenerate")
    return log_norms


def _spectral_frames(dec: SineModes | ChiralModes, psi0: WaveState, ts: np.ndarray):
    """Unit-normalised amplitudes (frames x dim) of psi0 at the checked times ``ts``, and their unchecked log-norms.

    The counterpart's spectrum is real, so the frames' phases never grow and
    the norm's growth is all in S.  Frames at zero elapsed time are psi0's
    amplitudes and log-norm unchanged.
    """
    amps, log_nrm = _normalise(dec.frames(psi0.amplitudes, ts))
    log_norms = psi0.log_norm_offset + log_nrm
    at_start = ts == 0
    amps[at_start] = psi0.amplitudes
    log_norms[at_start] = psi0.log_norm
    return amps, log_norms


def _generator(h: HamiltonianMatrix):
    """The unit-time generator A = -i H - shift as its product v -> A v, its 1-norm and its shift.

    The shift is the mean real diagonal of -i H, so exp(-i H gap) =
    e^(shift gap) exp(A gap) for every gap, and A gap has 1-norm |gap| times
    A's.  A is kept as H's bands (offset -> array), and its product is one
    pass over them, as ``energy_bound`` loops.  The 1-norm (largest column
    sum of |A|) is read from the bands in O(N).
    """
    diagonal = h.bands.get(0, np.zeros(h.dim)) * -1j
    shift = float(np.mean(diagonal.real))
    diagonal -= shift
    # each off-diagonal band of A with the rows it writes and the entries of v it reads
    hops = [
        (band * -1j, slice(max(-k, 0), max(-k, 0) + len(band)), slice(max(k, 0), max(k, 0) + len(band)))
        for k, band in h.bands.items()
        if k != 0 and len(band)
    ]
    columns = np.abs(diagonal)
    for band, _, reads in hops:
        columns[reads] += np.abs(band)

    def product(v: np.ndarray) -> np.ndarray:
        out = diagonal * v
        for band, rows, reads in hops:
            out[rows] += band * v[reads]
        return out

    return product, float(columns.max()), shift


def _fewest_steps(norm1: float, degree: int, s: int) -> int:
    """The fewest steps from ``s`` on whose Taylor degree ``_taylor_degree(norm1 / steps)`` is at most ``degree``.

    The degree never rises with the step count, so the count is bracketed by
    doubling and then bisected.
    """
    lo, hi = s, s
    while _taylor_degree(norm1 / hi) > degree:
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if _taylor_degree(norm1 / mid) > degree else (lo, mid)
    return hi


@functools.cache
def _steps(norm1: float) -> tuple[int, int]:
    """Steps s and Taylor degree m = ``_taylor_degree(norm1 / s)`` <= ``_MAX_DEGREE`` with the fewest products s m.

    m never rises with s, so only the fewest steps of each degree can cost
    least, and no s at or past the best s m can (every degree is at least 1).
    The search starts at s = norm1 / 55: a degree m needs x = norm1 / s < m,
    since every term x^k / k! with k <= x is at least 1.  Memoised, so a
    grid runs it once per distinct float gap (a handful on a uniform grid).
    """
    if not math.isfinite(norm1):
        raise NumericalOverflow("expm: generator norm not finite")
    s = _fewest_steps(norm1, _MAX_DEGREE, max(1, math.ceil(norm1 / _MAX_DEGREE)))
    m = _taylor_degree(norm1 / s)
    best = (s, m)
    while m > 1 and s < best[0] * best[1]:
        s = _fewest_steps(norm1, m - 1, s + 1)
        m = _taylor_degree(norm1 / s)
        best = min(best, (s, m), key=math.prod)
    return best


def _unit(amps: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit-normalise ``amps`` in place, scaled by its largest |amplitude| first; returns it and the log of its norm.

    The scaling keeps the squares in the norm from underflowing; a zero or
    non-finite state gives a non-finite log.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        top = np.abs(amps).max()
        amps /= top
        nrm = np.linalg.norm(amps)
        amps /= nrm
        return amps, float(np.log(top) + np.log(nrm))


def _expm_frames(h: HamiltonianMatrix, psi0: WaveState, ts: np.ndarray):
    """Yield psi0 stepped to each of the checked times ``ts``: its unit amplitudes and its unchecked log-norm.

    Each gap exp(-i H gap) psi = e^(shift gap) exp(A gap) psi, with the one
    unit-time generator A of ``_generator``, is taken as s steps of the
    truncated Taylor action psi <- sum_{k <= m} (A gap / s)^k psi / k!
    (Al-Mohy and Higham, SIAM J. Sci. Comput. 33 (2011) 488-511), with the s
    and m of ``_steps`` at A gap's 1-norm; every step is unit-normalised into
    the log-norm, so amplifying spectra overflow neither the state nor the
    exponential.  Only length-N vectors are formed beside the generator's
    bands: no N x N array.
    """
    product, norm1, shift = _generator(h)
    state, log_norm, prev_t = psi0.amplitudes, psi0.log_norm_offset, 0.0
    for t in ts:
        gap = t - prev_t
        if gap != 0.0:
            steps, degree = _steps(norm1 * abs(gap))
            log_norm += shift * gap
            for _ in range(steps):
                term, state = state, state.copy()
                for k in range(1, degree + 1):
                    term = product(term)
                    term *= gap / (steps * k)
                    state += term
                state, log_nrm = _unit(state)
                log_norm += log_nrm
        yield (psi0.amplitudes, psi0.log_norm) if t == 0 else (state, log_norm)
        prev_t = t


def propagate(h: HamiltonianMatrix, psi0: WaveState, times, method: str = "auto"):
    """Evolve psi0 under the banded ``h`` to every elapsed time in ``times``; returns (route, blocks).

    ``h`` is a ``HamiltonianMatrix`` (``build_hamiltonian``); any other
    operator is refused with InvalidParameter.  The operator, the method, the
    times and ``decompose_model`` run on the call: an operator whose spec
    (``h.spec``) has a counterpart route takes it under 'auto', and every other
    one (an operator without a spec among them) takes 'expm' ('spectral'
    refuses it).  Times whose phases E t have lost their digits
    (``PHASE_LIMIT``) are refused with InvalidParameter.  ``blocks`` yields
    (grid index of the first frame, unit-normalised amplitudes (frames x dim),
    total log-norms): ``_BLOCK_CELLS`` cells per block on a counterpart route
    (psi0 expanded again for each), one frame per block on 'expm'.  A
    degenerate norm raises NumericalOverflow naming its frame on the grid.
    """
    if not isinstance(h, HamiltonianMatrix):
        raise InvalidParameter(f"propagate: the operator must be a HamiltonianMatrix, got {type(h).__name__}")
    if method not in METHODS:
        raise InvalidParameter(f"propagate: unknown method {method!r}")
    ts = _check_times(times, psi0, h.dim)
    _check_phase_resolution(h, float(np.max(np.abs(ts))))
    dec = None if method == "expm" else decompose_model(h)
    if dec is None and method == "spectral":
        what = "an operator without a spec" if h.spec is None else type(h.spec).__name__
        raise InvalidParameter(f"method 'spectral': {what} has no Hermitian counterpart route; use 'auto' or 'expm'")
    if dec is None:
        frames = ((k, state[None], np.array([ln])) for k, (state, ln) in enumerate(_expm_frames(h, psi0, ts)))
    else:
        step = max(1, _BLOCK_CELLS // h.dim)
        frames = ((a, *_spectral_frames(dec, psi0, ts[a : a + step])) for a in range(0, len(ts), step))
    route = "expm" if dec is None else dec.route
    return route, ((a, amps, _check_frames(log_norms, ts, a)) for a, amps, log_norms in frames)


def evolve_series(h: HamiltonianMatrix, psi0: WaveState, times, method: str = "auto") -> EvolutionResult:
    """Sample the evolution on a grid of elapsed times: the densities of ``propagate``'s blocks.

    Each block's |amplitude|^2 is written into one preallocated (frames x dim)
    float array and its log-norms into one vector, so the densities are the
    run's only frames x dim array.
    """
    route, blocks = propagate(h, psi0, times, method)
    ts = np.asarray(times, dtype=float)
    densities = np.empty((len(ts), h.dim))
    log_norms = np.empty(len(ts))
    for a, amps, block_log_norms in blocks:
        np.abs(amps, out=densities[a : a + len(amps)])
        log_norms[a : a + len(amps)] = block_log_norms
    np.square(densities, out=densities)
    return EvolutionResult(
        times=ts,
        site_densities=densities,
        log_norms=log_norms,
        geometry=h.geometry,
        route=route,
    )
