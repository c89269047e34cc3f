"""Exact time evolution under non-Hermitian Hamiltonians.

Two independent routes:

* spectral: biorthogonal eigen-expansion, every frame of the time grid
  evaluated directly from the initial state in one synthesis (no step
  accumulation);
* expm: scaling-and-squaring matrix exponential, stepped over the frame grid.

``propagate`` is the one interface to both: it takes a grid of elapsed times
and yields unit-normalised amplitudes with the total log-norm per frame (so
norms of order exp(hundreds) stay representable), a block of frames at a time
(``_BLOCK_CELLS`` cells, or one frame on the expm route).  A frame at zero
elapsed time is the initial state itself.  ``evolve_series`` writes the
blocks' densities into one (frames x dim) float array, so it never forms a
complex (frames x dim) array.

Every model family goes through its real symmetric counterpart Hbar =
S^-1 H S, which ``similarity.chain_similarity`` reads from the operator's three
bands with the positive diagonal S; the route is chosen from Hbar's bands and
none solves an eigenproblem of the whole chain:

* sine: a uniform Hbar (continuum and discrete chains); its modes are the
  DST-I, so expansion and synthesis are one FFT each and only S is stored;
* chiral: a zero-diagonal Hbar (the two-band chains); the singular modes of
  its half-size intercell block give the modes at E = +-sigma, in closed form
  (standing waves) for a uniform block without an edge mode, from one eigh of
  the tridiagonal B B^T for a non-uniform block of condition up to 10, and
  from one dense SVD otherwise (an edge mode among them).  Spectrum and
  modes are real, so its frames are formed in real arithmetic: one cos/sin
  table of sigma t for both halves +-sigma, and one real GEMM per sublattice;
* ...+rotation: the gain/loss two-band chains use their asymmetric-hop twin,
  rotating psi0 into it and the frames back cell by cell;
* generic: a chain without a counterpart, or a bare matrix; eig plus a
  polished inverse (condition cap 1e12).

States are mapped through S^-1 and S, which stays accurate far past where
inverting the right-eigenvector matrix fails (states weighted at the small-S
end lose eps * S_max / S_min).  Only the generic and expm routes assemble a
dense H; no sine or chiral code forms an N x N array, and only a non-uniform
or edge-mode chiral block a dense half-size matrix (B B^T, or B for the SVD).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DefectiveMatrix, DimensionMismatch, InvalidParameter, NumericalOverflow
from .model import Geometry, HamiltonianMatrix, ModelSpec, axis_y_twin, build_hamiltonian
from .similarity import chain_similarity

CONDITION_LIMIT = 1e12

METHODS = ("spectral", "expm", "auto")

# frames x dim cells per block of the spectral routes: the block's complex
# temporaries (about 0.5 MB each) are all that is alive beside the densities
_BLOCK_CELLS = 32768

# largest sigma_max / sigma_min of a chiral block decomposed through B B^T
_GRAM_CONDITION = 10.0

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
    """Generic route: eigenvalues with biorthonormal right/left bases, left^H @ right == I.

    ``expand`` maps states to mode coefficients and ``synthesize`` per-frame
    coefficients back to amplitudes, both over the last axis.  ``SineModes``
    has the same two maps without a stored basis; ``ChiralModes`` forms its
    frames directly.
    """

    eigenvalues: np.ndarray
    right: np.ndarray    # columns R_n
    left: np.ndarray     # columns L_n
    condition: float     # max left-vector norm (diagnostic)
    route: str           # 'generic'

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
    route: str                   # a decomposition route, or 'expm'
    fallback: str | None = None  # why 'auto' refused the decomposition and took expm

    @property
    def method(self) -> str:
        return "expm" if self.route == "expm" else "spectral"


def _as_matrix(h) -> np.ndarray:
    m = h.matrix if isinstance(h, HamiltonianMatrix) else np.asarray(h)
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch("expected a square matrix")
    if not np.all(np.isfinite(m)):
        raise InvalidParameter("matrix has non-finite entries")
    return m


def decompose(h) -> SpectralDecomposition:
    """Generic route: eig + inversion of the right-eigenvector matrix.

    One Newton polish of the inverse tightens biorthogonality to roundoff;
    raises DefectiveMatrix past the 1e12 condition limit, when the polish falls
    short (near-defective H) or when LAPACK fails (fall back to expm).
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
    left = x.conj().T
    return SpectralDecomposition(
        eigenvalues=w,
        right=v,
        left=left,
        condition=float(np.max(np.linalg.norm(left, axis=0))),
        route="generic",
    )


def _decompose_chain(bands: dict[int, np.ndarray]) -> SineModes | ChiralModes | None:
    """Counterpart route chosen from the structure of the counterpart's bands; None where none fits.

    A uniform counterpart d + c (shift + shift^T) takes 'sine', E_n = d + 2 c
    cos(n pi / (N+1)); a zero-diagonal one on an even number of sites takes
    'chiral', the singular modes of the half-size B (``_bidiagonal_svd``).
    No eigensolve of the whole chain.
    """
    sim = chain_similarity(bands)
    if sim is None:
        return None
    s, diag, off = sim
    if s.min() < np.finfo(float).tiny:
        raise NumericalOverflow("similarity S underflows: S^-1 is not representable")
    n = len(s)
    if np.all(diag == diag[0]) and np.all(off == off[0]):
        energies = diag[0] + 2.0 * off[0] * np.cos(np.arange(1, n + 1) * (math.pi / (n + 1)))
        return SineModes(energies.astype(complex), s, False)
    if n % 2 == 0 and not np.any(diag):
        u, sigma, v = _bidiagonal_svd(off[0::2], off[1::2])
        return ChiralModes(np.concatenate([sigma, -sigma]).astype(complex), s, False, u, v)
    return None


def _bidiagonal_svd(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U, descending sigma and V of the n x n B = diag(a) + diag(b, -1), B = U diag(sigma) V^T.

    A uniform B with |b| <= |a| has no edge mode and its modes are standing
    waves: k_m = m pi/(n+1) + delta_m, with delta_m in (0, m pi/(n(n+1)))
    bisected from |a| sin((n+1) delta) = |b| sin(m pi/(n+1) - n delta);
    sigma_m^2 = a^2 + b^2 + 2|ab| cos k_m; u_c ~ sin(k_m (n-c)), its phase
    reduced exactly as (m (n-c) mod 2(n+1)) pi/(n+1) + delta_m (n-c); v is u
    reversed (B^T is B reversed) with the sign (-1)^(m+1) that gives
    B v = sigma u.  The signs of a and b go on as alternating row signs.  A
    non-uniform B goes to ``_gram_svd``.  A uniform B with |b| > |a| (its
    edge mode has sigma_min ~ |a/b|^n), and a non-uniform one that
    ``_gram_svd`` refuses for its condition, take one dense SVD.
    """
    n = len(a)
    b0 = b[0] if n > 1 else 0.0
    uniform = np.all(a == a[0]) and np.all(b == b0)
    if not uniform:
        modes = _gram_svd(a, b)
        if modes is not None:
            return modes
    if not uniform or abs(b0) > abs(a[0]):
        u, sigma, vt = np.linalg.svd(np.diag(a) + np.diag(b, -1))
        return u, sigma, vt.T
    pa, pb = abs(a[0]), abs(b0)
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
    j = np.arange(n, 0, -1)
    phase = np.multiply.outer(j, m)
    phase %= 2 * (n + 1)
    u = np.multiply(phase, step, out=np.empty((n, n)))
    del phase
    u += np.outer(j, delta)
    np.sin(u, out=u)
    u /= np.linalg.norm(u, axis=0)
    rows = math.copysign(1.0, a[0] * b0) ** np.arange(n)
    v = u[::-1] * rows[:, None]
    v *= (-1.0) ** (m + 1)
    u *= (math.copysign(1.0, a[0]) * rows)[:, None]
    return u, sigma, v


def _gram_svd(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """U, descending sigma and V of B = diag(a) + diag(b, -1) from one eigh of the tridiagonal B B^T; None past condition 10.

    B B^T has the diagonal a_i^2 + b_(i-1)^2 and the off-diagonal a_i b_i; its
    eigenpairs are (sigma^2, u) (Golub & Kahan 1965), and v = B^T u / sigma
    is the scaled row shift (a_i u_i + b_i u_(i+1)) / sigma, O(n^2) without
    a GEMM.  V^T V departs from I as eps kappa^2, so a B whose condition
    kappa = sigma_max / sigma_min exceeds ``_GRAM_CONDITION`` (an edge mode's
    sigma near 0 among them) is refused.
    """
    n = len(a)
    diag = a * a
    diag[1:] += b * b
    gram = np.diag(diag)
    gram.flat[1 :: n + 1] = gram.flat[n :: n + 1] = a[:-1] * b
    lam, u = np.linalg.eigh(gram)
    if not lam[0] * _GRAM_CONDITION**2 > lam[-1]:   # a NaN refuses too
        return None
    sigma = np.sqrt(lam[::-1])
    u = np.ascontiguousarray(u[:, ::-1])
    v = a[:, None] * u
    v[:-1] += b[:, None] * u[1:]
    v /= sigma
    return u, sigma, v


def decompose_model(
    h: HamiltonianMatrix, spec: ModelSpec | None
) -> SineModes | ChiralModes | SpectralDecomposition:
    """Best decomposition route for a model spec.

    Every spec goes through ``_decompose_chain`` on its bands; a gain/loss
    two-band chain goes through the bands of its asymmetric-hop twin, rotated
    back cell by cell.  A chain that route refuses, and a bare matrix (no
    spec), go through ``decompose``.
    """
    if spec is not None:
        twin = axis_y_twin(spec)
        dec = _decompose_chain(h.bands if twin is spec else build_hamiltonian(twin).bands)
        if dec is not None:
            return dec if twin is spec else replace(dec, rotated=True)
    return decompose(h)


def _magnitudes(x: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """|x| of a complex ``x``, written as one contiguous float array into the first half of the free ``spare``."""
    return np.abs(x, out=spare.view(float).reshape(-1)[: x.size].reshape(x.shape))


def _norm1(x: np.ndarray, spare: np.ndarray) -> float:
    """``np.linalg.norm(x, 1)`` bit for bit (the largest column sum of |x|), with |x| kept in ``spare``."""
    return float(np.add.reduce(_magnitudes(x, spare), axis=0).max())


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring with a machine-precision Taylor core."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    norm1 = float(np.linalg.norm(m, 1))
    if not math.isfinite(norm1):
        raise NumericalOverflow("matrix_exp: input norm not finite")
    squarings = max(0, int(math.ceil(math.log2(norm1 / 0.25)))) if norm1 > 0.25 else 0
    a = m / (2.0 ** squarings)
    result = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    # every product goes into buf, which then trades places with its factor;
    # between products buf is free and holds |.| of the factors in its first half
    buf = np.empty_like(term)
    for k in range(1, 60):
        term, buf = np.matmul(term, a, out=buf), term
        term /= k
        result += term
        if _norm1(term, buf) <= 1e-18 * _norm1(result, buf):
            break
    del term, a   # only result and buf are alive through the squarings
    # entries below sqrt(tiny) * max(1, max|R|) are zeroed before each squaring,
    # so no product in it underflows into (slow) subnormal arithmetic
    floor = math.sqrt(np.finfo(float).tiny)
    for _ in range(squarings):
        mag = _magnitudes(result, buf)
        result[mag < floor * max(1.0, float(mag.max()))] = 0.0
        del mag
        result, buf = np.matmul(result, result, out=buf), result
    if not np.all(np.isfinite(result)):
        raise NumericalOverflow("matrix_exp: overflow during squaring")
    return result


def _check_times(times, psi0: WaveState, dim: int) -> np.ndarray:
    """The elapsed-time grid as an array, checked against the state."""
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or len(ts) == 0:
        raise InvalidParameter("times: need a non-empty 1-d time list")
    if not np.all(np.isfinite(ts)):
        raise InvalidParameter("times must be finite")
    if np.any(np.diff(ts) < 0):
        raise InvalidParameter("times must be ascending")
    if psi0.dim != dim:
        raise DimensionMismatch(f"frame 0 (t={ts[0]}): state dim {psi0.dim} != operator dim {dim}")
    return ts


def _normalise(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalise the last axis in place; returns the scaled amplitudes and log of the norms."""
    with np.errstate(divide="ignore", invalid="ignore"):
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


def _spectral_frames(dec: SineModes | ChiralModes | SpectralDecomposition, psi0: WaveState, ts: np.ndarray):
    """Unit-normalised amplitudes (frames x dim) of psi0 at the checked times ``ts``, and their unchecked log-norms.

    The chiral route forms the frames in real arithmetic (``ChiralModes.frames``);
    the others synthesise R (c * exp(-i E t)) from c = L^H psi0, with the
    largest Im(E_n) t of each frame (the generic route's spectrum can be
    complex) factored into its log-norm, so growing modes never overflow.
    Frames at zero elapsed time are psi0's amplitudes and log-norm unchanged.
    """
    if isinstance(dec, ChiralModes):
        amps, mu = dec.frames(psi0.amplitudes, ts), 0.0
    else:
        coeff = dec.expand(psi0.amplitudes)
        growth = np.outer(ts, dec.eigenvalues.imag)
        mu = growth.max(axis=1)
        phases = np.exp(np.outer(ts, -1j * dec.eigenvalues.real) + (growth - mu[:, None]))
        amps = dec.synthesize(phases * coeff)
    amps, log_nrm = _normalise(amps)
    log_norms = psi0.log_norm_offset + mu + log_nrm
    at_start = ts == 0
    amps[at_start] = psi0.amplitudes
    log_norms[at_start] = psi0.log_norm
    return amps, log_norms


def _expm_frames(h, psi0: WaveState, ts: np.ndarray):
    """Yield psi0 stepped to each of the checked times ``ts``: its unit amplitudes and its unchecked log-norm.

    Gaps are quantised, so one propagator serves every equal gap of a uniform
    grid, and each step's mean diagonal growth rate is shifted into the
    log-norm, so amplifying spectra do not overflow the exponential.  Each
    gap's generator -i H gap is formed in place on a fresh dense H (a copy of
    a bare matrix), so no second dense copy of H stays beside it.
    """
    bare = None if isinstance(h, HamiltonianMatrix) else _as_matrix(h)
    cache: dict[float, tuple[np.ndarray, float]] = {}
    state, log_norm, prev_t = psi0.amplitudes, psi0.log_norm, 0.0
    for t in ts:
        gap = float(f"{t - prev_t:.12g}")
        if gap != 0.0:
            if gap not in cache:
                gen = _as_matrix(h) if bare is None else bare.copy()
                gen *= -1j
                gen *= gap
                shift = float(np.mean(gen.diagonal().real))
                gen.flat[:: len(gen) + 1] -= shift
                cache[gap] = (matrix_exp(gen), shift)
                del gen
            prop, shift = cache[gap]
            state, log_nrm = _normalise(prop @ state)
            log_norm = log_norm + shift + log_nrm
        yield state, log_norm
        prev_t = t


def propagate(h, psi0: WaveState, times, method: str = "auto", spec: ModelSpec | None = None):
    """Evolve psi0 to every elapsed time in ``times``; returns (route, fallback, blocks).

    ``h`` is a ``HamiltonianMatrix``, or a bare square matrix with ``spec=None``.
    The method, the times and ``decompose_model`` run on the call; auto falls
    back to 'expm' on a ``DefectiveMatrix`` and gives its message as
    ``fallback`` (else None).  ``blocks`` yields (grid index of the first
    frame, unit-normalised amplitudes (frames x dim), total log-norms):
    ``_BLOCK_CELLS`` cells per block on a decomposition's route (psi0 expanded
    again for each), one frame per block on 'expm'.  A degenerate norm raises
    NumericalOverflow naming its frame on the grid.
    """
    if method not in METHODS:
        raise InvalidParameter(f"propagate: unknown method {method!r}")
    dim = h.dim if isinstance(h, HamiltonianMatrix) else len(_as_matrix(h))
    ts = _check_times(times, psi0, dim)
    route, fallback = "expm", None
    if method != "expm":
        try:
            dec = decompose_model(h, spec)
            route = dec.route
        except DefectiveMatrix as exc:
            if method == "spectral":
                raise
            fallback = str(exc)
    if route == "expm":
        frames = ((k, state[None], np.array([ln])) for k, (state, ln) in enumerate(_expm_frames(h, psi0, ts)))
    else:
        step = max(1, _BLOCK_CELLS // dim)
        frames = ((a, *_spectral_frames(dec, psi0, ts[a : a + step])) for a in range(0, len(ts), step))
    return route, fallback, ((a, amps, _check_frames(log_norms, ts, a)) for a, amps, log_norms in frames)


def evolve_series(
    h: HamiltonianMatrix,
    psi0: WaveState,
    times,
    method: str = "auto",
    spec: ModelSpec | None = None,
) -> EvolutionResult:
    """Sample the evolution on a grid of elapsed times: the densities of ``propagate``'s blocks.

    Each block's |amplitude|^2 is written into one preallocated (frames x dim)
    float array and its log-norms into one vector, so the densities are the
    run's only frames x dim array.
    """
    route, fallback, blocks = propagate(h, psi0, times, method, spec)
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
        fallback=fallback,
    )
