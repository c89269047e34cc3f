"""Gaussian initial states and trajectory observables.

Observables measured on the whole (frames, positions) density stack in one
pass: the density maximum (refined by a 3-point parabola) and the packet
width from the full width at half maximum.  From those series come the peak
velocity (finite differences), the wall contact, and the stuck/reflected
classification of a boundary encounter.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateDensity,
    DimensionMismatch,
    InsufficientData,
    InvalidParameter,
)
from .evolve import EvolutionResult, WaveState
from .model import Geometry

HALF_WIDTH_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))   # delta = factor * sigma


@dataclass(frozen=True)
class GaussianParams:
    sigma: float
    x0: float
    k0: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise InvalidParameter("GaussianParams: sigma must be positive")
        if not (math.isfinite(self.x0) and math.isfinite(self.k0)):
            raise InvalidParameter("GaussianParams: x0 and k0 must be finite")
        if not self.amplitude > 0:
            raise InvalidParameter(f"GaussianParams: sigma {self.sigma!r} gives no representable amplitude")

    @property
    def amplitude(self) -> float:
        """(2 pi sigma^2)^-1/4, the peak of the normalised profile; 0 where it is not representable."""
        try:
            return (2.0 * math.pi * self.sigma**2) ** -0.25
        except ArithmeticError:   # sigma^2 overflows, or underflows to zero
            return 0.0


@dataclass(frozen=True)
class AnalysisOptions:
    """Knobs of the trajectory analysis; thresholds are in grid units."""

    smoothing_window: int = 1
    contact_threshold: float = 3.0
    guard_band: int = 5
    width_cutoff_fraction: float = 0.25
    classify_window: float | None = None   # None: inspect to the end of the series
    contact_wall: str = "either"           # 'either' | 'left' | 'right'

    def __post_init__(self) -> None:
        for name, low in (("smoothing_window", 1), ("guard_band", 0)):
            v = getattr(self, name)
            if not (float(v).is_integer() and v >= low):
                raise InvalidParameter(f"AnalysisOptions: {name} must be an integer >= {low}, got {v!r}")
            object.__setattr__(self, name, int(v))
        for name in ("contact_threshold", "width_cutoff_fraction"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise InvalidParameter(f"AnalysisOptions: {name} must be finite and positive, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.classify_window is not None and not self.classify_window > 0:
            raise InvalidParameter("AnalysisOptions: classify_window must be positive when set")
        if self.contact_wall not in ("either", "left", "right"):
            raise InvalidParameter("AnalysisOptions: contact_wall must be 'either', 'left', or 'right'")


@dataclass(frozen=True)
class TrajectorySeries:
    times: np.ndarray
    x_peak: np.ndarray
    v_peak: np.ndarray
    sigma_measured: np.ndarray      # nan where the width was unavailable
    log_norm: np.ndarray
    boundary_contact_time: float | None
    contact_index: int | None
    contact_boundary: float | None  # coordinate of the wall first touched
    domain: tuple[float, float]
    dx: float

    def approach(self, guard_band: int = 0) -> np.ndarray:
        """Mask of the frames before ``contact_index - guard_band``; every frame without contact."""
        keep = np.ones(len(self.times), dtype=bool)
        if self.contact_index is not None:
            keep[max(0, self.contact_index - guard_band) :] = False
        return keep


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    t_mid: float

    def value_at(self, t: float) -> float:
        return self.slope * t + self.intercept

    @property
    def value_at_midpoint(self) -> float:
        return self.value_at(self.t_mid)


@dataclass(frozen=True)
class ReflectionOutcome:
    kind: str                       # 'reflected' | 'stuck' | 'no_contact'
    v_in_fit: LinearFit | None = None
    v_ref_fit: LinearFit | None = None
    window_truncated: bool = False


def gaussian_state(geometry: Geometry, params: GaussianParams) -> WaveState:
    """Normalized Gaussian packet; for two-band chains the profile sits on A sites only."""
    xs = geometry.density_positions
    clearance = min(params.x0 - xs[0], xs[-1] - params.x0)
    if clearance < 4.0 * params.sigma:
        warnings.warn(
            f"packet center {params.x0} has {clearance:.3g} clearance, "
            f"below 4 sigma = {4 * params.sigma:.3g}",
            stacklevel=2,
        )
    rel = xs - params.x0
    with np.errstate(over="ignore"):   # a sigma far below the spacing: exp(-inf) = 0
        profile = params.amplitude * np.exp(-rel * rel / (4.0 * params.sigma**2) + 1j * params.k0 * rel)
    if not np.any(profile):
        raise InvalidParameter(f"GaussianParams: sigma {params.sigma!r} leaves no sample on the grid")
    if geometry.sites_per_cell == 1:
        amps = profile
    else:
        amps = np.zeros(geometry.dim, dtype=complex)
        amps[0::2] = profile
    return WaveState.from_amplitudes(amps)


def aggregate_density(densities: np.ndarray, geometry: Geometry) -> np.ndarray:
    """Per-position density of site densities, one frame (dim,) or a stack (frames, dim); a two-band cell sums its sites.

    The sites are added as two strided views: the bits of a sum over a length-2
    axis, whose numpy reduction is about 20 times slower on a run's stack.
    """
    d = np.asarray(densities, dtype=float)
    return d if geometry.sites_per_cell == 1 else d[..., 0::2] + d[..., 1::2]


def measure_frames(dens: np.ndarray, geometry: Geometry) -> tuple[np.ndarray, np.ndarray]:
    """Peak position and half-maximum width sigma of every row of a (frames, positions) stack.

    The peak is each row's first maximum moved to the vertex of the 3-point
    parabola through it, then clamped to the domain.  Each half-maximum
    crossing is interpolated linearly between the last sample at or above
    half the maximum and the first one below it; sigma is nan where a
    crossing runs off the domain.
    """
    dens = np.asarray(dens, dtype=float)
    xs = geometry.density_positions
    if dens.ndim != 2 or dens.shape[1] != len(xs):
        raise DimensionMismatch(f"measure_frames: density stack {dens.shape} != (frames, {len(xs)})")
    empty = ~np.any(dens > 0, axis=1)
    if empty.any():
        raise DegenerateDensity(f"measure_frames: frame {int(np.argmax(empty))} has no positive density")
    n, i = dens.shape[1], np.argmax(dens, axis=1)
    x_peak = np.clip(_parabola_peaks(dens, i, xs, geometry.dx), xs[0], xs[-1])

    rows, cols = np.arange(len(dens)), np.arange(n)
    half = dens[rows, i] / 2.0
    below = dens < half[:, None]
    right = below & (cols > i[:, None])
    left = below & (cols < i[:, None])
    out_r = np.argmax(right, axis=1)                   # first sample below half right of the peak
    out_l = n - 1 - np.argmax(left[:, ::-1], axis=1)   # and left of it

    def crossing(outer, inner):
        d_in, d_out = dens[rows, inner], dens[rows, outer]
        return xs[inner] + (xs[outer] - xs[inner]) * (d_in - half) / (d_in - d_out)

    with np.errstate(all="ignore"):   # rows without a crossing divide garbage and are dropped
        width = crossing(out_r, out_r - 1) - crossing(out_l, np.minimum(out_l + 1, n - 1))
        sigma = np.where(right.any(axis=1) & left.any(axis=1), width / HALF_WIDTH_FACTOR, np.nan)
    return x_peak, sigma


def _parabola_peaks(dens: np.ndarray, i: np.ndarray, xs: np.ndarray, spacing: float) -> np.ndarray:
    """Vertex of the 3-point parabola through sample i[r] of each row r, at most half a spacing away.

    A maximum at either end of its row, or on a flat top, stays on its sample.
    """
    rows, n = np.arange(len(i)), dens.shape[1]
    dm, d0, dp = dens[rows, np.maximum(i - 1, 0)], dens[rows, i], dens[rows, np.minimum(i + 1, n - 1)]
    denom = dm - 2.0 * d0 + dp
    with np.errstate(all="ignore"):
        offset = np.where(denom == 0, 0.0, 0.5 * (dm - dp) / denom)
    return np.where((i > 0) & (i < n - 1), xs[i] + np.clip(offset, -0.5, 0.5) * spacing, xs[i])


_MIN_SEPARATION, _MIN_HEIGHT_FRACTION = 3, 1e-3   # of a second maximum from top_two_peaks' first


def top_two_peaks(dens: np.ndarray, geometry: Geometry):
    """Positions and heights of the two highest local maxima (snapshot diagnostics).

    Secondary maxima below ``_MIN_HEIGHT_FRACTION`` of the primary, or fewer
    than ``_MIN_SEPARATION`` samples from it, are not reported.
    """
    dens = np.asarray(dens, dtype=float)
    maxima = np.flatnonzero((dens[1:-1] >= dens[:-2]) & (dens[1:-1] >= dens[2:])) + 1
    chosen: list[int] = []
    for height, j in sorted(zip(dens[maxima].tolist(), maxima.tolist()), reverse=True):
        if chosen and height < _MIN_HEIGHT_FRACTION * dens[chosen[0]]:
            break
        if all(abs(j - c) >= _MIN_SEPARATION for c in chosen):
            chosen.append(j)
        if len(chosen) == 2:
            break
    rows = np.broadcast_to(dens, (len(chosen), len(dens)))
    x = _parabola_peaks(rows, np.array(chosen, dtype=int), geometry.density_positions, geometry.dx)
    return [(float(xj), float(dens[j])) for xj, j in zip(x, chosen)]


def moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average; the window shrinks symmetrically at the edges."""
    values = np.asarray(values, dtype=float)
    if window <= 1:
        return values
    n = len(values)
    out = np.empty_like(values)
    # half-width k covers centers k .. n-1-k; each wider pass overwrites the
    # centers it reaches, so every sample ends with its widest fitting window
    for k in range(min(window // 2, (n - 1) // 2) + 1):
        out[k : n - k] = sliding_window_view(values, 2 * k + 1).mean(axis=-1)
    return out


def differentiate(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Central differences at interior samples, one-sided at the ends."""
    if len(times) < 3:
        raise InsufficientData("differentiate: need at least 3 samples")
    return np.gradient(np.asarray(values, dtype=float), np.asarray(times, dtype=float))


def extract_trajectory(result: EvolutionResult, options: AnalysisOptions) -> TrajectorySeries:
    """Measure peak, width, and velocity on every frame and locate wall contact.

    The smoothing window (when > 1) is applied to the peak series itself: the
    flat-topped density of a wide packet lets the raw argmax hop between
    near-degenerate humps, and all downstream consumers (velocity fits,
    trajectory comparisons) want the envelope motion.
    """
    geometry = result.geometry
    xs = geometry.density_positions
    frames = len(result.times)
    x_raw, sigma = measure_frames(aggregate_density(result.site_densities, geometry), geometry)
    x = moving_average(x_raw, options.smoothing_window)
    v = differentiate(result.times, x) if frames >= 3 else np.zeros(frames)

    threshold = options.contact_threshold * geometry.dx
    lo, hi = float(xs[0]), float(xs[-1])
    unwatched = np.full(frames, np.inf)
    d_lo = x - lo if options.contact_wall in ("either", "left") else unwatched
    d_hi = hi - x if options.contact_wall in ("either", "right") else unwatched
    touching = np.minimum(d_lo, d_hi) <= threshold
    contact_index = contact_boundary = None
    if touching.any():
        contact_index = int(np.argmax(touching))
        contact_boundary = lo if d_lo[contact_index] <= d_hi[contact_index] else hi

    return TrajectorySeries(
        times=result.times,
        x_peak=x,
        v_peak=v,
        sigma_measured=sigma,
        log_norm=result.log_norms,
        boundary_contact_time=None if contact_index is None else float(result.times[contact_index]),
        contact_index=contact_index,
        contact_boundary=contact_boundary,
        domain=(lo, hi),
        dx=geometry.dx,
    )


def _fit_line(ts: np.ndarray, vs: np.ndarray) -> LinearFit | None:
    mask = np.isfinite(vs)
    ts, vs = ts[mask], vs[mask]
    if len(ts) < 2:
        return None
    a = np.vstack([ts, np.ones(len(ts))]).T
    slope, intercept = np.linalg.lstsq(a, vs, rcond=None)[0]
    return LinearFit(slope=float(slope), intercept=float(intercept), t_mid=float(ts.mean()))


def _width_ok(trajectory: TrajectorySeries, options: AnalysisOptions) -> np.ndarray:
    """Velocity-fit sample filter: drop frames whose measured width exceeds the cutoff."""
    length = trajectory.domain[1] - trajectory.domain[0]
    cutoff = options.width_cutoff_fraction * length
    sig = trajectory.sigma_measured
    return ~(np.isfinite(sig) & (sig > cutoff))


def classify_reflection(
    trajectory: TrajectorySeries, options: AnalysisOptions = AnalysisOptions()
) -> ReflectionOutcome:
    """Stuck / reflected / no-contact decision with incident and reflected fits.

    Stuck: the peak stays within the contact threshold of the wall for the
    whole inspection window.  Otherwise the outcome is reflected, with
    least-squares lines of v(t): the incident fit ends a guard band before
    contact; the reflected fit starts a guard band after the peak detaches
    from the wall again (the wall-hugging dwell between contact and
    detachment carries no reflected motion) and uses only detached samples.
    """
    if trajectory.contact_index is None:
        return ReflectionOutcome(kind="no_contact")
    times = trajectory.times
    t_contact = trajectory.boundary_contact_time
    window = options.classify_window
    truncated = False
    if window is None:
        t_end = times[-1]
    else:
        t_end = t_contact + window
        if t_end > times[-1]:
            t_end = times[-1]
            truncated = True

    in_window = (times >= t_contact) & (times <= t_end)
    threshold = options.contact_threshold * trajectory.dx
    dist = np.abs(trajectory.x_peak - trajectory.contact_boundary)
    if np.all(dist[in_window] <= threshold):
        return ReflectionOutcome(kind="stuck", window_truncated=truncated)

    guard = options.guard_band
    keep = _width_ok(trajectory, options)
    pre = trajectory.approach(guard)

    detached = (times > t_contact) & (dist > threshold)
    detach_idx = int(np.argmax(detached))          # first detached frame (exists: not stuck)
    post = detached & (times <= t_end)
    post[: min(len(times), detach_idx + guard)] = False
    v = trajectory.v_peak
    return ReflectionOutcome(
        kind="reflected",
        v_in_fit=_fit_line(times[pre & keep], v[pre & keep]),
        v_ref_fit=_fit_line(times[post & keep], v[post & keep]),
        window_truncated=truncated,
    )


def fit_peak_velocity_slope(trajectory: TrajectorySeries, options: AnalysisOptions) -> float | None:
    """Least-squares slope of v(t) over the clean samples of the approach window."""
    v = trajectory.v_peak
    keep = trajectory.approach(options.guard_band) & _width_ok(trajectory, options) & np.isfinite(v)
    if keep.sum() < 3:
        return None
    return _fit_line(trajectory.times[keep], v[keep]).slope
