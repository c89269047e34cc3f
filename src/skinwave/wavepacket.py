"""Gaussian initial states and trajectory observables.

Observables extracted from density frames: the density maximum (refined by a
3-point parabola), the packet width from the full width at half maximum, the
peak velocity from finite differences of the peak series, and the
stuck/reflected classification of a boundary encounter.
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
    WidthUnavailable,
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

    def __len__(self) -> int:
        return len(self.times)


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
    profile = (2.0 * math.pi * params.sigma**2) ** -0.25 * np.exp(
        -rel * rel / (4.0 * params.sigma**2) + 1j * params.k0 * rel
    )
    if geometry.sites_per_cell == 1:
        amps = profile
    else:
        amps = np.zeros(geometry.dim, dtype=complex)
        amps[0::2] = profile
    return WaveState.from_amplitudes(amps)


def density(state: WaveState, geometry: Geometry) -> np.ndarray:
    """Per-position probability; two-band chains sum the two sublattices per cell."""
    if state.dim != geometry.dim:
        raise DimensionMismatch(f"state dim {state.dim} != geometry dim {geometry.dim}")
    return aggregate_density(state.site_density(), geometry)


def aggregate_density(site_density: np.ndarray, geometry: Geometry) -> np.ndarray:
    """Per-position density of one frame (dim,) or a stack of frames (frames, dim)."""
    d = np.asarray(site_density, dtype=float)
    n = geometry.sites_per_cell
    return d if n == 1 else d.reshape(d.shape[:-1] + (d.shape[-1] // n, n)).sum(axis=-1)


def peak_position(dens: np.ndarray, geometry: Geometry) -> float:
    """Position of the density maximum, refined by a 3-point parabola and clamped."""
    dens = np.asarray(dens, dtype=float)
    xs = geometry.density_positions
    if len(dens) != len(xs):
        raise DimensionMismatch("peak_position: density length != position grid")
    if not np.any(dens > 0):
        raise DegenerateDensity("peak_position: all-zero density")
    x = _refine_peak(dens, xs, int(np.argmax(dens)), geometry.dx)
    return float(min(xs[-1], max(xs[0], x)))


def _refine_peak(dens: np.ndarray, xs: np.ndarray, i: int, spacing: float) -> float:
    """Vertex of the 3-point parabola through sample i, at most half a spacing away."""
    if 0 < i < len(dens) - 1:
        dm, d0, dp = dens[i - 1], dens[i], dens[i + 1]
        denom = dm - 2.0 * d0 + dp
        offset = 0.0 if denom == 0 else 0.5 * (dm - dp) / denom
        return float(xs[i] + min(0.5, max(-0.5, offset)) * spacing)
    return float(xs[i])


def sigma_from_halfwidth(dens: np.ndarray, geometry: Geometry) -> float:
    """Width sigma from the full width at half maximum of the dominant peak.

    Crossings are located by linear interpolation between bracketing grid
    points; a crossing that runs off the domain raises WidthUnavailable.
    """
    dens = np.asarray(dens, dtype=float)
    xs = geometry.density_positions
    if len(dens) != len(xs):
        raise DimensionMismatch("sigma_from_halfwidth: density length != position grid")
    if not np.any(dens > 0):
        raise DegenerateDensity("sigma_from_halfwidth: all-zero density")
    i = int(np.argmax(dens))
    half = dens[i] / 2.0

    j = i
    while j < len(dens) - 1 and dens[j + 1] >= half:
        j += 1
    if j >= len(dens) - 1:
        raise WidthUnavailable("right half-maximum crossing outside the domain")
    x_right = xs[j] + (xs[j + 1] - xs[j]) * (dens[j] - half) / (dens[j] - dens[j + 1])

    j = i
    while j > 0 and dens[j - 1] >= half:
        j -= 1
    if j <= 0:
        raise WidthUnavailable("left half-maximum crossing outside the domain")
    x_left = xs[j] - (xs[j] - xs[j - 1]) * (dens[j] - half) / (dens[j] - dens[j - 1])

    return float((x_right - x_left) / HALF_WIDTH_FACTOR)


def top_two_peaks(
    dens: np.ndarray,
    geometry: Geometry,
    min_separation: int = 3,
    min_height_fraction: float = 1e-3,
):
    """Positions and heights of the two highest local maxima (snapshot diagnostics).

    Secondary maxima below ``min_height_fraction`` of the primary are noise
    and are not reported.
    """
    dens = np.asarray(dens, dtype=float)
    xs = geometry.density_positions
    peaks = [
        (float(dens[j]), j)
        for j in range(1, len(dens) - 1)
        if dens[j] >= dens[j - 1] and dens[j] >= dens[j + 1]
    ]
    peaks.sort(reverse=True)
    chosen: list[int] = []
    for height, j in peaks:
        if chosen and height < min_height_fraction * dens[chosen[0]]:
            break
        if all(abs(j - c) >= min_separation for c in chosen):
            chosen.append(j)
        if len(chosen) == 2:
            break
    return [(_refine_peak(dens, xs, j, geometry.dx), float(dens[j])) for j in chosen]


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
    x_raw = np.empty(frames)
    sigma = np.full(frames, np.nan)
    for k, dens in enumerate(aggregate_density(result.site_densities, geometry)):
        x_raw[k] = peak_position(dens, geometry)
        try:
            sigma[k] = sigma_from_halfwidth(dens, geometry)
        except WidthUnavailable:
            pass
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
    ci = trajectory.contact_index
    keep = _width_ok(trajectory, options)
    pre = np.zeros(len(times), dtype=bool)
    pre[: max(0, ci - guard)] = True

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
