"""Closed-form predictions the simulations are checked against.

The continuum chain has fully analytic spreading, peak, velocity, and
amplification laws.  General uniform-skin models reuse the same structure
with ln(r) in place of b*m and the *measured* width series sigma(t) in place
of the analytic one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameter, WidthUnavailable
from .wavepacket import moving_average


@dataclass(frozen=True)
class HNOracleParams:
    """Symbols of the continuum-chain closed forms."""

    m: float
    b: float
    sigma: float
    k0: float = 0.0
    x0: float = 0.0
    e0: float = 0.0
    wall_left: float = 0.0
    wall_right: float = 0.0

    def __post_init__(self) -> None:
        if self.m <= 0 or self.sigma <= 0:
            raise InvalidParameter("HNOracleParams: m and sigma must be positive")


def sigma_sq_t(p: HNOracleParams, t) -> float | np.ndarray:
    """sigma(t)^2 = sigma^2 + t^2 / (4 sigma^2 m^2)."""
    return p.sigma**2 + t * t / (4.0 * p.sigma**2 * p.m**2)


def hn_peak(p: HNOracleParams, t) -> float | np.ndarray:
    """Peak displacement 2 b m [sigma(t)^2 - sigma^2], relative to x0 (drift excluded)."""
    return 2.0 * p.b * p.m * (sigma_sq_t(p, t) - p.sigma**2)


def hn_peak_velocity(p: HNOracleParams, t) -> float | np.ndarray:
    """b t / (m sigma^2)."""
    return p.b * t / (p.m * p.sigma**2)


def hn_v_in(p: HNOracleParams, t) -> float | np.ndarray:
    """Incident velocity k0/m + b t / (m sigma^2)."""
    return p.k0 / p.m + hn_peak_velocity(p, t)


def hn_v_ref(p: HNOracleParams, t) -> float | np.ndarray:
    """Reflected velocity -k0/m + b t / (m sigma^2)."""
    return -p.k0 / p.m + hn_peak_velocity(p, t)


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


@dataclass(frozen=True)
class GeneralOracleParams:
    """Inputs of the uniform-skin forms: r, a measured width series, a dispersion."""

    r: float
    sigma_times: np.ndarray
    sigma_values: np.ndarray            # nan where unavailable
    dispersion: Callable[[float], float]
    k0: float = 0.0
    smoothing_window: int = 5
    derivative_step: float = 1e-5

    def __post_init__(self) -> None:
        if self.r <= 0:
            raise InvalidParameter("GeneralOracleParams: r must be positive")


def _valid_sigma_sq(g: GeneralOracleParams) -> tuple[np.ndarray, np.ndarray]:
    mask = np.isfinite(g.sigma_values)
    if not np.any(mask):
        raise WidthUnavailable("no measured widths in the series")
    ts = np.asarray(g.sigma_times, dtype=float)[mask]
    s2 = np.asarray(g.sigma_values, dtype=float)[mask] ** 2
    return ts, moving_average(s2, g.smoothing_window)


def measured_sigma_sq(g: GeneralOracleParams, t: float) -> float:
    """Smoothed sigma(t)^2, linearly interpolated between measured samples."""
    ts, s2 = _valid_sigma_sq(g)
    return float(np.interp(t, ts, s2))


def general_peak(g: GeneralOracleParams, t) -> float | np.ndarray:
    """Peak displacement 2 ln(r) [sigma(t)^2 - sigma(0)^2] from the measured widths."""
    ts, s2 = _valid_sigma_sq(g)
    return 2.0 * math.log(g.r) * (np.interp(t, ts, s2) - s2[0])


def general_peak_velocity(g: GeneralOracleParams, t) -> float | np.ndarray:
    """2 ln(r) d sigma(t)^2/dt from a smoothed numerical derivative (t scalar or array)."""
    ts, s2 = _valid_sigma_sq(g)
    if len(ts) < 2:
        raise WidthUnavailable("need at least two width samples for a derivative")
    ds2 = np.gradient(s2, ts)
    return 2.0 * math.log(g.r) * np.interp(t, ts, ds2)


def dispersion_velocity(g: GeneralOracleParams, k: float) -> float:
    h = g.derivative_step
    return (g.dispersion(k + h) - g.dispersion(k - h)) / (2.0 * h)


def reflected_momentum(g: GeneralOracleParams, k0: float | None = None) -> float:
    """k1 with E(k1) = E(k0); the implemented dispersions are even, so k1 = -k0."""
    k0 = g.k0 if k0 is None else k0
    k1 = -k0
    e0, e1 = g.dispersion(k0), g.dispersion(k1)
    scale = max(1.0, abs(e0))
    if abs(e1 - e0) > 1e-10 * scale:
        raise InvalidParameter("reflected_momentum: dispersion is not even at this k0")
    return k1


def general_velocities(g: GeneralOracleParams, t):
    """(v_in, v_ref) = dE/dk at k0 resp. k1, each plus the peak velocity (t scalar or array)."""
    vp = general_peak_velocity(g, t)
    k1 = reflected_momentum(g)
    return (
        dispersion_velocity(g, g.k0) + vp,
        dispersion_velocity(g, k1) + vp,
    )


def predict_stuck(v0: float, r: float, dsigma_sq_dt: float) -> bool:
    """Right-wall sticking criterion: v_ref >= 0, i.e. v0 <= 2 ln(r) d sigma^2/dt."""
    return v0 <= 2.0 * math.log(r) * dsigma_sq_dt
