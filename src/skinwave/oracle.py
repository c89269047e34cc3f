"""Closed-form predictions the simulations are checked against.

One law gives the peak of every family with a Hermitian counterpart:
x(t) = x0 + v0 t + 2 kappa [sigma(t)^2 - sigma(0)^2], with kappa = ln r per
unit length, v0 the counterpart's group velocity at k0, and sigma(t) the
packet width.  The continuum chain supplies kappa = b m and its analytic
width; the lattices supply ln r of their similarity and the *measured*
width series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    def __post_init__(self) -> None:
        if self.m <= 0 or self.sigma <= 0:
            raise InvalidParameter("HNOracleParams: m and sigma must be positive")


def sigma_sq_t(p: HNOracleParams, t) -> float | np.ndarray:
    """sigma(t)^2 = sigma^2 + t^2 / (4 sigma^2 m^2)."""
    return p.sigma**2 + t * t / (4.0 * p.sigma**2 * p.m**2)


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


def hn_width_series(p: HNOracleParams, t) -> tuple[np.ndarray, np.ndarray]:
    """(sigma(t)^2, d sigma(t)^2/dt = t / (2 sigma^2 m^2)) of the free continuum packet."""
    return sigma_sq_t(p, t), t / (2.0 * p.sigma**2 * p.m**2)


def measured_width_series(
    times: np.ndarray, sigma_values: np.ndarray, smoothing_window: int = 5
) -> tuple[np.ndarray, np.ndarray]:
    """(sigma^2, d sigma^2/dt) on ``times`` from measured widths (nan where unavailable).

    sigma^2 of the measured samples is smoothed, differentiated, and both are
    interpolated linearly onto ``times``.
    """
    mask = np.isfinite(sigma_values)
    if np.count_nonzero(mask) < 2:
        raise WidthUnavailable("need at least two measured widths")
    ts = np.asarray(times, dtype=float)[mask]
    s2 = moving_average(np.asarray(sigma_values, dtype=float)[mask] ** 2, smoothing_window)
    return np.interp(times, ts, s2), np.interp(times, ts, np.gradient(s2, ts))


@dataclass(frozen=True)
class GeneralOracleParams:
    """Inputs of the skin law on a time grid that starts at t = 0."""

    kappa: float                # ln r per unit length
    v0: float                   # counterpart group velocity at k0
    times: np.ndarray
    sigma_sq: np.ndarray        # sigma(t)^2 on the grid
    dsigma_sq_dt: np.ndarray    # its time derivative
    x0: float = 0.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.kappa, self.v0, self.x0))):
            raise InvalidParameter("GeneralOracleParams: kappa, v0 and x0 must be finite")


def general_peak(g: GeneralOracleParams) -> np.ndarray:
    """Peak position x0 + v0 t + 2 kappa [sigma(t)^2 - sigma(0)^2]."""
    return g.x0 + g.v0 * g.times + 2.0 * g.kappa * (g.sigma_sq - g.sigma_sq[0])


def general_velocities(g: GeneralOracleParams) -> tuple[np.ndarray, np.ndarray]:
    """(v_in, v_ref) = (v0, -v0) + 2 kappa d sigma^2/dt; every counterpart band is even."""
    vp = 2.0 * g.kappa * g.dsigma_sq_dt
    return g.v0 + vp, -g.v0 + vp
