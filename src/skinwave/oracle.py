"""Closed-form predictions the simulations are checked against.

One law gives the peak of every family with a Hermitian counterpart:
x(t) = x0 + v0 t + 2 kappa [sigma(t)^2 - sigma(0)^2], with kappa = ln r per
unit length, v0 the counterpart's group velocity at k0, and sigma(t) the
width of the counterpart packet, spreading at the band curvature E''(k0):
sigma(t)^2 = sigma^2 + (E'' t)^2 / (4 sigma^2).  The continuum chain supplies
kappa = b m and E'' = 1/m; the lattices supply ln r of their similarity and
the curvature of their counterpart band.  Nothing is read from the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter


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


def width_series(sigma: float, curvature: float, t) -> tuple[np.ndarray, np.ndarray]:
    """(sigma(t)^2, d sigma(t)^2/dt) of a Gaussian packet on a band of curvature c = E''(k0).

    sigma^2 + (c t)^2 / (4 sigma^2) and c^2 t / (2 sigma^2), with ``sigma`` the
    width at t = 0 and c from ``model.band_curvature``; the continuum's
    c = 1/m gives ``sigma_sq_t``.
    """
    ct = curvature * t
    return sigma**2 + ct * ct / (4.0 * sigma**2), curvature * curvature * t / (2.0 * sigma**2)


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
