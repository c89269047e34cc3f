"""Closed-form predictions the simulations are checked against.

One law gives the peak of every family with a Hermitian counterpart:
x(t) = x0 + v0 t + 2 kappa [sigma(t)^2 - sigma(0)^2], with kappa = ln r per
unit length, v0 the counterpart's group velocity at k0, and sigma(t) the
width of the counterpart packet, spreading at the band curvature E''(k0):
sigma(t)^2 = sigma^2 + (E'' t)^2 / (4 sigma^2).  Every uniform chain, the
continuum grid included, supplies ln r of its similarity and the velocity and
curvature of its own counterpart band.  Nothing is read from the run.  The
paper's dx -> 0 forms of the continuum (kappa = b m, v0 = k0/m, E'' = 1/m)
are what these tend to on a fine grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter


def width_series(sigma: float, curvature: float, t) -> tuple[np.ndarray, np.ndarray]:
    """(sigma(t)^2, d sigma(t)^2/dt) of a Gaussian packet on a band of curvature c = E''(k0).

    sigma^2 + (c t)^2 / (4 sigma^2) and c^2 t / (2 sigma^2), with ``sigma`` the
    width at t = 0 and c from ``model.band_curvature``.
    """
    ct = curvature * t
    return sigma**2 + ct * ct / (4.0 * sigma**2), curvature * curvature * t / (2.0 * sigma**2)


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
