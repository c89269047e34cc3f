#!/usr/bin/env python3
"""Cross-check the default route of full-size two-band presets against dense expm.

    PYTHONPATH=src python scripts/check_routes.py

Each of fig4, sm-spread-fast and sm-boundary is evolved over its own time
grid twice: on the route its config selects and with ``method="expm"``,
which steps a dense matrix exponential and shares no decomposition with it.  The script prints both routes and the largest
differences in per-site density and in log-norm, and exits 1 if either
exceeds 1e-7 on any preset.  Each expm run takes a few seconds.
"""

from __future__ import annotations

import sys

import numpy as np

from skinwave.evolve import evolve_series
from skinwave.model import build_hamiltonian
from skinwave.presets import get_preset
from skinwave.wavepacket import gaussian_state

TOLERANCE = 1e-7
PRESETS = ("fig4", "sm-spread-fast", "sm-boundary")


def route_gaps(name: str) -> tuple[str, float, float]:
    """(default route, max |density difference|, max |log-norm difference|) of preset ``name`` against expm."""
    cfg = get_preset(name)
    h = build_hamiltonian(cfg.model)
    psi0 = gaussian_state(h.geometry, cfg.packet)
    times = np.linspace(0.0, cfg.times.t_max, cfg.times.frame_count)
    default = evolve_series(h, psi0, times, method=cfg.method, spec=cfg.model)
    expm = evolve_series(h, psi0, times, method="expm")
    return (
        default.route,
        float(np.max(np.abs(default.site_densities - expm.site_densities))),
        float(np.max(np.abs(default.log_norms - expm.log_norms))),
    )


def main() -> int:
    failures = 0
    for name in PRESETS:
        route, density, log_norm = route_gaps(name)
        ok = density <= TOLERANCE and log_norm <= TOLERANCE
        failures += not ok
        print(f"{name:16s} {route:16s} vs expm: density {density:.2e}, log-norm {log_norm:.2e}"
              f"{'' if ok else f'  FAIL (> {TOLERANCE:.0e})'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
