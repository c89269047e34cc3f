#!/usr/bin/env python3
"""Cross-check the default routes against the expm route's Taylor action: one case per chiral path and a sine case.

    PYTHONPATH=src python scripts/check_routes.py

Each case is evolved over its own time grid twice: on the route its config
selects and with ``method="expm"``, which steps the state with the truncated
Taylor action of the matrix exponential on H's bands and shares no
decomposition with it.  The cases are the full-size fig4, sm-spread-fast and
sm-boundary presets, a 40-cell edge-mode chain (t1 < t2), a 40-cell boundary
chain with an edge mode, and the full-size fig1c preset on the sine route.
The script prints each default route, the path its chiral modes took
(``ChiralModes.path``: standing waves, two segments or dense SVD) and the
largest differences in per-site density and in log-norm.  It exits 1 if
either difference exceeds 1e-7 on any case, or if some chiral path went
unchecked.  Each expm run of a preset takes a few seconds.
"""

from __future__ import annotations

import sys

import numpy as np

from skinwave.evolve import decompose_model, evolve_series
from skinwave.model import BoundarySSH, NonHermitianSSH, build_hamiltonian
from skinwave.presets import get_preset
from skinwave.wavepacket import GaussianParams, gaussian_state

TOLERANCE = 1e-7
CASES = ("fig4", "sm-spread-fast", "sm-boundary", "edge-mode", "edge-mode-boundary", "fig1c")
CHIRAL_PATHS = ("standing waves", "two segments", "dense SVD")


def case(name: str):
    """(model spec, packet, time grid, method) of preset ``name``, or of one of the two edge-mode chains."""
    if name.startswith("edge-mode"):
        # sigma_min of either chain's chiral block is near 0; the second block has two segments
        spec = NonHermitianSSH(1.0, 2.0, -0.2, 40) if name == "edge-mode" else BoundarySSH(1.0, 2.0, -0.2, 40, 8)
        return spec, GaussianParams(sigma=3.0, x0=20.0, k0=1.0), np.linspace(0.0, 15.0, 31), "auto"
    cfg = get_preset(name)
    return cfg.model, cfg.packet, np.linspace(0.0, cfg.times.t_max, cfg.times.frame_count), cfg.method


def route_gaps(name: str) -> tuple[str, str, float, float]:
    """(default route, its chiral path, max |density difference|, max |log-norm difference|) of case ``name`` against expm."""
    spec, packet, times, method = case(name)
    h = build_hamiltonian(spec)
    psi0 = gaussian_state(h.geometry, packet)
    default = evolve_series(h, psi0, times, method=method)
    path = decompose_model(h).path if default.route.startswith("chiral") else "-"
    expm = evolve_series(h, psi0, times, method="expm")
    return (
        default.route,
        path,
        float(np.max(np.abs(default.site_densities - expm.site_densities))),
        float(np.max(np.abs(default.log_norms - expm.log_norms))),
    )


def main() -> int:
    failures, paths = 0, set()
    for name in CASES:
        route, path, density, log_norm = route_gaps(name)
        paths.add(path)
        ok = density <= TOLERANCE and log_norm <= TOLERANCE
        failures += not ok
        print(f"{name:18s} {route:16s} {path:14s} vs expm: density {density:.2e}, log-norm {log_norm:.2e}"
              f"{'' if ok else f'  FAIL (> {TOLERANCE:.0e})'}")
    for path in CHIRAL_PATHS:
        if path not in paths:
            failures += 1
            print(f"no case took the chiral path '{path}'  FAIL")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
