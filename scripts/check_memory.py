#!/usr/bin/env python3
"""Check that the evolution streams its frames: a large grid's traced peak stays near its density array.

    PYTHONPATH=src python scripts/check_memory.py

Evolves a Gaussian packet on a 4,095-site continuum chain (dx 0.01, the
presets' box four times as long) over 1,024 frames, under ``tracemalloc``,
which sees every numpy array buffer.  The densities the run returns take
1,024 x 4,095 x 8 B = 33.5 MB; one complex (frames x dim) array would take
twice that.  The script prints the traced peak and the evolution's time,
and exits 1 if the peak exceeds 100 MB.
"""

from __future__ import annotations

import sys
import time
import tracemalloc

import numpy as np

from skinwave.evolve import evolve_series
from skinwave.model import ContinuousHN, build_hamiltonian
from skinwave.wavepacket import GaussianParams, gaussian_state

LIMIT_MB = 100.0
SPEC = ContinuousHN(m=1.0, b=1.0, length=40.95, dx=0.01)
PACKET = GaussianParams(sigma=0.25, x0=20.0, k0=0.0)
FRAMES = 1024


def main() -> int:
    h = build_hamiltonian(SPEC)
    psi0 = gaussian_state(h.geometry, PACKET)
    times = np.linspace(0.0, 1.2, FRAMES)
    tracemalloc.start()
    start = time.perf_counter()
    result = evolve_series(h, psi0, times, spec=SPEC)
    seconds = time.perf_counter() - start
    peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    density_mb = result.site_densities.nbytes / 1e6
    ok = peak_mb <= LIMIT_MB
    print(f"{h.dim} sites x {FRAMES} frames ({result.route}): traced peak {peak_mb:.1f} MB, "
          f"densities {density_mb:.1f} MB, evolution {seconds:.2f} s"
          f"{'' if ok else f'  FAIL (> {LIMIT_MB:g} MB)'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
