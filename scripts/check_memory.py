#!/usr/bin/env python3
"""Check the traced memory of two evolutions (a streamed default route and the expm route) and of one emit.

    PYTHONPATH=src python scripts/check_memory.py

Both cases run under ``tracemalloc``, which sees every numpy array buffer.

* streaming: a Gaussian packet on a 4,095-site continuum chain (dx 0.01,
  the presets' box four times as long) over 1,024 frames.  The densities
  the run returns take 1,024 x 4,095 x 8 B = 33.5 MB; one complex
  (frames x dim) array would take twice that.  It fails above 100 MB.
* expm: the ``sm-boundary`` preset (1,000 sites, 200 frames) with
  ``method="expm"``.  The Taylor action steps the state on H's bands, so
  beside the densities it holds only the generator's bands and a few
  length-N vectors; a dense N x N complex matrix would take 16 MB.  It
  fails above the densities plus 2 MB.
* emit: ``emit_outputs`` of the ``fig1a`` preset (200 frames x 1,000
  sites, a 13 MB ``density.csv``), traced from its call, so the peak is
  what it allocates above what the run holds on entry.  The files are
  streamed a chunk of frames at a time, with ``density.csv``'s digits
  formatted on a helper thread a bounded number of chunks ahead, so the
  peak is a few chunks' working set.  It fails above 3.5 MB.

The script prints each case's traced peak and its time, with the
densities of the two evolutions, and exits 1 if any case exceeds its
limit.
"""

from __future__ import annotations

import sys
import tempfile
import time
import tracemalloc

import numpy as np

from skinwave import runner
from skinwave.evolve import evolve_series
from skinwave.model import ContinuousHN, build_hamiltonian
from skinwave.presets import get_preset
from skinwave.wavepacket import GaussianParams, gaussian_state

STREAMING_LIMIT_MB = 100.0
SPEC = ContinuousHN(m=1.0, b=1.0, length=40.95, dx=0.01)
PACKET = GaussianParams(sigma=0.25, x0=20.0, k0=0.0)
FRAMES = 1024
EXPM_SLACK_MB = 2.0
EMIT_LIMIT_MB = 3.5


def traced(spec, packet, times, method: str):
    """(result, traced peak in MB, seconds) of one evolution of ``packet`` on ``spec``."""
    h = build_hamiltonian(spec)
    psi0 = gaussian_state(h.geometry, packet)
    tracemalloc.start()
    start = time.perf_counter()
    result = evolve_series(h, psi0, times, method=method)
    seconds = time.perf_counter() - start
    peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()
    return result, peak_mb, seconds


def report(name: str, result, peak_mb: float, seconds: float, limit_mb: float) -> bool:
    frames, dim = result.site_densities.shape
    ok = peak_mb <= limit_mb
    print(f"{name:9s} {dim} sites x {frames} frames ({result.route}): traced peak {peak_mb:.1f} MB "
          f"(limit {limit_mb:.1f}), densities {result.site_densities.nbytes / 1e6:.1f} MB, "
          f"evolution {seconds:.2f} s{'' if ok else '  FAIL'}")
    return ok


def traced_emit(preset: str):
    """(traced peak of ``emit_outputs`` in MB, seconds) for one run of ``preset`` into a temporary directory."""
    emit, measured = runner.emit_outputs, []

    def traced(*args):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            return emit(*args)
        finally:
            measured.extend([tracemalloc.get_traced_memory()[1] / 1e6, time.perf_counter() - start])
            tracemalloc.stop()

    runner.emit_outputs = traced
    try:
        with tempfile.TemporaryDirectory() as out:
            runner.run_preset(preset, out_dir=out)
    finally:
        runner.emit_outputs = emit
    return measured


def main() -> int:
    streaming = traced(SPEC, PACKET, np.linspace(0.0, 1.2, FRAMES), "auto")
    ok = report("streaming", *streaming, STREAMING_LIMIT_MB)
    cfg = get_preset("sm-boundary")
    result, peak_mb, seconds = traced(
        cfg.model, cfg.packet, np.linspace(0.0, cfg.times.t_max, cfg.times.frame_count), "expm"
    )
    limit_mb = result.site_densities.nbytes / 1e6 + EXPM_SLACK_MB
    ok &= report("expm", result, peak_mb, seconds, limit_mb)
    peak_mb, seconds = traced_emit("fig1a")
    print(f"{'emit':9s} fig1a: traced peak {peak_mb:.2f} MB (limit {EMIT_LIMIT_MB:.1f}), "
          f"emit {seconds:.3f} s{'' if peak_mb <= EMIT_LIMIT_MB else '  FAIL'}")
    ok &= peak_mb <= EMIT_LIMIT_MB
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
