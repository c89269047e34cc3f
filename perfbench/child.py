"""One run in one fresh process, as a user runs ``skinwave``: set up, then one call.

Run by ``run.py`` with the BLAS thread count fixed in this process's
environment.  A JSON job arrives on stdin (``argv``, ``trace``); one JSON
object leaves on stdout.  The process sets up (imports ``skinwave.cli`` and
builds the preset table), records when it was ready, then calls
``skinwave.cli.main(argv)`` in process with the program's output captured.
``run.py`` gates the output.

Just after set-up, and again just after the call, the process times a
fixed reference kernel (``reference_s``).  The program never runs it, so
its time moves only with the speed the shared host gives this process at
that moment; ``run.py`` scales the set-up and call times by it.

With ``trace`` set, the hooks of ``spans.py`` are installed before set-up
and removed after the call, and the spans, counters and self times leave
with the result.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time

import numpy

from spans import Hooks, Tracer

# a fixed symmetric matrix for the reference kernel, the same in every run
REFERENCE_MATRIX = numpy.random.default_rng(0).standard_normal((300, 300))
REFERENCE_MATRIX = REFERENCE_MATRIX + REFERENCE_MATRIX.T


def reference_s() -> float:
    """Seconds for ten LAPACK ``eigvalsh`` calls on a fixed 300x300 matrix (about 0.05 s).

    Of the kernels tried (eigvalsh, complex matmul, float formatting) its
    time tracked the program's own call times most closely on a shared
    2-vCPU host.
    """
    start = time.perf_counter()
    for _ in range(10):
        numpy.linalg.eigvalsh(REFERENCE_MATRIX)
    return time.perf_counter() - start


def set_up():
    """Ready state of a user's process: the CLI imported and its preset table built."""
    cli = importlib.import_module("skinwave.cli")
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["list-presets"]) != 0:
            raise RuntimeError("list-presets failed")
    return cli


def call(cli, argv: list[str]) -> dict:
    """One ``cli.main`` call; the attribute is read at call time so hooks apply."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        code, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return {"run_s": elapsed, "code": code, "error": error, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy: the record says so and the run goes on
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "skinwave": os.path.dirname(importlib.import_module("skinwave").__file__),
    }


def run_job(job: dict) -> dict:
    tracer = Tracer() if job["trace"] else None
    with Hooks(tracer) if tracer else contextlib.nullcontext() as hooks:
        if tracer:
            tracer.run_id = "setup"
        cli = set_up()
        # CLOCK_MONOTONIC, shared by every process: run.py compares it with the spawn
        ready = time.monotonic()
        reference_s()  # the first LAPACK call in a process pays for its own set-up
        before = reference_s()
        if tracer:
            tracer.run_id = job["label"]
        result = call(cli, job["argv"])
        after = reference_s()
    result.update(ready=ready, ref_s=[before, after], env=environment(),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer:
        own = tracer.self_times()
        result.update(layer_s=own.get(job["label"], {}), presets_s=own.get("setup", {}).get("presets", 0.0),
                      counts=dict(tracer.counts), distinct=sorted(tracer.distinct),
                      spans=tracer.spans, missing_hooks=hooks.missing,
                      hooks_restored=hooks.restored())
    return result


def main() -> int:
    print(json.dumps(run_job(json.load(sys.stdin))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
