#!/usr/bin/env python3
"""skinwave benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload continuum-chain --seed 1 --seconds 26 --trace 0

Runs one workload (see ``workloads.py``) the way a user runs ``skinwave``:
each run is a fresh process with one BLAS thread that sets up and calls
``skinwave.cli.main`` once, in process (see ``child.py``); closed loop, one
client.  Whole passes over the workload's run list repeat, each in a seeded
order, until the next pass would end past ``--seconds`` (or past
``REAL_TIME_CAP`` times that in real time); at least two passes run so that
every output is compared with an earlier pass.

The end-to-end times, and the ``--seconds`` deadline, are in reference
seconds: each measured time is multiplied by ``REFERENCE_S`` over the time
of a fixed kernel that its own process ran beside it (see
``child.reference_s``).  On a shared host whose speed drifts by tens of
percent within minutes this removes most of the drift from the program's
times, and a fresh process per run averages out the speed one process
happens to get; the summary prints the raw seconds too.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and the result carries
the per-layer metrics.  Every run is gated (see ``gate.py``); the last line
of stdout is the JSON result, the lines before it a readable summary.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from gate import gate, read_trajectory, trajectory_gap
from workloads import PAIR_TOLERANCE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_PASSES = 2
# on a host far slower than usual the run still ends: no pass starts that
# would end past this many times --seconds of real time
REAL_TIME_CAP = 1.75
CHILD_TIMEOUT_S = 120
# nominal time of child.reference_s, about its median on the baseline host
# (2-vCPU Xeon VM at 2.1 GHz, one BLAS thread): reference seconds read as
# seconds on that host at its usual speed
REFERENCE_S = 0.05

E2E_UNITS = {"wall_s": "s", "run_s.p50": "s", "run_s.tail": "s", "setup_s": "s",
             "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "presets.self_s": "s",
    "model.self_s": "s",
    "model.matrix_bytes": "bytes",
    "evolve.decompose.self_s": "s",
    "evolve.decompose.calls": "count",
    "evolve.decompose.generic_calls": "count",
    "evolve.decompose.refused": "count",
    "evolve.decompose.distinct_frac": "ratio",
    "evolve.decompose.basis_bytes": "bytes",
    "evolve.propagate.self_s": "s",
    "evolve.propagate.frames": "count",
    "evolve.propagate.frame_sites": "count",
    "evolve.expm.self_s": "s",
    "evolve.expm.calls": "count",
    "wavepacket.self_s": "s",
    "wavepacket.width_ok_frac": "ratio",
    "oracle.self_s": "s",
    "oracle.velocity_calls": "count",
    "runner.emit.self_s": "s",
    "runner.emit.bytes": "bytes",
    "runner.emit.files": "count",
    "runner.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.residual_s": "s",
    "trace.overhead_s": "s",
}
COMPUTED = ("model.matrix_bytes", "evolve.decompose.basis_bytes", "runner.emit.bytes")
COUNTED = ("evolve.decompose.calls", "evolve.decompose.generic_calls",
           "evolve.decompose.refused", "evolve.decompose.basis_bytes", "model.matrix_bytes",
           "evolve.propagate.frames", "evolve.propagate.frame_sites", "evolve.expm.calls",
           "oracle.velocity_calls", "runner.emit.bytes", "runner.emit.files")


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, **BLAS_THREADS)
    # set-up reads compiled bytecode, as an installed package does
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(label: str, argv: list[str], trace: bool) -> dict:
    """One run in a fresh process; ``setup_s`` is its spawn-to-ready time.

    The child reports ``time.monotonic()`` when ready; on Linux that clock is
    CLOCK_MONOTONIC, which every process shares.
    """
    job = json.dumps({"label": label, "argv": argv, "trace": trace})
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py")], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(job, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"run {label} exceeded {CHILD_TIMEOUT_S} s")
    except BaseException:  # interrupted: leave no process behind
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"process of run {label} failed (exit {proc.returncode})")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def layer_metrics(children: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced pass, from its runs' processes."""
    own = {layer: sum(c["layer_s"].get(layer, 0.0) for c in children)
           for layer in children[0]["layer_s"] if layer not in ("presets", "trace")}
    counts = Counter()
    for c in children:
        counts.update(c["counts"])
    calls = counts["evolve.decompose.calls"]
    frames = counts["wavepacket.frames"]
    distinct = set().union(*(c["distinct"] for c in children))
    wall = sum(c["run_s"] for c in children)
    m = {f"{layer}.self_s": t for layer, t in own.items()}
    m.update({name: counts[name] for name in COUNTED})
    m.update({
        "evolve.decompose.distinct_frac": len(distinct) / calls if calls else 0.0,
        "wavepacket.width_ok_frac": counts["wavepacket.width_ok_frames"] / frames if frames else 0.0,
        "trace.wall_s": wall,
        "trace.residual_s": wall - sum(own.values()),
    })
    return m


def run_pass(spec: dict, order: list[dict], work: Path, traced: bool,
             manifests: dict) -> dict:
    """One call per run, each in its own process, gated after it ends."""
    records, trajectories, children = [], {}, []
    pair = spec["pair"]
    for run in order:
        out_dir = work / run["label"]
        result = spawn(run["label"], run["argv"] + ["--out", str(out_dir)], traced)
        reason = gate(run, result, out_dir, manifests)
        if reason is None and pair and run["label"] in pair:
            path = out_dir / "trajectory.csv"
            if path.is_file():
                trajectories[run["label"]] = read_trajectory(path)
            else:
                reason = "no trajectory.csv to cross-check"
        before, after = result["ref_s"]
        records.append({
            "label": run["label"], "failed": reason, "run_s": result["run_s"],
            "setup_s": result["setup_s"], "ref_s": (before + after) / 2,
            # the host's speed during the call: the kernels just before and just after it
            "scaled_s": result["run_s"] * REFERENCE_S / ((before + after) / 2),
            "setup_scaled_s": result["setup_s"] * REFERENCE_S / before,
            "peak_rss_mb": result["peak_rss_mb"],
        })
        if traced:
            children.append(result)
    if pair and len(trajectories) == 2:
        gap = trajectory_gap(*(trajectories[label] for label in pair))
        if not gap <= PAIR_TOLERANCE:
            for record in records:
                if record["label"] == pair[1]:
                    record["failed"] = f"differs from {pair[0]} by {gap:.3g}"
    record = {"traced": traced, "runs": records, "env": result["env"]}
    if traced:
        record["layers"] = layer_metrics(children)
        record["run_layers"] = {c_run["label"]: c["layer_s"] for c_run, c in zip(order, children)}
        record["presets_s"] = [c["presets_s"] for c in children]
        record["missing_hooks"] = sorted(set().union(*(c["missing_hooks"] for c in children)))
        record["hooks_restored"] = all(c["hooks_restored"] for c in children)
        record["spans"] = [{"run": c_run["label"], "spans": c["spans"]}
                           for c_run, c in zip(order, children)]
    return record


def run_passes(spec: dict, seed: int, seconds: float, trace: bool) -> list[dict]:
    work = SCRATCH / f"run-{os.getpid()}"
    rng = random.Random(seed)
    manifests: dict = {}
    passes = []
    spent = 0.0  # reference seconds of the calls so far
    start = time.monotonic()
    try:
        while True:
            traced = trace and len(passes) % 2 == 1
            order = rng.sample(spec["runs"], len(spec["runs"]))
            began = time.monotonic()
            passes.append(run_pass(spec, order, work, traced, manifests))
            # the deadline is in reference seconds, so that a drift of the
            # host's speed does not change the number of passes and samples
            took = sum(r["scaled_s"] for r in passes[-1]["runs"])
            spent += took
            now = time.monotonic()
            late = now - start + (now - began) > REAL_TIME_CAP * seconds
            if len(passes) >= MIN_PASSES and (spent + took > seconds or late):
                return passes
    finally:
        shutil.rmtree(work, ignore_errors=True)


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest sample with at least ten samples beyond it, and its percentile.

    With fewer than eleven samples no sample qualifies and the lowest one is
    reported; the percentile printed beside it says so.
    """
    ordered = sorted(samples)
    rank = max(0, len(ordered) - 11)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() or "unavailable"


def measure(workload: str, spec: dict, seed: int, seconds: float,
            trace: bool) -> tuple[dict, list[str]]:
    """One benchmark run: the result object and the summary lines printed before it."""
    if not (SRC / "skinwave" / "cli.py").is_file():
        raise BenchError(f"no skinwave sources under {SRC}")
    passes = run_passes(spec, seed, seconds, trace)

    records = [r for p in passes for r in p["runs"]]
    failures = [r for r in records if r["failed"]]
    plain = [r for p in passes if not p["traced"] for r in p["runs"]]
    samples = [r["scaled_s"] for r in plain]
    wall = statistics.median(sum(r["scaled_s"] for r in p["runs"])
                             for p in passes if not p["traced"])
    raw_wall = statistics.median(sum(r["run_s"] for r in p["runs"])
                                 for p in passes if not p["traced"])
    tail_s, tail_pct = tail(samples)
    env = dict(passes[0]["env"], cpu_count=os.cpu_count(), blas_threads=BLAS_THREADS,
               git_commit=git_commit(), workload=workload, seed=seed)

    lines = [f"workload {workload}, seed {seed}, trace {int(trace)}: {len(passes)} passes, "
             f"{len(records)} runs, {len(failures)} failed"]
    lines += [f"  FAILED {r['label']}: {r['failed']}" for r in failures]
    lines.append(f"  reference kernel {statistics.median(r['ref_s'] for r in records):.4g} s "
                 f"(median; nominal {REFERENCE_S} s); raw seconds: pass {raw_wall:.4g}, "
                 f"call median {statistics.median(r['run_s'] for r in plain):.4g}, "
                 f"set-up median {statistics.median(r['setup_s'] for r in plain):.4g}")
    hooks_restored = True
    if trace:
        traced = [p for p in passes if p["traced"]]
        hooks_restored = all(p["hooks_restored"] for p in traced)
        measured = {name: statistics.median(p["layers"][name] for p in traced)
                    for name in traced[0]["layers"]}
        measured["presets.self_s"] = statistics.median(t for p in traced for t in p["presets_s"])
        measured["trace.overhead_s"] = measured["trace.wall_s"] - raw_wall
        metrics = {name: measured.get(name, 0.0) for name in LAYER_UNITS}
        units = LAYER_UNITS
        trace_file = SCRATCH / "traces" / f"{workload}-seed{seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps({
            "fields": ["layer", "start", "end", "parent", "run_id"],
            "passes": [{"pass": i, "processes": p["spans"]}
                       for i, p in enumerate(passes) if p["traced"]]}))
        lines.append(f"  hooks missing: {traced[0]['missing_hooks'] or 'none'}; "
                     f"restored after tracing: {hooks_restored}; spans in {trace_file}")
        for label in dict.fromkeys(r["label"] for r in spec["runs"]):
            own = {layer: statistics.median(p["run_layers"][label].get(layer, 0.0)
                                            for p in traced)
                   for layer in traced[0]["run_layers"][label] if layer != "trace"}
            total = sum(own.values())
            top = sorted(own.items(), key=lambda kv: -kv[1])[:3]
            lines.append(f"  run {label}: {total:.3f} s of layer self time, "
                         + ", ".join(f"{layer} {t / total:.0%}" for layer, t in top))
    else:
        metrics = {"wall_s": wall, "run_s.p50": statistics.median(samples), "run_s.tail": tail_s,
                   "setup_s": statistics.median(r["setup_scaled_s"] for r in plain),
                   "peak_rss_mb": max(r["peak_rss_mb"] for r in plain)}
        units = E2E_UNITS
    for name, value in metrics.items():
        note = ""
        if name == "run_s.tail":
            note = f"p{tail_pct:.1f} of {len(samples)} samples"
        elif name in COMPUTED:
            note = "computed from array and file sizes"
        lines.append(f"  {name:32s} {value:<14.6g} {units[name]:6s} {note}".rstrip())
    lines.append(f"  {'fail_frac':32s} {len(failures) / len(records):<14.6g} "
                 f"{'ratio':6s} {len(failures)} of {len(records)} runs")
    lines.append("env " + json.dumps(env, sort_keys=True))

    missing = sorted({m for p in passes if p["traced"] for m in p["missing_hooks"]})
    result = {
        "correct": not failures and hooks_restored,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "hooks_restored": hooks_restored,
        "missing_hooks": missing,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = measure(args.workload, WORKLOADS[args.workload], args.seed,
                                args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
