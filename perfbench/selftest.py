#!/usr/bin/env python3
"""Self-test of the benchmark on small specs, one per propagation route.

    python3 perfbench/selftest.py

Runs a chain, a two-band chain, a generic (eig) run and its expm
cross-check through the same ``run.measure`` as the real workloads,
untraced and traced.  Checks that every metric named in BENCHMARK.json
appears with its unit, that the traced run restores every hook and misses
none, and that the gate flags a deliberately wrong expected
classification.  Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import sys

import run

_LATTICE_ANALYSIS = {"smoothing_window": 5, "contact_threshold": 4.0, "guard_band": 5}
SPECS = {
    "chain": {
        "model": {"family": "continuous_hn", "m": 1.0, "b": 1.0, "length": 10.0, "dx": 0.05},
        "packet": {"sigma": 0.25, "x0": 5.0, "k0": 0.0},
        "times": {"t_max": 1.2, "frame_count": 60},
        "analysis": {"smoothing_window": 5, "contact_threshold": 7.0, "guard_band": 5},
    },
    "two-band": {
        "model": {"family": "non_hermitian_ssh", "t1": 2.0, "t2": 1.0, "gamma": -0.2,
                  "n_cells": 60, "axis": "y"},
        "packet": {"sigma": 6.0, "x0": 30.0, "k0": 0.0},
        "times": {"t_max": 400.0, "frame_count": 60},
        "analysis": _LATTICE_ANALYSIS,
    },
    "boundary": {
        "model": {"family": "boundary_ssh", "t1": 20.0, "t2": 10.0, "gamma": -2.0,
                  "n_cells": 60, "boundary_cells": 8, "axis": "z"},
        "packet": {"sigma": 6.0, "x0": 30.0, "k0": 1.0},
        "times": {"t_max": 60.0, "frame_count": 60},
        "analysis": dict(_LATTICE_ANALYSIS, contact_wall="right"),
    },
}


def small_workload() -> dict:
    directory = run.SCRATCH / "selftest"
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, spec in SPECS.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(dict(spec, name=name)))
    return {
        "runs": [
            {"label": "chain", "argv": ["run", str(paths["chain"])], "expect": "stuck"},
            {"label": "two-band", "argv": ["run", str(paths["two-band"])], "expect": "no_contact"},
            {"label": "generic", "argv": ["run", str(paths["boundary"])], "expect": "reflected"},
            {"label": "expm", "argv": ["run", str(paths["boundary"]), "--method", "expm"],
             "expect": "reflected"},
        ],
        "pair": ["generic", "expm"],
    }


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    spec = small_workload()
    problems = []

    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, lines = run.measure("selftest", spec, seed=0, seconds=0, trace=trace)
        print("\n".join(lines))
        if not result["correct"] or result["failed"]:
            problems.append(f"trace={int(trace)}: small specs failed the gate")
        for metric in declared[section]:
            got = result["metrics"].get(metric["name"])
            if got is None or got["unit"] != metric["unit"]:
                problems.append(f"{metric['name']}: missing or unit {got and got['unit']!r}")
        if sorted(result["metrics"]) != sorted(m["name"] for m in declared[section]):
            problems.append(f"{section}: reported names differ from BENCHMARK.json")
        if trace and not result["hooks_restored"]:
            problems.append("a hook was not restored after the traced passes")
        if trace and result["missing_hooks"]:
            problems.append(f"hooks missing: {result['missing_hooks']}")

    wrong = copy.deepcopy(spec)
    wrong["runs"][0]["expect"] = "reflected"
    result, lines = run.measure("selftest", wrong, seed=0, seconds=0, trace=False)
    if result["correct"] or not any("expected 'reflected'" in line for line in lines):
        problems.append("the gate accepted a wrong expected classification")

    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
