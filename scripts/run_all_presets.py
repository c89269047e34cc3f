#!/usr/bin/env python3
"""Run every built-in preset and print a one-line summary table.

Usage:
    python scripts/run_all_presets.py [--out DIR] [--method spectral|expm|auto]

Writes each preset's CSV/heatmap outputs under DIR/<preset>/ (default out/).
A preset that is another one under a second name (fig3 is fig1c) is listed
as its alias and not run again.
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from skinwave.presets import get_preset, preset_names
from skinwave.runner import run_preset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="base output directory")
    parser.add_argument(
        "--method", default=None, choices=("spectral", "expm", "auto"), help="override method"
    )
    args = parser.parse_args()

    base = Path(args.out)
    print(f"{'preset':16s} {'method':8s} {'route':14s} {'class':10s} {'contact':>9s} {'v_in(mid)':>10s} "
          f"{'v_ref(mid)':>10s} {'oracle_dev':>10s} {'secs':>6s}")
    failures = 0
    first_of = {}   # a run's config, with its name and directory blanked -> the preset that ran it
    for name in preset_names():
        cfg = get_preset(name)
        run = dataclasses.replace(cfg, name="", output=dataclasses.replace(cfg.output, directory=""))
        if run in first_of:
            print(f"{name:16s} alias of {first_of[run]}")
            continue
        first_of[run] = name
        start = time.time()
        try:
            report = run_preset(name, out_dir=base / name, method=args.method)
        except Exception as exc:
            failures += 1
            print(f"{name:16s} ERROR: {exc}")
            continue
        v_in = report.v_in_fit.value_at_midpoint if report.v_in_fit else float("nan")
        v_ref = report.v_ref_fit.value_at_midpoint if report.v_ref_fit else float("nan")
        contact = report.contact_time if report.contact_time is not None else float("nan")
        dev = report.max_oracle_deviation if report.max_oracle_deviation is not None else float("nan")
        print(
            f"{name:16s} {report.method:8s} {report.route:14s} {report.classification:10s} {contact:9.3g} {v_in:10.3g} "
            f"{v_ref:10.3g} {dev:10.3g} {time.time() - start:6.1f}"
        )
        for note in report.notes:
            print(f"    {note}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
