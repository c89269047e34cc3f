"""Command-line entry point.

Subcommands:
  preset <name>   run a built-in experiment
  run <config>    run a JSON config file
  list-presets    show the preset table
"""

from __future__ import annotations

import argparse
import sys

from .errors import SkinwaveError
from .evolve import METHODS
from .presets import get_preset, preset_names
from .runner import format_report, run_config, run_preset


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output directory (overrides the config)")
    parser.add_argument(
        "--method",
        default=None,
        choices=METHODS,
        help="propagation method (overrides the config)",
    )
    parser.add_argument(
        "--no-heatmap", action="store_true", help="skip writing heatmap.pgm"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skinwave",
        description="Wave-packet dynamics in non-Hermitian lattices with open boundaries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_preset = sub.add_parser("preset", help="run a built-in experiment preset")
    p_preset.add_argument("name", help="preset id (see list-presets)")
    _add_run_flags(p_preset)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config file")
    p_run.add_argument("config", help="path to the config file")
    _add_run_flags(p_run)

    sub.add_parser("list-presets", help="list available preset ids")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-presets":
            for name in preset_names():
                cfg = get_preset(name)
                model = type(cfg.model).__name__
                print(f"{name:16s} {model:16s} k0={cfg.packet.k0:g} t_max={cfg.times.t_max:g}")
            return 0
        heatmap = False if args.no_heatmap else None
        if args.command == "preset":
            report = run_preset(args.name, out_dir=args.out, method=args.method, heatmap=heatmap)
        else:
            report = run_config(args.config, out_dir=args.out, method=args.method, heatmap=heatmap)
        print(format_report(report))
        return 0
    except SkinwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
