"""The correctness gate: why one ``cli.main`` call failed, or None.

A call fails when it raises or exits non-zero; when its report lacks a
required line, holds a non-finite number or lists no outputs; when its
classification differs from the workload's pin; when a written file does
not match its sha256 entry; or when its manifest differs from the same
run's manifest in an earlier pass.  ``trajectory_gap`` serves the
cross-check of a workload's ``pair``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from pathlib import Path

REQUIRED_LINES = ("experiment:", "method:", "classification:", "outputs:")
NOT_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def parse_report(text: str) -> tuple[str | None, dict[str, str]]:
    classification, manifest = None, {}
    for line in text.splitlines():
        if line.startswith("classification:"):
            classification = line.split(":", 1)[1].strip()
        elif line.startswith("  ") and " sha256=" in line:
            name, digest = line.strip().split(" sha256=")
            manifest[name] = digest
    return classification, manifest


def read_trajectory(path: Path) -> dict[str, list[float]]:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {col: [float(r[col]) if r[col] else math.nan for r in rows]
            for col in ("x_peak", "log_norm")}


def trajectory_gap(a: dict, b: dict) -> float:
    """Largest difference between two trajectories; inf if their shapes or gaps differ."""
    worst = 0.0
    for col in a:
        if len(a[col]) != len(b[col]):
            return math.inf
        for x, y in zip(a[col], b[col]):
            if math.isnan(x) != math.isnan(y):
                return math.inf
            if not math.isnan(x):
                worst = max(worst, abs(x - y))
    return worst


def gate(run: dict, result: dict, out_dir: Path, manifests: dict) -> str | None:
    """Why a run failed, or None.  ``manifests`` holds each label's first manifest."""
    if result["error"]:
        return result["error"]
    if result["code"] != 0:
        return f"exit code {result['code']}: {result['stderr'].strip()}"
    text = result["stdout"]
    missing = [p for p in REQUIRED_LINES if not any(l.startswith(p) for l in text.splitlines())]
    if missing:
        return f"report lacks {missing}"
    if NOT_FINITE.search(text):
        return "report holds a non-finite number"
    classification, manifest = parse_report(text)
    if not manifest:
        return "report lists no outputs"
    if run["expect"] is not None and classification != run["expect"]:
        return f"classification {classification!r}, expected {run['expect']!r}"
    for name, digest in manifest.items():
        path = out_dir / name
        if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            return f"{name} does not match its manifest entry"
    first = manifests.setdefault(run["label"], manifest)
    if first != manifest:
        return "manifest differs from an earlier pass"
    return None
