"""Experiment pipeline: evolve, measure, compare to the closed forms, emit files.

Output files are byte-deterministic: numbers are written with Python's
shortest round-trip repr and no timestamps or environment data enter the
files.  The report (returned and printed by the CLI) carries classification,
velocity fits, oracle deviations, and a sha256 manifest of everything written.
"""

from __future__ import annotations

import hashlib
import math
import operator
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .errors import WidthUnavailable
from .evolve import EvolutionResult, evolve_series
from .model import BoundarySSH, ContinuousHN, ModelSpec, build_hamiltonian, group_velocity
from .oracle import (
    GeneralOracleParams,
    HNOracleParams,
    general_peak,
    general_velocities,
    hn_width_series,
    measured_width_series,
)
from .presets import get_preset
from .similarity import skin_factor_per_unit_length
from .wavepacket import (
    LinearFit,
    ReflectionOutcome,
    TrajectorySeries,
    aggregate_density,
    classify_reflection,
    extract_trajectory,
    fit_peak_velocity_slope,
    gaussian_state,
    top_two_peaks,
)


@dataclass(frozen=True)
class OracleSeries:
    """Closed-form trajectory and velocities on the frame grid (nan = not valid)."""

    times: np.ndarray
    x_peak: np.ndarray
    v_in: np.ndarray
    v_ref: np.ndarray
    note: str | None = None   # why the oracle does not apply to the run


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    classification: str
    route: str   # 'sine', 'chiral', either '+rotation', 'generic' or 'expm'
    v_in_fit: LinearFit | None
    v_ref_fit: LinearFit | None
    v_p_slope: float | None
    max_oracle_deviation: float | None
    contact_time: float | None
    manifest: dict[str, str] = field(default_factory=dict)
    notes: tuple[str, ...] = ()
    window_truncated: bool = False

    @property
    def method(self) -> str:
        return "expm" if self.route == "expm" else "spectral"


def oracle_series(
    spec: ModelSpec, packet, trajectory: TrajectorySeries, guard_band: int = 0
) -> tuple[OracleSeries, float | None]:
    """Closed-form trajectory for the run plus its max pre-contact deviation.

    Every family with a uniform skin factor gets the one skin law: the
    continuum chain with kappa = b m and its analytic width, the uniform
    lattices with kappa = ln r and their measured width series.
    ``boundary_ssh`` and chains with no Hermitian counterpart get empty
    columns and a note saying why.  The oracle trajectory is blanked after
    wall contact (free-evolution validity only), incident velocities before
    contact, reflected velocities after.  The deviation skips the guard band
    before contact, where the peak is already transitioning onto the wall.
    """
    times = trajectory.times
    pre = trajectory.approach()

    x_o, v_in, v_ref = np.full((3, len(times)), np.nan)
    deviation, note, widths = None, None, None

    if isinstance(spec, ContinuousHN):
        kappa = spec.b * spec.m
        widths = hn_width_series(HNOracleParams(m=spec.m, b=spec.b, sigma=packet.sigma), times)
    elif isinstance(spec, BoundarySSH):  # bulk r = 1: no uniform-skin law to deviate from
        note = "oracle: n/a (boundary_ssh has no uniform skin factor)"
    elif (r := skin_factor_per_unit_length(spec)) is None:
        note = "oracle: n/a (no Hermitian counterpart)"
    else:
        kappa = math.log(r)
        try:
            widths = measured_width_series(times, trajectory.sigma_measured)
        except WidthUnavailable:
            pass
    if widths is not None:
        v0 = group_velocity(spec, packet.k0, band=-1)  # lower band of two-band chains
        g = GeneralOracleParams(kappa, v0, times, *widths, x0=packet.x0)
        x_o = general_peak(g)
        v_in, v_ref = general_velocities(g)

    mask = trajectory.approach(guard_band) & np.isfinite(x_o)
    if np.any(mask):
        deviation = float(np.max(np.abs(trajectory.x_peak[mask] - x_o[mask])))

    x_o[~pre] = np.nan
    v_in[~pre] = np.nan
    v_ref[pre] = np.nan   # every frame when there is no contact
    return OracleSeries(times=times, x_peak=x_o, v_in=v_in, v_ref=v_ref, note=note), deviation


def _column(values) -> list[str]:
    """Shortest round-trip decimal of each value; empty for nan."""
    return ["" if v != v else repr(v) for v in np.asarray(values, dtype=float).tolist()]


def _write_table(path: Path, header: str, rows) -> Path:
    """Stream rows of formatted cells to a CSV file below its header line."""
    with path.open("w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)
    return path


def _rows(*columns):
    """One row of formatted cells per sample of equally long columns."""
    return zip(*map(_column, columns))


_MAX_BLOCKS = 8
# a smaller block of density cells is not worth its fork and part file (a few ms each)
_MIN_BLOCK_CELLS = 20_000


def _cpu_count() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _frame_blocks(frames: int, sites: int) -> list[slice]:
    """Contiguous frame blocks, one per allowed CPU, but no more than keep each worth a fork."""
    count = 1
    if hasattr(os, "fork"):
        count = max(1, min(_cpu_count(), _MAX_BLOCKS, frames, frames * sites // _MIN_BLOCK_CELLS))
    edges = [frames * k // count for k in range(count + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _density_frames(xs: list[str], ts: list[str], lns: list[str], dens: np.ndarray):
    """One string of (t, x, density, log_norm) rows per frame, built with a single join.

    ``xs`` are the formatted positions, each with its trailing comma; ``ts``
    and ``lns`` the formatted time and log-norm of each frame of ``dens``.
    """
    for t, ln, frame in zip(ts, lns, dens):
        yield f"{t}," + f",{ln}\n{t},".join(map(operator.add, xs, _column(frame))) + f",{ln}\n"


def _fork_block(part: Path, *block) -> int | None:
    """Format one block of frames into ``part`` in a forked worker; its pid, or None if no fork."""
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid == 0:   # the worker: no BLAS, no imports, and it never returns
        code = 1
        try:
            with open(part, "w") as fh:
                fh.writelines(_density_frames(*block))
            code = 0
        finally:
            os._exit(code)
    return pid


def _joined(pid: int | None) -> bool:
    """Wait for a worker; True if it wrote its whole part and exited cleanly."""
    if pid is None:
        return False
    try:
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    except ChildProcessError:   # reaped elsewhere (SIGCHLD ignored): its part is not trusted
        return False


def _write_density(path: Path, result: EvolutionResult, dens: np.ndarray) -> Path:
    """Stream density.csv, its contiguous frame blocks formatted on every CPU the run may use.

    The parent writes the header and block 0 itself, then appends each
    worker's part file in frame order; a block whose fork or worker failed
    is formatted by the parent instead.  The bytes never depend on the count.
    """
    xs = [x + "," for x in _column(result.geometry.density_positions)]
    ts, lns = _column(result.times), _column(result.log_norms)

    def block(frames: slice):
        return xs, ts[frames], lns[frames], dens[frames]

    first, *rest = _frame_blocks(*dens.shape)
    parts = [path.with_name(f".{path.name}.part{k}") for k in range(1, len(rest) + 1)]
    pids = {}
    try:
        for part, frames in zip(parts, rest):
            pids[part] = _fork_block(part, *block(frames))
        with path.open("w") as fh:
            fh.write("t,x,density,log_norm\n")
            fh.writelines(_density_frames(*block(first)))
            for part, frames in zip(parts, rest):
                if _joined(pids.pop(part)):
                    fh.flush()
                    with open(part, "rb") as src:
                        shutil.copyfileobj(src, fh.buffer)
                else:
                    fh.writelines(_density_frames(*block(frames)))
    finally:
        for pid in pids.values():
            _joined(pid)
        for part in parts:
            part.unlink(missing_ok=True)
    return path


def _write_heatmap_pgm(path: Path, dens: np.ndarray) -> Path:
    """Binary graymap, one row per frame, each row scaled to its own maximum."""
    peak = dens.max(axis=1, keepdims=True)
    # a row with no positive density divides by inf and is written as zeros
    pixels = np.round(255.0 * dens / np.where(peak > 0, peak, np.inf)).astype(np.uint8)
    frames, width = dens.shape
    path.write_bytes(f"P5\n{width} {frames}\n255\n".encode("ascii") + pixels.tobytes())
    return path


def emit_outputs(
    result: EvolutionResult,
    trajectory: TrajectorySeries,
    oracle: OracleSeries,
    config: ExperimentConfig,
) -> dict[str, str]:
    """Write the requested artifacts and return a name -> sha256 manifest."""
    opts = config.output
    out_dir = Path(opts.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    dens = aggregate_density(result.site_densities, result.geometry)
    tr = trajectory
    written = [_write_density(out_dir / "density.csv", result, dens)] if opts.density_csv else []
    tables = (
        (opts.trajectory_csv, "trajectory.csv", "t,x_peak,v_peak,sigma_measured,log_norm",
         _rows(tr.times, tr.x_peak, tr.v_peak, tr.sigma_measured, tr.log_norm)),
        (opts.oracle_csv, "oracle.csv", "t,x_peak_oracle,v_in_oracle,v_ref_oracle",
         _rows(oracle.times, oracle.x_peak, oracle.v_in, oracle.v_ref)),
    )
    written += [_write_table(out_dir / name, head, rows) for on, name, head, rows in tables if on]
    if opts.heatmap:
        written.append(_write_heatmap_pgm(out_dir / "heatmap.pgm", dens))
    return {p.name: _sha256(p) for p in written}


def _sha256(path: Path, chunk: int = 1 << 20) -> str:
    """sha256 of a file read in fixed-size chunks, so a large table is never held whole."""
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(chunk), b""):
            digest.update(block)
    return digest.hexdigest()


def _snapshot_notes(result: EvolutionResult, config: ExperimentConfig) -> tuple[str, ...]:
    notes = []
    ks = [int(np.argmin(np.abs(result.times - t_snap))) for t_snap in config.snapshot_times]
    for k, dens in zip(ks, aggregate_density(result.site_densities[ks], result.geometry)):
        peaks = top_two_peaks(dens, result.geometry)
        desc = "; ".join(f"x={x:.2f} height={h:.3e}" for x, h in peaks)
        notes.append(f"snapshot t={result.times[k]:g}: {desc}")
    return tuple(notes)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Full pipeline for one configuration."""
    spec = config.model
    h = build_hamiltonian(spec)
    psi0 = gaussian_state(h.geometry, config.packet)
    times = np.linspace(0.0, config.times.t_max, config.times.frame_count)
    result = evolve_series(h, psi0, times, method=config.method, spec=spec)
    trajectory = extract_trajectory(result, config.analysis)
    outcome: ReflectionOutcome = classify_reflection(trajectory, options=config.analysis)
    oracle, deviation = oracle_series(
        spec, config.packet, trajectory, guard_band=config.analysis.guard_band
    )
    manifest = emit_outputs(result, trajectory, oracle, config)
    return ExperimentReport(
        name=config.name,
        classification=outcome.kind,
        route=result.route,
        v_in_fit=outcome.v_in_fit,
        v_ref_fit=outcome.v_ref_fit,
        v_p_slope=fit_peak_velocity_slope(trajectory, config.analysis),
        max_oracle_deviation=deviation,
        contact_time=trajectory.boundary_contact_time,
        manifest=manifest,
        notes=((oracle.note,) if oracle.note else ()) + _snapshot_notes(result, config),
        window_truncated=outcome.window_truncated,
    )


def run_preset(name: str, out_dir=None, method=None, heatmap=None) -> ExperimentReport:
    config = get_preset(name).with_overrides(out_dir=out_dir, method=method, heatmap=heatmap)
    return run_experiment(config)


def run_config(path, out_dir=None, method=None, heatmap=None) -> ExperimentReport:
    config = load_config(path).with_overrides(out_dir=out_dir, method=method, heatmap=heatmap)
    return run_experiment(config)


def format_report(report: ExperimentReport) -> str:
    lines = [
        f"experiment: {report.name}",
        f"method: {report.method}",
        f"route: {report.route}",
        f"classification: {report.classification}",
    ]
    if report.contact_time is not None:
        lines.append(f"contact_time: {report.contact_time:g}")
    if report.v_in_fit is not None:
        f = report.v_in_fit
        lines.append(f"v_in_fit: slope={f.slope:.6g} intercept={f.intercept:.6g} t_mid={f.t_mid:.6g}")
    if report.v_ref_fit is not None:
        f = report.v_ref_fit
        lines.append(f"v_ref_fit: slope={f.slope:.6g} intercept={f.intercept:.6g} t_mid={f.t_mid:.6g}")
    if report.v_p_slope is not None:
        lines.append(f"v_p_slope: {report.v_p_slope:.6g}")
    if report.max_oracle_deviation is not None:
        lines.append(f"max_oracle_deviation: {report.max_oracle_deviation:.6g}")
    if report.window_truncated:
        lines.append("warning: classification window truncated at series end")
    for note in report.notes:
        lines.append(note)
    lines.append("outputs:")
    for name in sorted(report.manifest):
        lines.append(f"  {name} sha256={report.manifest[name]}")
    return "\n".join(lines)
