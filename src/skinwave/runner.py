"""Experiment pipeline: evolve, measure, compare to the closed forms, emit files.

Output files are byte-deterministic: every number is written as ``repr``
writes it, by the whole-array formatter of ``shortest`` (which hands the few
values it cannot decide to ``repr`` itself), and no timestamps or
environment data enter the files.  One writer streams each file in chunks
(``density.csv`` and ``heatmap.pgm`` a few frames at a time) and hashes
every chunk as it writes it, so no file is read back.  ``density.csv``'s
digits are computed on one helper thread, at most two chunks ahead of the
writer, which lays out, hashes and writes the chunks in order; the helper
ends with the file.  A rerun unlinks each previous file and writes a new
one in its place, so a reader that has the old file open keeps the old
bytes.  The report (returned and printed by the CLI) carries
classification, velocity fits, oracle deviations, and that sha256 manifest
of everything written.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import math
import threading
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .errors import ConfigError
from .evolve import EvolutionResult, _check_phase_resolution, evolve_series
from .model import BoundarySSH, ModelSpec, build_hamiltonian
from .model import band_curvature, group_velocity, skin_factor
from .oracle import GeneralOracleParams, general_peak, general_velocities, width_series
from .presets import get_preset
from .shortest import _gather, _sources, shortest_repr
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
    route: str   # 'sine', 'chiral', either '+rotation', or 'expm'
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

    Every family with a uniform skin factor gets the one skin law: kappa =
    ln r per unit length, and the width of the counterpart packet spreading
    at the curvature of its band (``band_curvature``).  Nothing is read from
    the run but its times and domain.  A packet narrower than one grid
    spacing (not a Gaussian on the grid), ``boundary_ssh`` and chains with
    no Hermitian counterpart (a lattice with |gamma/2| > |t1|, a continuum
    grid with 2 m b dx >= 1) get empty columns and a note saying why.  The
    oracle trajectory is blanked after wall contact (free-evolution validity
    only), incident velocities before contact, reflected velocities after.
    The deviation stops the guard band before the measured contact or the
    law's own wall contact (its peak leaving the domain), whichever is first.
    """
    times = trajectory.times
    pre = trajectory.approach()

    x_o, v_in, v_ref = np.full((3, len(times)), np.nan)
    deviation, note = None, None

    if packet.sigma < getattr(spec, "dx", 1.0):   # one spacing; a cell on the lattices
        note = "oracle: n/a (packet narrower than the grid)"
    elif isinstance(spec, BoundarySSH):  # bulk r = 1: no uniform-skin law to deviate from
        note = "oracle: n/a (boundary_ssh has no uniform skin factor)"
    elif (r := skin_factor(spec)) is None:   # per site, so a continuum r^(1/dx) cannot overflow
        note = "oracle: n/a (no Hermitian counterpart)"
    else:
        kappa = math.log(r) / getattr(spec, "dx", 1.0)   # per unit length: per site over dx, or per cell
        # the lower band of two-band chains; chains ignore the band
        widths = width_series(packet.sigma, band_curvature(spec, packet.k0, band=-1), times)
        g = GeneralOracleParams(kappa, group_velocity(spec, packet.k0, band=-1), times, *widths, x0=packet.x0)
        x_o = general_peak(g)
        v_in, v_ref = general_velocities(g)

    mask = trajectory.approach(guard_band) & np.isfinite(x_o)
    outside = np.flatnonzero((x_o < trajectory.domain[0]) | (x_o > trajectory.domain[1]))
    if len(outside):
        mask[max(0, outside[0] - guard_band) :] = False
    if np.any(mask):
        deviation = float(np.max(np.abs(trajectory.x_peak[mask] - x_o[mask])))

    x_o[~pre] = np.nan
    v_in[~pre] = np.nan
    v_ref[pre] = np.nan   # every frame when there is no contact
    return OracleSeries(times=times, x_peak=x_o, v_in=v_in, v_ref=v_ref, note=note), deviation


def _lines(*cells: np.ndarray) -> np.ndarray:
    """CSV lines of formatted cells, broadcast against each other over all but their last axis, as ascii bytes.

    Each cell is a row of bytes from ``shortest_repr``; its NUL padding is
    dropped.  The bytes stay in their array, which ``_write`` takes as it is.
    """
    shape = np.broadcast_shapes(*(c.shape[:-1] for c in cells))
    parts = []
    for c, sep in zip(cells, b"," * (len(cells) - 1) + b"\n"):
        parts += [np.broadcast_to(c, shape + c.shape[-1:]), np.full(shape + (1,), sep, dtype=np.uint8)]
    rows = np.concatenate(parts, axis=-1)
    return rows[rows != 0]


# density cells formatted per chunk: a few frames, so the formatter's arrays
# stay small (under 1 MB of temporaries per chunk on each of the two threads)
_CHUNK_CELLS = 4096


def _chunks(dens: np.ndarray):
    """(first frame, frames) of consecutive blocks of about ``_CHUNK_CELLS`` cells of a (frames, positions) stack."""
    step = max(1, _CHUNK_CELLS // dens.shape[1])
    return ((a, dens[a : a + step]) for a in range(0, len(dens), step))


def _ahead(fn: Callable, items: Sequence) -> Iterator:
    """``fn(item)`` for each of ``items`` in order, computed on one helper thread at most two items ahead.

    An exception in ``fn`` is raised here, at its item.  However the
    generator ends (its last item, an exception, ``close()``), it stops the
    helper and joins it, so no thread outlives it.
    """
    done = collections.deque()
    free, ready, stop = threading.Semaphore(2), threading.Semaphore(0), threading.Event()

    def work():
        try:
            for item in items:
                free.acquire()
                if stop.is_set():
                    return
                done.append((fn(item), None))
                ready.release()
        except BaseException as exc:   # raised again in the caller, at its item
            done.append((None, exc))
            ready.release()

    helper = threading.Thread(target=work, daemon=True)
    helper.start()
    try:
        for _ in items:
            ready.acquire()
            value, exc = done.popleft()
            if exc is not None:
                raise exc
            free.release()
            yield value
    finally:
        stop.set()
        free.release()
        helper.join()


def _density_frames(result: EvolutionResult, dens: np.ndarray):
    """density.csv as bytes: its header, then the (t, x, density, log_norm) rows a chunk of frames at a time.

    The table is never held whole.  Each chunk's digits (``_sources``) come
    from ``_ahead``'s helper thread; this thread lays them out in order.
    """
    xs, ts, lns = map(shortest_repr, (result.geometry.density_positions, result.times, result.log_norms))
    yield b"t,x,density,log_norm\n"
    chunks = list(_chunks(dens))
    with contextlib.closing(_ahead(_sources, [frames.ravel() for _, frames in chunks])) as digits:
        for (a, frames), sources in zip(chunks, digits):
            cells = _gather(frames.ravel(), *sources).reshape(frames.shape + (-1,))
            yield _lines(ts[a : a + len(frames), None], xs[None], cells, lns[a : a + len(frames), None])


def _heatmap_pgm(dens: np.ndarray):
    """Binary graymap, one row per frame, each row scaled to its own maximum; a chunk of frames at a time."""
    frames, width = dens.shape
    yield f"P5\n{width} {frames}\n255\n".encode("ascii")
    for _, rows in _chunks(dens):
        peak = rows.max(axis=1, keepdims=True)
        # a row with no positive density divides by inf and is written as zeros
        yield np.round(255.0 * rows / np.where(peak > 0, peak, np.inf)).astype(np.uint8)


def _table(head: str, cols) -> Iterator[bytes | np.ndarray]:
    """A CSV file as bytes: its header line, then its rows, each column formatted whole."""
    yield head.encode() + b"\n"
    yield _lines(*map(shortest_repr, cols))


def _write(path: Path, chunks: Iterator[bytes | np.ndarray]) -> str:
    """Stream ``chunks`` to a new file at ``path``, hashing each as it is written; the file's sha256 hex.

    Only one chunk is held at a time, and the generator ``chunks`` is closed
    however the write ends, so a producer stopped early stops its helper.

    A file already at ``path`` is unlinked, not truncated, so the file is
    always new: a reader holding the old file keeps its bytes, a symlink is
    replaced rather than followed, and the open does not wait while the
    filesystem truncates a large file it has just written (12 ms for a 13 MB
    ``density.csv`` on ext4).
    """
    digest = hashlib.sha256()
    try:
        path.unlink(missing_ok=True)
        with path.open("wb") as fh:
            for chunk in chunks:
                digest.update(chunk)
                fh.write(chunk)
                del chunk   # not held while the next one is formed
    except OSError as exc:
        raise ConfigError(f"output.directory: cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        chunks.close()
    return digest.hexdigest()


def _output_directory(config: ExperimentConfig) -> Path:
    """``output.directory``, created with its parents if missing; an OSError ends in a ConfigError naming the field."""
    out_dir = Path(config.output.directory)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.directory: cannot create {out_dir}: {exc.strerror or exc}") from exc
    return out_dir


def emit_outputs(
    result: EvolutionResult,
    trajectory: TrajectorySeries,
    oracle: OracleSeries,
    config: ExperimentConfig,
) -> dict[str, str]:
    """Write the requested artifacts and return a name -> sha256 manifest.

    A directory or file that cannot be written ends in a ConfigError naming
    ``output.directory`` and the path.
    """
    opts = config.output
    out_dir = _output_directory(config)
    dens = aggregate_density(result.site_densities, result.geometry)
    tr = trajectory
    files = {"density.csv": _density_frames(result, dens)} if opts.density_csv else {}
    tables = (
        (opts.trajectory_csv, "trajectory.csv", "t,x_peak,v_peak,sigma_measured,log_norm",
         (tr.times, tr.x_peak, tr.v_peak, tr.sigma_measured, tr.log_norm)),
        (opts.oracle_csv, "oracle.csv", "t,x_peak_oracle,v_in_oracle,v_ref_oracle",
         (oracle.times, oracle.x_peak, oracle.v_in, oracle.v_ref)),
    )
    for on, name, head, cols in tables:
        if on:
            files[name] = _table(head, cols)
    if opts.heatmap:
        files["heatmap.pgm"] = _heatmap_pgm(dens)
    return {name: _write(out_dir / name, chunks) for name, chunks in files.items()}


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
    _check_phase_resolution(h, config.times.t_max)   # before the packet's allocation
    _output_directory(config)   # an unwritable location is refused before anything is evolved
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
