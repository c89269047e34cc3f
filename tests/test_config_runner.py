import dataclasses
import errno
import hashlib
import json
import math
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import skinwave as sw
import skinwave.config
import skinwave.runner as runner
from skinwave.cli import main
from skinwave.config import (
    ExperimentConfig,
    OutputOptions,
    TimeGrid,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from skinwave.errors import ConfigError, InvalidGrid, InvalidParameter, UnknownPreset
from skinwave.evolve import PHASE_LIMIT, EvolutionResult
from skinwave.model import Geometry
from skinwave.presets import get_preset, preset_names
from skinwave.runner import OracleSeries, emit_outputs, format_report, run_experiment, run_preset
from skinwave.shortest import _decide
from skinwave.wavepacket import TrajectorySeries

from reference import repr_density_csv, script


def small_config(out_dir, **overrides) -> ExperimentConfig:
    raw = {
        "name": "chain-smoke",
        "model": {"family": "discrete_hn", "t1": 1.0, "t_minus1": 2.0, "n_sites": 60},
        "packet": {"sigma": 5.0, "x0": 30.0, "k0": -1.0},
        "times": {"t_max": 15.0, "frame_count": 12},
        "method": "auto",
        "analysis": {"smoothing_window": 3, "contact_threshold": 6.0, "guard_band": 2},
        "output": {"directory": str(out_dir)},
    }
    raw.update(overrides)
    return config_from_dict(raw)


def test_config_round_trip(tmp_path):
    cfg = small_config(tmp_path / "out")
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_preset_round_trips_through_files(tmp_path):
    for name in preset_names():
        cfg = get_preset(name)
        path = tmp_path / f"{name}.json"
        save_config(cfg, path)
        assert load_config(path) == cfg


def test_config_validation_messages():
    base = {
        "model": {"family": "discrete_hn", "t1": 1.0, "t_minus1": 2.0, "n_sites": 10},
        "packet": {"sigma": 1.0, "x0": 5.0},
        "times": {"t_max": 1.0, "frame_count": 5},
    }
    bad_sigma = json.loads(json.dumps(base))
    bad_sigma["packet"]["sigma"] = -0.5
    with pytest.raises(ConfigError, match="packet: .*sigma"):
        config_from_dict(bad_sigma)

    bad_family = json.loads(json.dumps(base))
    bad_family["model"]["family"] = "tight_binding"
    with pytest.raises(ConfigError, match="model.family"):
        config_from_dict(bad_family)

    bad_frames = json.loads(json.dumps(base))
    bad_frames["times"]["frame_count"] = 1
    with pytest.raises(ConfigError, match="frame_count"):
        config_from_dict(bad_frames)

    bad_method = json.loads(json.dumps(base))
    bad_method["method"] = "rk4"
    with pytest.raises(ConfigError, match="method"):
        config_from_dict(bad_method)

    bad_wall = json.loads(json.dumps(base))
    bad_wall["analysis"] = {"contact_wall": "top"}
    with pytest.raises(ConfigError, match="contact_wall"):
        config_from_dict(bad_wall)

    with pytest.raises(ConfigError, match="model"):
        config_from_dict({"packet": {"sigma": 1.0, "x0": 1.0}, "times": base["times"]})


_MALFORMED = {
    "analysis-list": ({"analysis": [1]}, "analysis must be a mapping"),
    "output-int": ({"output": 3}, "output must be a mapping"),
    "packet-int": ({"packet": 5}, "packet must be a mapping"),
    "packet-null-sigma": ({"packet": {"sigma": None, "x0": 5.0}}, "packet.sigma is required"),
    "times-null-t_max": ({"times": {"t_max": None, "frame_count": 5}}, "times.t_max is required"),
    "family-list": ({"model": {"family": []}}, "model.family"),
    "snapshot-str": ({"snapshot_times": ["a"]}, "snapshot_times.0 must be a number"),
    "snapshot-null": ({"snapshot_times": [1.0, None]}, "snapshot_times.1 is required"),
    "snapshots-false": ({"snapshot_times": False}, "snapshot_times must be a list"),
    "snapshots-zero": ({"snapshot_times": 0}, "snapshot_times must be a list"),
    "snapshots-empty-str": ({"snapshot_times": ""}, "snapshot_times must be a list"),
    "snapshots-empty-map": ({"snapshot_times": {}}, "snapshot_times must be a list"),
    "snapshot-late": ({"snapshot_times": [0.5, 99.0]}, "config: .*snapshot time 99.0 outside"),
    "snapshot-negative": ({"snapshot_times": [-5.0]}, "config: .*snapshot time -5.0 outside"),
    "t_max-nan": ({"times": {"t_max": float("nan"), "frame_count": 5}}, "times: .*t_max"),
    "frame_count-huge": ({"times": {"t_max": 1.0, "frame_count": 1e12}}, "times: .*frame_count"),
    "n_sites-fraction": (
        {"model": {"family": "discrete_hn", "t1": 1.0, "t_minus1": 2.0, "n_sites": 10.5}},
        "model: .*n_sites",
    ),
    "n_cells-fraction": (
        {"model": {"family": "non_hermitian_ssh", "t1": 2.0, "t2": 1.0, "gamma": -0.2, "n_cells": 10.5}},
        "model: .*n_cells",
    ),
    "boundary-n_cells-fraction": (
        {"model": {"family": "boundary_ssh", "t1": 2.0, "t2": 1.0, "gamma": -0.2,
                   "n_cells": 10.5, "boundary_cells": 2}},
        "model: .*n_cells",
    ),
    "boundary_cells-fraction": (
        {"model": {"family": "boundary_ssh", "t1": 2.0, "t2": 1.0, "gamma": -0.2,
                   "n_cells": 10, "boundary_cells": 2.5}},
        "model: .*boundary_cells",
    ),
    "directory-int": ({"output": {"directory": 3}}, "output.directory must be a str"),
    "flag-str": ({"output": {"heatmap": "false"}}, "output.heatmap must be a bool"),
    "name-int": ({"name": 3}, "config.name must be a str"),
    "threshold-nan": ({"analysis": {"contact_threshold": float("nan")}}, "analysis: .*contact_threshold"),
    "cutoff-nan": ({"analysis": {"width_cutoff_fraction": float("nan")}}, "analysis: .*width_cutoff_fraction"),
    "packet-unknown": ({"packet": {"sigma": 1.0, "x0": 5.0, "width": 2.0}}, "packet: unknown key 'width'"),
    "times-unknown": ({"times": {"t_max": 1.0, "frame_count": 5, "dt": 0.1}}, "times: unknown key 'dt'"),
    "analysis-typo": ({"analysis": {"contact_treshold": 9}}, "analysis: unknown key 'contact_treshold'"),
    "output-typo": ({"output": {"heat_map": False}}, "output: unknown key 'heat_map'"),
    "top-level-typo": ({"snapshot_time": [1.0]}, "config: unknown key 'snapshot_time'"),
    "model-unknown": (
        {"model": {"family": "discrete_hn", "t1": 1.0, "t_minus1": 2.0, "n_sites": 10, "n": 3}},
        "model: unknown key 'n'",
    ),
    "n_sites-bool": (
        {"model": {"family": "discrete_hn", "t1": 1.0, "t_minus1": 2.0, "n_sites": True}},
        "model.n_sites must be a number",
    ),
    "t1-bool": (
        {"model": {"family": "discrete_hn", "t1": True, "t_minus1": 2.0, "n_sites": 10}},
        "model.t1 must be a number",
    ),
    # (2 pi sigma^2)^-1/4 underflows or overflows: no representable packet amplitude
    "sigma-tiny": ({"packet": {"sigma": 1e-300, "x0": 5.0}}, "packet: .*sigma 1e-300"),
    "sigma-huge": ({"packet": {"sigma": 1e300, "x0": 5.0}}, r"packet: .*sigma 1e\+300"),
}


def _malformed(override) -> dict:
    raw = {
        "model": {"family": "discrete_hn", "t1": 1.0, "t_minus1": 2.0, "n_sites": 10},
        "packet": {"sigma": 1.0, "x0": 5.0},
        "times": {"t_max": 1.0, "frame_count": 5},
    }
    raw.update(override)
    return raw


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_sections_raise_config_error(case):
    override, message = _MALFORMED[case]
    with pytest.raises(ConfigError, match=message):
        config_from_dict(_malformed(override))


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_cli_exits_2_on_malformed_sections(case, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_malformed(_MALFORMED[case][0])))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_null_output_values_read_as_absent():
    output = config_from_dict(_malformed({"output": {"directory": None, "heatmap": None}})).output
    assert output == OutputOptions()
    assert output.directory == "out"
    assert config_from_dict(_malformed({"name": None})).name == "custom"
    assert config_from_dict(_malformed({"snapshot_times": None})).snapshot_times == ()


def test_experiment_config_refuses_snapshots_off_the_grid():
    cfg = get_preset("sm-meet")
    for t in (cfg.times.t_max + 1.0, -1e-9, float("nan")):
        with pytest.raises(InvalidParameter, match="snapshot time"):
            dataclasses.replace(cfg, snapshot_times=(t,))
    ends = (0.0, cfg.times.t_max)
    assert dataclasses.replace(cfg, snapshot_times=ends).snapshot_times == ends


def test_config_fields_state_their_kind_and_default():
    """The reader takes each field's kind from its annotation and its default from the field."""
    for cls in (sw.ContinuousHN, sw.DiscreteHN, sw.NonHermitianSSH, sw.BoundarySSH,
                sw.GaussianParams, TimeGrid, sw.AnalysisOptions, OutputOptions):
        for f in dataclasses.fields(cls):
            assert f.type in ("float", "int", "float | None", "str", "bool"), (cls.__name__, f.name)
            assert f.default_factory is dataclasses.MISSING, (cls.__name__, f.name)


def test_documented_config_examples_load():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    cfg = config_from_dict(json.loads(example))
    assert (cfg.name, cfg.model) == ("my-run", sw.ContinuousHN(m=1.0, b=1.0, length=10.0, dx=0.01))
    docstring = skinwave.config.__doc__
    assert config_from_dict(json.loads(docstring[docstring.index("{"):docstring.index("\n}\n") + 2])) == (
        dataclasses.replace(cfg, name="custom")
    )


def test_analysis_options_check_themselves():
    for bad in (
        {"contact_threshold": float("nan")},
        {"width_cutoff_fraction": float("inf")},
        {"smoothing_window": 0},
        {"guard_band": 2.5},
        {"classify_window": 0.0},
        {"contact_wall": "top"},
    ):
        with pytest.raises(InvalidParameter, match=next(iter(bad))):
            sw.AnalysisOptions(**bad)
    opts = sw.AnalysisOptions(smoothing_window=5.0, contact_threshold=6)
    assert (type(opts.smoothing_window), type(opts.contact_threshold)) == (int, float)


def test_time_grid_checked_at_construction():
    # only the check runs: the oversized grid is never allocated
    with pytest.raises(InvalidGrid, match="frame_count"):
        TimeGrid(t_max=1.0, frame_count=10**12)
    with pytest.raises(InvalidGrid, match="frame_count"):
        TimeGrid(t_max=1.0, frame_count=2.5)
    for t_max in (float("nan"), float("inf"), 0.0):
        with pytest.raises(InvalidGrid, match="t_max"):
            TimeGrid(t_max=t_max, frame_count=10)
    grid = TimeGrid(t_max=2, frame_count=4096.0)
    assert (type(grid.t_max), type(grid.frame_count)) == (float, int)


def test_run_experiment_outputs(tmp_path):
    cfg = small_config(tmp_path / "out")
    report = run_experiment(cfg)
    out = tmp_path / "out"
    assert set(report.manifest) == {"density.csv", "trajectory.csv", "oracle.csv", "heatmap.pgm"}

    density_lines = (out / "density.csv").read_text().splitlines()
    assert density_lines[0] == "t,x,density,log_norm"
    assert len(density_lines) == 1 + 12 * 60

    trajectory_lines = (out / "trajectory.csv").read_text().splitlines()
    assert trajectory_lines[0] == "t,x_peak,v_peak,sigma_measured,log_norm"
    assert len(trajectory_lines) == 1 + 12

    oracle_lines = (out / "oracle.csv").read_text().splitlines()
    assert oracle_lines[0] == "t,x_peak_oracle,v_in_oracle,v_ref_oracle"

    pgm = (out / "heatmap.pgm").read_bytes()
    assert pgm.startswith(b"P5\n60 12\n255\n")
    assert len(pgm) == len(b"P5\n60 12\n255\n") + 60 * 12


def test_emit_outputs_golden_two_band(tmp_path):
    # 2 frames x 2 cells of a two-band chain: per-cell sums, t-major rows,
    # shortest repr, empty cells for nan, a zero-density frame as a zero row
    geometry = Geometry(positions=np.array([0.0, 0.0, 1.0, 1.0]), dx=1.0, sites_per_cell=2)
    times = np.array([0.0, 0.5])
    log_norms = np.array([0.1, -1.5])
    result = EvolutionResult(
        times=times,
        site_densities=np.array([[0.1, 0.2, 0.3, 0.4], [0.0, 0.0, 0.0, 0.0]]),
        log_norms=log_norms,
        geometry=geometry,
        route="chiral",
    )
    trajectory = TrajectorySeries(
        times=times,
        x_peak=np.array([0.7142857142857143, 1.0]),
        v_peak=np.array([0.5714285714285714, 0.5714285714285714]),
        sigma_measured=np.array([0.42, np.nan]),
        log_norm=log_norms,
        boundary_contact_time=0.5,
        contact_index=1,
        contact_boundary=1.0,
        domain=(0.0, 1.0),
        dx=1.0,
    )
    oracle = OracleSeries(
        times=times,
        x_peak=np.array([0.75, np.nan]),
        v_in=np.array([1e-20, np.nan]),
        v_ref=np.array([np.nan, -2.0]),
    )
    cfg = small_config(tmp_path / "out")
    manifest = emit_outputs(result, trajectory, oracle, cfg)
    out = tmp_path / "out"
    assert sorted(manifest) == ["density.csv", "heatmap.pgm", "oracle.csv", "trajectory.csv"]
    assert (out / "density.csv").read_text() == (
        "t,x,density,log_norm\n"
        "0.0,0.0,0.30000000000000004,0.1\n"
        "0.0,1.0,0.7,0.1\n"
        "0.5,0.0,0.0,-1.5\n"
        "0.5,1.0,0.0,-1.5\n"
    )
    assert (out / "trajectory.csv").read_text() == (
        "t,x_peak,v_peak,sigma_measured,log_norm\n"
        "0.0,0.7142857142857143,0.5714285714285714,0.42,0.1\n"
        "0.5,1.0,0.5714285714285714,,-1.5\n"
    )
    assert (out / "oracle.csv").read_text() == (
        "t,x_peak_oracle,v_in_oracle,v_ref_oracle\n"
        "0.0,0.75,1e-20,\n"
        "0.5,,,-2.0\n"
    )
    assert (out / "heatmap.pgm").read_bytes() == b"P5\n2 2\n255\n" + bytes([109, 255, 0, 0])


@pytest.fixture(scope="module")
def golden_two_band():
    """The 2-frame, 2-cell emit inputs of the golden test."""
    geometry = Geometry(positions=np.array([0.0, 0.0, 1.0, 1.0]), dx=1.0, sites_per_cell=2)
    times, log_norms = np.array([0.0, 0.5]), np.array([0.1, -1.5])
    result = EvolutionResult(
        times=times,
        site_densities=np.array([[0.1, 0.2, 0.3, 0.4], [0.0, 0.0, 0.0, 0.0]]),
        log_norms=log_norms,
        geometry=geometry,
        route="chiral",
    )
    trajectory = TrajectorySeries(
        times=times, x_peak=np.array([0.7, 1.0]), v_peak=np.array([0.5, 0.5]),
        sigma_measured=np.array([0.4, np.nan]), log_norm=log_norms, boundary_contact_time=0.5,
        contact_index=1, contact_boundary=1.0, domain=(0.0, 1.0), dx=1.0,
    )
    oracle = OracleSeries(times=times, x_peak=times, v_in=times, v_ref=times)
    return result, trajectory, oracle, small_config("unused")


@pytest.fixture(scope="module")
def fig1a_full():
    """The emit inputs of a full fig1a run: 200 frames x 1000 sites."""
    captured = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "emit_outputs", lambda *args: captured.append(args) or {})
        run_preset("fig1a")
    return captured[0]


@pytest.fixture(scope="module")
def fig4_full():
    """The emit inputs of a full fig4 run: 240 frames x 500 two-site cells."""
    captured = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "emit_outputs", lambda *args: captured.append(args) or {})
        run_preset("fig4")
    return captured[0]


def _emit_density(args, out_dir: Path) -> bytes:
    """Emit every output of ``args`` into ``out_dir``; density.csv's bytes, no other file left."""
    result, trajectory, oracle, config = args
    manifest = emit_outputs(result, trajectory, oracle, config.with_overrides(out_dir=out_dir))
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(manifest) == [
        "density.csv", "heatmap.pgm", "oracle.csv", "trajectory.csv"]
    return (out_dir / "density.csv").read_bytes()


def _adversarial_run():
    """A 3-frame run whose densities, times and log-norms are the formatter's hard cases."""
    values = script("check_shortest_repr").adversarial()
    sites = len(values) // 3
    dens = values[:3 * sites].reshape(3, sites)
    geometry = Geometry(positions=values[-sites:], dx=1.0, sites_per_cell=1)
    result = EvolutionResult(times=values[:3], site_densities=dens, log_norms=values[-3:],
                             geometry=geometry, route="sine")
    return result, dens


@pytest.mark.parametrize("case", ["fig1a_full", "fig4_full", "adversarial"])
def test_density_csv_matches_the_per_cell_repr_writer(case, request, tmp_path, monkeypatch):
    if case == "adversarial":
        result, dens = _adversarial_run()
        written = {}
        # one frame per chunk, chunks of two frames with the last one short, one chunk for the whole grid
        for chunk_cells in (1, dens.shape[1] * 5 // 2, dens.size):
            monkeypatch.setattr(runner, "_CHUNK_CELLS", chunk_cells)
            runner._write(tmp_path / "density.csv", runner._density_frames(result, dens))
            written[chunk_cells] = (tmp_path / "density.csv").read_bytes()
    else:
        result = request.getfixturevalue(case)[0]
        dens = sw.wavepacket.aggregate_density(result.site_densities, result.geometry)
        written = {None: _emit_density(request.getfixturevalue(case), tmp_path)}
    expected = repr_density_csv(result.geometry.density_positions, result.times, result.log_norms, dens)
    assert written == dict.fromkeys(written, expected)


def test_ahead_runs_one_helper_per_caller_in_order_at_most_two_items_ahead():
    """Four callers (more than the cores), each with its own helper, under a 1 us switch interval."""
    def drive(results):
        caller, started, helpers = threading.get_ident(), [], set()

        def square(item):
            helpers.add(threading.get_ident())
            started.append(item)
            return item * item

        for k, value in enumerate(runner._ahead(square, list(range(500)))):
            results.append(value == k * k and max(started) <= k + 2)
        results.append(started == list(range(500)) and len(helpers) == 1 and caller not in helpers)

    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = [[] for _ in range(4)]
        callers = [threading.Thread(target=drive, args=(r,)) for r in results]
        for c in callers:
            c.start()
        for c in callers:
            c.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(c.is_alive() for c in callers)
    assert results == [[True] * 501] * 4 and threading.active_count() == threads


@pytest.mark.parametrize("stage", ["_sources", "_gather"], ids=["digits", "layout"])
def test_an_error_in_either_stage_is_raised_at_its_chunk_and_no_thread_is_left(stage, fig1a_full, tmp_path, monkeypatch):
    """The third chunk's digits (on the helper) or layout (on the caller) fail: the error leaves emit_outputs after two chunks."""
    full = _emit_density(fig1a_full, tmp_path / "full")
    calls, real = [], getattr(runner, stage)

    def failing(a, *sources):
        calls.append(len(a))
        if len(calls) == 3:
            raise RuntimeError("third chunk")
        return real(a, *sources)

    monkeypatch.setattr(runner, stage, failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="third chunk") as caught:   # held, as a caller's handler holds it
        _emit_density(fig1a_full, tmp_path / "out")
    assert threading.active_count() == threads
    written = (tmp_path / "out" / "density.csv").read_bytes()
    assert written == full[: len(written)] and written.count(b"\n") == 1 + 2 * calls[0]


def test_a_write_error_part_way_through_density_csv_names_the_file_and_leaves_no_thread(
    fig1a_full, tmp_path, monkeypatch
):
    """The disk fills at density.csv's third write, with the helper chunks ahead: a ConfigError naming the file."""
    class FillsUp:
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, chunk):
            self.writes += 1
            if self.writes == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return self.fh.write(chunk)

    def opener(open_):
        return lambda path, *args, **kwargs: (
            FillsUp(open_(path, *args, **kwargs)) if path.name == "density.csv" else open_(path, *args, **kwargs))

    monkeypatch.setattr(Path, "open", opener(Path.open))
    result, trajectory, oracle, config = fig1a_full
    threads = threading.active_count()
    with pytest.raises(ConfigError, match=r"output.directory: cannot write .*density.csv: No space left on device") as caught:   # held
        emit_outputs(result, trajectory, oracle, config.with_overrides(out_dir=tmp_path))
    assert threading.active_count() == threads


def test_formatter_decides_nearly_every_density_cell(fig1a_full):
    """A silent fall-back to repr() would keep the bytes but lose the speed."""
    result = fig1a_full[0]
    decided = _decide(np.abs(result.site_densities.ravel()))[3]
    assert decided.size == 200 * 1000 and decided.mean() >= 0.999


def test_manifest_hashes_files_as_it_writes_them(golden_two_band, tmp_path, monkeypatch):
    """No file is opened for reading during emit; the manifest is still each file's sha256."""
    def write_only(open_):
        def opener(file, mode="r", *args, **kwargs):
            if "r" in mode:
                raise AssertionError(f"emit_outputs read {file}")
            return open_(file, mode, *args, **kwargs)
        return opener

    result, trajectory, oracle, config = golden_two_band
    out = tmp_path / "out"
    with monkeypatch.context() as mp:
        mp.setattr(Path, "open", write_only(Path.open))
        mp.setattr("builtins.open", write_only(open))
        manifest = emit_outputs(result, trajectory, oracle, config.with_overrides(out_dir=out))
    assert sorted(manifest) == ["density.csv", "heatmap.pgm", "oracle.csv", "trajectory.csv"]
    assert manifest == {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


@pytest.mark.parametrize("planted", [b"x" * 4096, b"y"], ids=["longer", "shorter"])
def test_emit_over_old_files_writes_the_fresh_bytes(planted, golden_two_band, tmp_path):
    """Files longer or shorter than the output at all four paths: the same bytes as a fresh directory."""
    result, trajectory, oracle, config = golden_two_band
    fresh = emit_outputs(result, trajectory, oracle, config.with_overrides(out_dir=tmp_path / "fresh"))
    out = tmp_path / "out"
    out.mkdir()
    for name in fresh:
        (out / name).write_bytes(planted)
    manifest = emit_outputs(result, trajectory, oracle, config.with_overrides(out_dir=out))
    assert manifest == fresh
    for name, digest in manifest.items():
        assert (out / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_reader_of_the_old_density_csv_keeps_its_bytes(golden_two_band, tmp_path):
    """A rerun writes a new file: a handle opened on the previous run's density.csv still reads all of it."""
    result, trajectory, oracle, config = golden_two_band
    config = config.with_overrides(out_dir=tmp_path)
    emit_outputs(dataclasses.replace(result, log_norms=result.log_norms + 1.0), trajectory, oracle, config)
    old = (tmp_path / "density.csv").read_bytes()
    with (tmp_path / "density.csv").open("rb") as held:
        emit_outputs(result, trajectory, oracle, config)
        assert held.read() == old
    assert (tmp_path / "density.csv").read_bytes() != old


def test_symlink_at_an_output_path_is_replaced_not_followed(golden_two_band, tmp_path):
    result, trajectory, oracle, config = golden_two_band
    target = tmp_path / "elsewhere.csv"
    target.write_bytes(b"kept\n")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "density.csv").symlink_to(target)
    emit_outputs(result, trajectory, oracle, config.with_overrides(out_dir=tmp_path / "out"))
    assert not (tmp_path / "out" / "density.csv").is_symlink()
    assert target.read_bytes() == b"kept\n"


def test_rerun_is_byte_identical(tmp_path):
    cfg_a = small_config(tmp_path / "a")
    cfg_b = small_config(tmp_path / "b")
    rep_a = run_experiment(cfg_a)
    rep_b = run_experiment(cfg_b)
    assert rep_a.manifest == rep_b.manifest
    for name in rep_a.manifest:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_heatmap_rows_scaled_to_frame_max(tmp_path):
    cfg = small_config(tmp_path / "out")
    run_experiment(cfg)
    pgm = (tmp_path / "out" / "heatmap.pgm").read_bytes()
    header = b"P5\n60 12\n255\n"
    pixels = np.frombuffer(pgm[len(header):], dtype=np.uint8).reshape(12, 60)
    assert np.all(pixels.max(axis=1) == 255)


@pytest.mark.parametrize("chunk_cells", [1, 7 * 60, 10**6], ids=["frame", "mid-grid", "whole"])
def test_heatmap_bytes_do_not_depend_on_the_chunking(chunk_cells, monkeypatch):
    """Chunks of one frame, chunks ending mid-grid, one chunk: the whole-array graymap, an empty row as zeros."""
    dens = np.random.default_rng(5).random((12, 60))
    dens[3] = 0.0
    monkeypatch.setattr(runner, "_CHUNK_CELLS", chunk_cells)
    peak = dens.max(axis=1, keepdims=True)
    pixels = np.round(255.0 * dens / np.where(peak > 0, peak, np.inf)).astype(np.uint8)
    assert b"".join(runner._heatmap_pgm(dens)) == b"P5\n60 12\n255\n" + pixels.tobytes()


def test_oracle_csv_blank_after_contact(tmp_path):
    # leftward Hermitian packet reflects; reflected-velocity column fills after contact
    cfg = small_config(
        tmp_path / "out",
        model={"family": "discrete_hn", "t1": 1.5, "t_minus1": 1.5, "n_sites": 80},
        packet={"sigma": 6.0, "x0": 40.0, "k0": -1.5},
        times={"t_max": 40.0, "frame_count": 40},
        analysis={"smoothing_window": 3, "contact_threshold": 8.0, "guard_band": 2},
    )
    report = run_experiment(cfg)
    assert report.contact_time is not None
    rows = (tmp_path / "out" / "oracle.csv").read_text().splitlines()[1:]
    v_in_blank = [r.split(",")[2] == "" for r in rows]
    v_ref_blank = [r.split(",")[3] == "" for r in rows]
    assert not v_in_blank[0]
    assert v_ref_blank[0]
    assert v_in_blank[-1]
    assert not v_ref_blank[-1]


def test_unknown_preset_raises():
    with pytest.raises(UnknownPreset):
        run_preset("fig9z")


def test_preset_table_contents():
    names = preset_names()
    for expected in (
        "fig1a", "fig1b", "fig1c", "fig1d", "fig3", "fig4", "fig5b", "fig5c",
        "sm-meet", "sm-spread-slow", "sm-spread-fast", "sm-boundary",
    ):
        assert expected in names


def test_frame_count_override_keeps_classification(tmp_path):
    cfg = get_preset("fig1c").with_overrides(out_dir=tmp_path / "a")
    baseline = run_experiment(cfg)
    denser = ExperimentConfig(
        model=cfg.model,
        packet=cfg.packet,
        times=TimeGrid(t_max=cfg.times.t_max, frame_count=160),
        method=cfg.method,
        analysis=cfg.analysis,
        output=cfg.output.__class__(directory=str(tmp_path / "b")),
        name=cfg.name,
    )
    assert run_experiment(denser).classification == baseline.classification == "reflected"


def test_cli_list_and_errors(tmp_path, capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    assert "fig1a" in out and "sm-boundary" in out

    assert main(["preset", "fig9z"]) == 2
    assert "unknown preset" in capsys.readouterr().err

    assert main(["run", str(tmp_path / "missing.json")]) == 2
    assert "cannot read config" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{\"model\": {}}")
    assert main(["run", str(bad)]) == 2


def test_cli_runs_config_end_to_end(tmp_path, capsys):
    cfg = small_config(tmp_path / "out")
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert main(["run", str(path), "--no-heatmap"]) == 0
    out = capsys.readouterr().out
    assert "experiment: chain-smoke" in out
    assert "heatmap.pgm" not in out
    assert (tmp_path / "out" / "density.csv").exists()
    assert not (tmp_path / "out" / "heatmap.pgm").exists()


def test_format_report_mentions_fits(tmp_path):
    cfg = small_config(
        tmp_path / "out",
        model={"family": "discrete_hn", "t1": 1.5, "t_minus1": 1.5, "n_sites": 80},
        packet={"sigma": 6.0, "x0": 40.0, "k0": -1.5},
        times={"t_max": 40.0, "frame_count": 40},
        analysis={"smoothing_window": 3, "contact_threshold": 8.0, "guard_band": 2},
    )
    text = format_report(run_experiment(cfg))
    assert "classification: reflected" in text
    assert "v_in_fit" in text and "v_ref_fit" in text
    assert "sha256=" in text


def test_oversized_grid_refused_by_config_and_cli(tmp_path):
    raw = {
        "model": {"family": "continuous_hn", "m": 1.0, "b": 1.0, "length": 10.0, "dx": 1e-5},
        "packet": {"sigma": 1.0, "x0": 5.0},
        "times": {"t_max": 1.0, "frame_count": 5},
    }
    with pytest.raises(ConfigError, match="model: ContinuousHN: length/dx"):
        config_from_dict(raw)
    raw["model"] = {"family": "non_hermitian_ssh", "t1": 2.0, "t2": 1.0, "gamma": 0.2, "n_cells": 10**6}
    with pytest.raises(ConfigError, match="model: NonHermitianSSH: n_cells"):
        config_from_dict(raw)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path)]) == 2


def test_boundary_ssh_reports_no_oracle_deviation(tmp_path):
    cfg = small_config(
        tmp_path / "out",
        model={"family": "boundary_ssh", "t1": 2.0, "t2": 1.0, "gamma": -0.8,
               "n_cells": 40, "boundary_cells": 10},
        packet={"sigma": 4.0, "x0": 18.0, "k0": 1.0},
        times={"t_max": 10.0, "frame_count": 10},
    )
    report = run_experiment(cfg)
    assert report.max_oracle_deviation is None
    assert "oracle: n/a (boundary_ssh has no uniform skin factor)" in report.notes
    text = format_report(report)
    assert "max_oracle_deviation" not in text
    assert "oracle: n/a" in text
    rows = (tmp_path / "out" / "oracle.csv").read_text().splitlines()[1:]
    assert len(rows) == 10 and all(row.endswith(",,,") for row in rows)


@pytest.mark.parametrize("cells, gamma, deviation", [(200, -0.2, 2.9605), (0, 0.0, 157.5)], ids=["all-gamma", "no-gamma"])
def test_boundary_ssh_with_gamma_on_every_cell_or_none_reads_the_uniform_chains_oracle(cells, gamma, deviation, tmp_path):
    """Such a boundary_ssh builds the bands of a non_hermitian_ssh: its report and oracle.csv are that chain's."""
    def run(model, out):
        return run_experiment(small_config(
            tmp_path / out,
            model={"t1": 2.0, "t2": 1.0, "n_cells": 200, "axis": "z", **model},
            packet={"sigma": 10.0, "x0": 100.0, "k0": 1.0},
            times={"t_max": 150.0, "frame_count": 60},
            analysis={"smoothing_window": 5, "contact_threshold": 6.0, "guard_band": 5},
        ))

    boundary = run({"family": "boundary_ssh", "gamma": -0.2, "boundary_cells": cells}, "boundary")
    uniform = run({"family": "non_hermitian_ssh", "gamma": gamma}, "uniform")
    assert boundary == uniform   # the manifest among them: every file's sha256, oracle.csv's too
    assert boundary.max_oracle_deviation == pytest.approx(deviation, abs=0.05)


def test_strong_gamma_ssh_runs_without_oracle(tmp_path, capsys):
    """|gamma/2| > |t1| has no Hermitian counterpart: the run still writes
    every file, with an empty lattice oracle and a note saying why."""
    cfg = small_config(
        tmp_path / "out",
        model={"family": "non_hermitian_ssh", "t1": 1.0, "t2": 1.0, "gamma": 3.0, "n_cells": 40},
        packet={"sigma": 4.0, "x0": 20.0, "k0": 0.0},
        times={"t_max": 5.0, "frame_count": 10},
    )
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "oracle: n/a (no Hermitian counterpart)" in out
    assert "max_oracle_deviation" not in out
    rows = (tmp_path / "out" / "oracle.csv").read_text().splitlines()[1:]
    assert len(rows) == 10 and all(row.endswith(",,,") for row in rows)


def test_report_names_the_route(tmp_path):
    assert "method: spectral\nroute: sine\n" in format_report(run_experiment(small_config(tmp_path / "a")))
    expm = run_experiment(small_config(tmp_path / "b", method="expm"))
    assert (expm.method, expm.route) == ("expm", "expm")
    assert "method: expm\nroute: expm\n" in format_report(expm)


# the probes whose every phase E t has lost its digits (eps max|E| t_max > 1e-8)
_CONTINUUM = {"family": "continuous_hn", "m": 1.0, "b": 1.0, "length": 10.0, "dx": 0.01}
_LOST_PHASES = {
    "continuum-e0": dict(
        model={**_CONTINUUM, "e0": 1e300}, packet={"sigma": 0.25, "x0": 5.0, "k0": 0.0},
        times={"t_max": 1.2, "frame_count": 200},
    ),
    "continuum-m": dict(
        model={**_CONTINUUM, "m": 1e-12}, packet={"sigma": 0.25, "x0": 5.0, "k0": 0.0},
        times={"t_max": 1.2, "frame_count": 200},
    ),
    "two-band-t_max": dict(
        model={"family": "non_hermitian_ssh", "t1": 2.0, "t2": 1.0, "gamma": -0.2, "n_cells": 500},
        packet={"sigma": 20.0, "x0": 250.0, "k0": 0.0}, times={"t_max": 1e17, "frame_count": 240},
    ),
    "discrete-t_max": dict(times={"t_max": 1e300, "frame_count": 12}),
}


def _never_evolved(*args, **kwargs):
    raise AssertionError("evolved a run that is refused before its evolution")


@pytest.mark.parametrize("case", sorted(_LOST_PHASES))
def test_runs_whose_phases_lost_their_digits_exit_2(case, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(runner, "evolve_series", _never_evolved)
    path = tmp_path / "cfg.json"
    save_config(small_config(tmp_path / "out", **_LOST_PHASES[case]), path)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "times.t_max" in err and "|E| <=" in err and "lost their digits" in err
    assert not (tmp_path / "out").exists()


# frame steps whose squares underflow: np.gradient would divide by zero in the velocity
_UNDERFLOWING_STEPS = {
    "hop-span": {
        "model": {"family": "discrete_hn", "t1": 1e300, "t_minus1": 1e-300, "n_sites": 40},
        "times": {"t_max": 1e-300, "frame_count": 5},
    },
    "spectral": {
        "model": {"family": "discrete_hn", "t1": 1.0, "t_minus1": 2.0, "n_sites": 39},
        "times": {"t_max": 3.6e-249, "frame_count": 5},
        "method": "spectral",
    },
}

# (t_max, frame_count) of every grid the tests build; the presets' are read from them
_TEST_GRIDS = [
    (15.0, 12), (1.0, 5), (1.0, 10), (2.0, 4096), (40.0, 40), (10.0, 10), (5.0, 10),
    (1.2, 160), (1.2, 200), (1e17, 240), (1e300, 12), (0.01, 20), (600.0, 120),
]


@pytest.mark.parametrize("case", sorted(_UNDERFLOWING_STEPS))
def test_a_frame_step_whose_square_underflows_exits_2(case, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(runner, "evolve_series", _never_evolved)
    raw = {**_UNDERFLOWING_STEPS[case], "packet": {"sigma": 2.0, "x0": 20.0}, "output": {"directory": str(tmp_path / "out")}}
    with pytest.raises(ConfigError, match=r"^times: TimeGrid: t_max .* whose square underflows"):
        config_from_dict(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: times: TimeGrid: t_max")
    assert not (tmp_path / "out").exists()


def test_every_preset_and_test_grid_keeps_a_frame_step_whose_square_is_normal():
    grids = _TEST_GRIDS + [(get_preset(name).times.t_max, get_preset(name).times.frame_count) for name in preset_names()]
    for t_max, frames in grids:
        assert t_max / (frames - 1) > 1e-4   # about 150 orders of magnitude above the edge
        TimeGrid(t_max=t_max, frame_count=frames)
    # the edge: a step of 2^-511 squares to float_info.min exactly, the next float below it underflows
    TimeGrid(t_max=4 * 2.0**-511, frame_count=5)
    with pytest.raises(InvalidGrid, match="t_max"):
        TimeGrid(t_max=4 * math.nextafter(2.0**-511, 0.0), frame_count=5)


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_cli_refuses_an_output_location_that_is_a_file_before_evolving(out, tmp_path, capsys, monkeypatch):
    """--out naming a file, or a path under one: one error line naming output.directory, exit 2, nothing evolved.

    A directory that cannot be written for want of permission is refused
    the same way, but permission bits do not stop root, so no test provokes it.
    """
    monkeypatch.setattr(runner, "evolve_series", _never_evolved)
    (tmp_path / "file").write_text("")
    assert main(["preset", "sm-spread-fast", "--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: output.directory: cannot create") and str(tmp_path / out) in line


def test_cli_refuses_a_directory_in_the_place_of_an_output_file(tmp_path, capsys):
    """A directory named density.csv inside --out: one error line naming the file, exit 2."""
    (tmp_path / "out" / "density.csv").mkdir(parents=True)
    path = tmp_path / "cfg.json"
    save_config(small_config(tmp_path / "elsewhere"), path)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: output.directory: cannot write") and str(tmp_path / "out" / "density.csv") in line


def test_every_preset_resolves_its_phases():
    """fig1a-d come closest: eps max|E| t_max = 5.3e-12, 1,895x inside the limit."""
    for name in preset_names():
        cfg = get_preset(name)
        phase = np.finfo(float).eps * sw.build_hamiltonian(cfg.model).energy_bound * cfg.times.t_max
        assert PHASE_LIMIT / phase >= 1895, name


@pytest.mark.parametrize("name, sigma", [("fig5c", 0.001), ("fig1a", 0.005)])
def test_packet_narrower_than_the_grid_has_no_oracle_deviation(name, sigma, tmp_path):
    """sigma below one spacing (a cell, or dx = 0.01) runs, but reports no deviation."""
    cfg = get_preset(name).with_overrides(out_dir=tmp_path / "out")
    report = run_experiment(dataclasses.replace(cfg, packet=dataclasses.replace(cfg.packet, sigma=sigma)))
    assert report.max_oracle_deviation is None
    assert "oracle: n/a (packet narrower than the grid)" in report.notes
    rows = (tmp_path / "out" / "oracle.csv").read_text().splitlines()[1:]
    assert len(rows) == cfg.times.frame_count and all(row.endswith(",,,") for row in rows)


def test_continuum_without_counterpart_has_no_oracle_deviation(tmp_path, capsys):
    """2 m b dx = 1.2 >= 1: the grid has no Hermitian counterpart, so no skin law either."""
    cfg = small_config(
        tmp_path / "out",
        model={"family": "continuous_hn", "m": 1.0, "b": 60.0, "length": 1.0, "dx": 0.01},
        packet={"sigma": 0.1, "x0": 0.5, "k0": 0.0},
        times={"t_max": 0.01, "frame_count": 20},
    )
    assert sw.skin_factor(cfg.model) is None
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    assert "oracle: n/a (no Hermitian counterpart)" in out
    assert "max_oracle_deviation" not in out
    rows = (tmp_path / "out" / "oracle.csv").read_text().splitlines()[1:]
    assert len(rows) == 20 and all(row.endswith(",,,") for row in rows)


def test_auto_fallback_names_its_reason(tmp_path, capsys):
    """A chain without a counterpart takes expm under auto by rule, with no fallback note; spectral refuses it."""
    cfg = small_config(
        tmp_path / "out",
        model={"family": "non_hermitian_ssh", "t1": 1.0, "t2": 1.0, "gamma": 3.0, "n_cells": 60},
        packet={"sigma": 4.0, "x0": 30.0, "k0": 0.0},
        times={"t_max": 5.0, "frame_count": 10},
    )
    report = run_experiment(cfg)
    assert report.route == "expm"
    assert not any(note.startswith("fallback") for note in report.notes)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert main(["run", str(path), "--method", "spectral"]) == 2
    assert "NonHermitianSSH has no Hermitian counterpart route" in capsys.readouterr().err
