"""Experiment configuration: dataclasses plus the JSON file format.

The file mirrors the dataclass fields one-to-one:

{
  "model":    {"family": "continuous_hn", "m": 1.0, "b": 1.0, "length": 10.0,
               "dx": 0.01, "e0": null},
  "packet":   {"sigma": 0.25, "x0": 5.0, "k0": 0.0},
  "times":    {"t_max": 1.2, "frame_count": 200},
  "method":   "auto",
  "analysis": {"smoothing_window": 5, "contact_threshold": 35.0,
               "guard_band": 5, "width_cutoff_fraction": 0.25,
               "classify_window": null, "contact_wall": "either"},
  "output":   {"directory": "out", "density_csv": true, "trajectory_csv": true,
               "heatmap": true, "oracle_csv": true},
  "snapshot_times": []
}
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .errors import ConfigError, InvalidGrid, SkinwaveError
from .model import MAX_DIM, BoundarySSH, ContinuousHN, DiscreteHN, ModelSpec, NonHermitianSSH
from .wavepacket import AnalysisOptions, GaussianParams

_FAMILIES = {
    "continuous_hn": ContinuousHN,
    "discrete_hn": DiscreteHN,
    "non_hermitian_ssh": NonHermitianSSH,
    "boundary_ssh": BoundarySSH,
}
_FAMILY_NAMES = {cls: name for name, cls in _FAMILIES.items()}

METHODS = ("spectral", "expm", "auto")


@dataclass(frozen=True)
class TimeGrid:
    """Frame grid 0..t_max; at most MAX_DIM frames keeps frames x dim within MAX_DIM^2."""

    t_max: float
    frame_count: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_max) and self.t_max > 0):
            raise InvalidGrid(f"TimeGrid: t_max must be finite and positive, got {self.t_max!r}")
        if not (float(self.frame_count).is_integer() and 2 <= self.frame_count <= MAX_DIM):
            raise InvalidGrid(
                f"TimeGrid: frame_count must be an integer in [2, {MAX_DIM}], "
                f"got {self.frame_count!r}"
            )
        object.__setattr__(self, "t_max", float(self.t_max))
        object.__setattr__(self, "frame_count", int(self.frame_count))


@dataclass(frozen=True)
class OutputOptions:
    directory: str = "out"
    density_csv: bool = True
    trajectory_csv: bool = True
    heatmap: bool = True
    oracle_csv: bool = True


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    packet: GaussianParams
    times: TimeGrid
    method: str = "auto"
    analysis: AnalysisOptions = field(default_factory=AnalysisOptions)
    output: OutputOptions = field(default_factory=OutputOptions)
    snapshot_times: tuple = ()
    name: str = "custom"

    def with_overrides(self, out_dir=None, method=None, heatmap=None) -> "ExperimentConfig":
        cfg = self
        if out_dir is not None:
            cfg = replace(cfg, output=replace(cfg.output, directory=str(out_dir)))
        if method is not None:
            cfg = replace(cfg, method=method)
        if heatmap is not None:
            cfg = replace(cfg, output=replace(cfg.output, heatmap=heatmap))
        return cfg


def _section(raw: dict, key: str, required: bool = False) -> dict:
    """The mapping under ``key``; an absent or null optional section reads as empty."""
    if key not in raw and required:
        raise ConfigError(f"config.{key} is required")
    v = raw.get(key)
    if v is None and not required:
        return {}
    if not isinstance(v, dict):
        raise ConfigError(f"{key} must be a mapping, got {type(v).__name__}")
    return v


def _field(mapping: dict, key, where: str, default=None, kind=(int, float)):
    """``mapping[key]`` as a ``kind`` (a bool is no number); absent or null reads as ``default``."""
    v = mapping.get(key)
    if v is None:
        if default is None:
            raise ConfigError(f"{where}.{key} is required")
        return default
    if not isinstance(v, kind) or (isinstance(v, bool) and kind is not bool):
        noun = kind.__name__ if isinstance(kind, type) else "number"
        raise ConfigError(f"{where}.{key} must be a {noun}, got {v!r}")
    return v


def _model_from_dict(d: dict) -> ModelSpec:
    family = d.get("family")
    cls = _FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise ConfigError(f"model.family must be one of {sorted(_FAMILIES)}, got {family!r}")
    kwargs = {k: v for k, v in d.items() if k != "family"}
    try:
        return cls(**kwargs)
    except (TypeError, SkinwaveError) as exc:
        raise ConfigError(f"model: {exc}") from exc


def _model_to_dict(spec: ModelSpec) -> dict:
    d = {"family": _FAMILY_NAMES[type(spec)]}
    d.update(asdict(spec))
    return d


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    model = _model_from_dict(_section(raw, "model", required=True))

    pk = _section(raw, "packet", required=True)
    sigma = _field(pk, "sigma", "packet")
    if sigma <= 0:
        raise ConfigError("packet.sigma must be positive")
    try:
        packet = GaussianParams(
            sigma=sigma, x0=_field(pk, "x0", "packet"), k0=_field(pk, "k0", "packet", 0.0)
        )
    except SkinwaveError as exc:
        raise ConfigError(f"packet: {exc}") from exc

    tm = _section(raw, "times", required=True)
    t_max, frame_count = _field(tm, "t_max", "times"), _field(tm, "frame_count", "times")
    try:
        times = TimeGrid(t_max=t_max, frame_count=frame_count)
    except SkinwaveError as exc:
        raise ConfigError(f"times: {exc}") from exc

    method = raw.get("method", "auto")
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")

    an = _section(raw, "analysis")
    window = an.get("classify_window")
    knobs = dict(
        smoothing_window=_field(an, "smoothing_window", "analysis", 1),
        contact_threshold=_field(an, "contact_threshold", "analysis", 3.0),
        guard_band=_field(an, "guard_band", "analysis", 5),
        width_cutoff_fraction=_field(an, "width_cutoff_fraction", "analysis", 0.25),
        classify_window=None if window is None else _field(an, "classify_window", "analysis"),
        contact_wall=_field(an, "contact_wall", "analysis", "either", str),
    )
    try:
        analysis = AnalysisOptions(**knobs)
    except SkinwaveError as exc:
        raise ConfigError(f"analysis: {exc}") from exc

    out = _section(raw, "output")
    output = OutputOptions(
        directory=_field(out, "directory", "output", "out", str),
        density_csv=_field(out, "density_csv", "output", True, bool),
        trajectory_csv=_field(out, "trajectory_csv", "output", True, bool),
        heatmap=_field(out, "heatmap", "output", True, bool),
        oracle_csv=_field(out, "oracle_csv", "output", True, bool),
    )

    snaps = raw.get("snapshot_times", []) or []
    if not isinstance(snaps, (list, tuple)):
        raise ConfigError("snapshot_times must be a list of times")
    snaps = dict(enumerate(snaps))

    return ExperimentConfig(
        model=model,
        packet=packet,
        times=times,
        method=method,
        analysis=analysis,
        output=output,
        snapshot_times=tuple(float(_field(snaps, i, "snapshot_times")) for i in snaps),
        name=_field(raw, "name", "config", "custom", str),
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "name": cfg.name,
        "model": _model_to_dict(cfg.model),
        "packet": asdict(cfg.packet),
        "times": asdict(cfg.times),
        "method": cfg.method,
        "analysis": asdict(cfg.analysis),
        "output": asdict(cfg.output),
        "snapshot_times": list(cfg.snapshot_times),
    }


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def save_config(cfg: ExperimentConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(cfg), indent=2) + "\n")
