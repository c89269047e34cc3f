"""Experiment configuration: dataclasses plus the JSON file format.

The file mirrors the dataclass fields one-to-one (``_build`` reads each section):

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
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

from .errors import ConfigError, InvalidGrid, InvalidParameter, SkinwaveError
from .evolve import METHODS
from .model import MAX_DIM, BoundarySSH, ContinuousHN, DiscreteHN, ModelSpec, NonHermitianSSH
from .wavepacket import AnalysisOptions, GaussianParams

_FAMILIES = {
    "continuous_hn": ContinuousHN,
    "discrete_hn": DiscreteHN,
    "non_hermitian_ssh": NonHermitianSSH,
    "boundary_ssh": BoundarySSH,
}
_FAMILY_NAMES = {cls: name for name, cls in _FAMILIES.items()}


@dataclass(frozen=True)
class TimeGrid:
    """Frame grid 0..t_max; at most MAX_DIM frames keeps frames x dim within MAX_DIM^2.

    A frame step whose square underflows is refused: the velocity's finite
    differences could not divide by it.
    """

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
        step = self.t_max / (self.frame_count - 1)
        if step * step < sys.float_info.min:
            raise InvalidGrid(
                f"TimeGrid: t_max {self.t_max!r} over {self.frame_count} frames gives a frame step "
                f"{step:.3g} whose square underflows"
            )


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

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise InvalidParameter(f"ExperimentConfig: method must be one of {METHODS}, got {self.method!r}")
        for t in self.snapshot_times:
            if not 0.0 <= t <= self.times.t_max:
                raise InvalidParameter(
                    f"ExperimentConfig: snapshot time {t!r} outside the frame grid [0, {self.times.t_max:g}]"
                )

    def with_overrides(self, out_dir=None, method=None, heatmap=None) -> "ExperimentConfig":
        cfg = self
        if out_dir is not None:
            cfg = replace(cfg, output=replace(cfg.output, directory=str(out_dir)))
        if method is not None:
            cfg = replace(cfg, method=method)
        if heatmap is not None:
            cfg = replace(cfg, output=replace(cfg.output, heatmap=heatmap))
        return cfg


def _mapping(section, where: str) -> dict:
    """``section`` as a mapping; an absent or null section reads as empty."""
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(section).__name__}")
    return section


_KINDS = {"str": str, "bool": bool}   # any other annotation is a number


def _value(v, kind: str, where: str):
    """``v`` as a field annotated ``kind``: a str, a bool, or else a number (never a bool)."""
    if v is None:
        raise ConfigError(f"{where} is required")
    want = _KINDS.get(kind, (int, float))
    if not isinstance(v, want) or (isinstance(v, bool) and want is not bool):
        raise ConfigError(f"{where} must be a {kind if kind in _KINDS else 'number'}, got {v!r}")
    return v


def _build(cls, section, where: str, **given):
    """``cls`` from the mapping ``section``, each field of its annotated kind.

    An absent or null field takes the dataclass default (required if it has
    none), an unknown key is refused, and the range is ``cls``'s own check.
    ``given`` supplies fields already built from subsections.
    """
    section = _mapping(section, where)
    names = {f.name for f in fields(cls)}
    for key in section:
        if key not in names:
            raise ConfigError(f"{where}: unknown key {key!r}")
    kwargs = dict(given)
    for f in fields(cls):
        v = section.get(f.name)
        if f.name not in given and (v is not None or f.default is MISSING):
            kwargs[f.name] = _value(v, f.type, f"{where}.{f.name}")
    try:
        return cls(**kwargs)
    except SkinwaveError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _model_to_dict(spec: ModelSpec) -> dict:
    d = {"family": _FAMILY_NAMES[type(spec)]}
    d.update(asdict(spec))
    return d


def config_from_dict(raw: dict) -> ExperimentConfig:
    raw = _mapping(raw, "config")
    model = dict(_mapping(raw.get("model"), "model"))
    family = model.pop("family", None)
    cls = _FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise ConfigError(f"model.family must be one of {sorted(_FAMILIES)}, got {family!r}")
    snaps = raw.get("snapshot_times", ())
    if snaps is None:
        snaps = ()
    if not isinstance(snaps, (list, tuple)):
        raise ConfigError("snapshot_times must be a list of times")
    return _build(
        ExperimentConfig,
        raw,
        "config",
        model=_build(cls, model, "model"),
        packet=_build(GaussianParams, raw.get("packet"), "packet"),
        times=_build(TimeGrid, raw.get("times"), "times"),
        analysis=_build(AnalysisOptions, raw.get("analysis"), "analysis"),
        output=_build(OutputOptions, raw.get("output"), "output"),
        snapshot_times=tuple(
            float(_value(v, "float", f"snapshot_times.{i}")) for i, v in enumerate(snaps)
        ),
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
