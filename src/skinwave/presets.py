"""Built-in experiment presets.

Each preset pins the model, packet, time grid, and the analysis thresholds
that make its boundary encounter classify cleanly.  Continuum-chain runs use
grid units of dx = 0.01, so a contact threshold of 35 means 0.35 length
units; two-band chains use cell units.
"""

from __future__ import annotations

from dataclasses import replace

from .config import ExperimentConfig, TimeGrid
from .errors import UnknownPreset
from .model import BoundarySSH, ContinuousHN, NonHermitianSSH, solve_momentum_for_velocity
from .wavepacket import AnalysisOptions, GaussianParams

_HN_BOX = dict(m=1.0, b=1.0, length=10.0, dx=0.01)
_HN_ANALYSIS = AnalysisOptions(
    smoothing_window=5, contact_threshold=35.0, guard_band=5, width_cutoff_fraction=0.25
)


def _hn(name: str, k0: float, analysis: AnalysisOptions = _HN_ANALYSIS) -> ExperimentConfig:
    return ExperimentConfig(
        name=name,
        model=ContinuousHN(**_HN_BOX),
        packet=GaussianParams(sigma=0.25, x0=5.0, k0=k0),
        times=TimeGrid(t_max=1.2, frame_count=200),
        analysis=analysis,
    )


def _ssh(
    name: str,
    gamma: float,
    k0: float,
    t_max: float,
    frame_count: int,
    t1: float = 2.0,
    t2: float = 1.0,
    analysis: AnalysisOptions | None = None,
    snapshot_times: tuple = (),
) -> ExperimentConfig:
    return ExperimentConfig(
        name=name,
        model=NonHermitianSSH(t1=t1, t2=t2, gamma=gamma, n_cells=500, axis="y"),
        packet=GaussianParams(sigma=20.0, x0=250.0, k0=k0),
        times=TimeGrid(t_max=t_max, frame_count=frame_count),
        analysis=analysis
        or AnalysisOptions(smoothing_window=5, contact_threshold=12.0, guard_band=5),
        snapshot_times=snapshot_times,
    )


def _spread_k0(t2: float) -> float:
    """Momentum giving counterpart group velocity 1 in the lower band."""
    return solve_momentum_for_velocity(
        NonHermitianSSH(t1=20.0, t2=t2, gamma=-2.0, n_cells=500, axis="y"), 1.0, band=-1
    )


def _build_presets() -> dict[str, ExperimentConfig]:
    presets = {
        # continuum chain, m = b = 1, box length 10: rest packet accelerates
        # uniformly and sticks at the right wall
        "fig1a": _hn("fig1a", k0=0.0),
        # leftward launch: the turnaround happens well inside the box, so the
        # contact threshold is wide (2.0 length units) and the fit window stops
        # before the reflected packet reaches the far wall
        "fig1b": _hn(
            "fig1b",
            k0=-10.0,
            analysis=AnalysisOptions(
                smoothing_window=5,
                contact_threshold=200.0,
                guard_band=8,
                classify_window=0.32,
            ),
        ),
        # fast rightward launch, inelastic reflection at the right wall; the
        # fit window ends before the amplified tail takes the maximum back
        "fig1c": _hn(
            "fig1c",
            k0=20.0,
            analysis=AnalysisOptions(
                smoothing_window=5, contact_threshold=35.0, guard_band=7, classify_window=0.44
            ),
        ),
        # near the critical launch velocity; emitted without a pinned outcome
        "fig1d": _hn(
            "fig1d",
            k0=13.0,
            analysis=AnalysisOptions(
                smoothing_window=5, contact_threshold=35.0, guard_band=7, classify_window=0.44
            ),
        ),
        # two-band chain at rest: acceleration driven purely by spreading; the
        # slow approach makes the wall takeover span ~50 frames, so the guard
        # band around contact is wide
        "fig4": _ssh(
            "fig4",
            gamma=-0.2,
            k0=0.0,
            t_max=3600.0,
            frame_count=240,
            analysis=AnalysisOptions(
                smoothing_window=5, contact_threshold=12.0, guard_band=50
            ),
        ),
        # weak and strong gamma with launched packets: two counter-moving modes
        "fig5b": _ssh("fig5b", gamma=-0.01, k0=2.0, t_max=600.0, frame_count=200),
        "fig5c": _ssh(
            "fig5c",
            gamma=-0.2,
            k0=2.0,
            t_max=650.0,
            frame_count=200,
            analysis=AnalysisOptions(
                smoothing_window=5, contact_threshold=12.0, guard_band=5, classify_window=200.0
            ),
        ),
        # wave-meeting run: snapshots bracket the crossing of the two modes
        "sm-meet": _ssh(
            "sm-meet",
            gamma=-0.05,
            k0=2.0,
            t_max=700.0,
            frame_count=200,
            snapshot_times=(460.0, 500.0, 540.0),
        ),
        # same skin depth, different spreading speed: slow spreading reflects,
        # fast spreading sticks
        "sm-spread-slow": _ssh(
            "sm-spread-slow",
            gamma=-2.0,
            k0=_spread_k0(1.0),
            t_max=400.0,
            frame_count=200,
            t1=20.0,
            t2=1.0,
        ),
        "sm-spread-fast": _ssh(
            "sm-spread-fast",
            gamma=-2.0,
            k0=_spread_k0(10.0),
            t_max=400.0,
            frame_count=200,
            t1=20.0,
            t2=10.0,
        ),
    }
    # gain/loss only in the rightmost 40 cells; the bulk is Hermitian, so the
    # two launched modes have equal heights there and only the right wall
    # (where gamma acts) is watched for contact
    boundary = BoundarySSH(t1=20.0, t2=10.0, gamma=-2.0, n_cells=500, boundary_cells=40, axis="z")
    presets["sm-boundary"] = ExperimentConfig(
        name="sm-boundary",
        model=boundary,
        packet=GaussianParams(
            sigma=20.0, x0=250.0, k0=solve_momentum_for_velocity(boundary, 1.0, band=-1)
        ),
        times=TimeGrid(t_max=400.0, frame_count=200),
        analysis=AnalysisOptions(
            smoothing_window=5, contact_threshold=20.0, guard_band=5, contact_wall="right"
        ),
    )
    # velocity-fit view of the fig1c run
    presets["fig3"] = replace(presets["fig1c"], name="fig3")
    for name, cfg in presets.items():
        presets[name] = cfg.with_overrides(out_dir=f"out/{name}")
    return presets


_PRESETS = None


def preset_names() -> list[str]:
    return sorted(presets())


def presets() -> dict[str, ExperimentConfig]:
    global _PRESETS
    if _PRESETS is None:
        _PRESETS = _build_presets()
    return _PRESETS


def get_preset(name: str) -> ExperimentConfig:
    table = presets()
    if name not in table:
        raise UnknownPreset(f"unknown preset {name!r}; available: {', '.join(sorted(table))}")
    return table[name]
