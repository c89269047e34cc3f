"""Presets not exercised by the acceptance criteria still complete cleanly."""

import dataclasses
import math

import pytest

from skinwave.presets import get_preset
from skinwave.runner import format_report, run_experiment, run_preset


# each uniform lattice preset's oracle deviation (cells) when the law read
# the run's own measured width; the band-curvature width must not do worse
MEASURED_WIDTH_DEVIATION = {
    "fig4": 2.1620604503343657,
    "fig5b": 11.869900344036523,
    "fig5c": 4.0689436334291145,
    "sm-meet": 9.47868852013903,
    "sm-spread-slow": 4.80021103129684,
    "sm-spread-fast": 5.156137084864099,
}

# each continuum preset's oracle deviation (length units) when the law read the
# continuum's k/m, 1/m and kappa = b m; the grid's own band must not do worse
CONTINUUM_LAW_DEVIATION = {
    "fig1a": 0.03751563815031744,
    "fig1b": 0.03043622225828857,
    "fig1c": 0.06443860397796541,
    "fig1d": 0.0518161880484449,
}


@pytest.mark.parametrize(
    "name",
    ["fig1a", "fig1b", "fig1c", "fig1d", "fig3", "fig5b", "fig5c", "sm-meet", "fig4", "sm-spread-slow",
     "sm-spread-fast"],
)
def test_preset_completes_with_finite_report(name, tmp_path):
    report = run_preset(name, out_dir=tmp_path / name, heatmap=False)
    assert report.classification in ("stuck", "reflected", "no_contact")
    for fit in (report.v_in_fit, report.v_ref_fit):
        if fit is not None:
            assert math.isfinite(fit.slope) and math.isfinite(fit.intercept)
    if report.max_oracle_deviation is not None:
        assert math.isfinite(report.max_oracle_deviation)
    if name in MEASURED_WIDTH_DEVIATION:
        assert report.max_oracle_deviation <= MEASURED_WIDTH_DEVIATION[name]
    if name in CONTINUUM_LAW_DEVIATION:
        assert report.max_oracle_deviation <= CONTINUUM_LAW_DEVIATION[name]
    assert set(report.manifest) == {"density.csv", "trajectory.csv", "oracle.csv"}
    text = format_report(report)
    assert f"experiment: {name}" in text


@pytest.mark.parametrize("k0", [150.0, 400.0])
def test_fast_continuum_launch_follows_the_grid_band(k0, tmp_path):
    """fig1c's box launched at k0 dx = 1.5 and 4: the law of the grid's band holds
    to 0.01 until either the run or the law meets a wall."""
    cfg = get_preset("fig1c").with_overrides(out_dir=tmp_path / "out", heatmap=False)
    report = run_experiment(dataclasses.replace(cfg, packet=dataclasses.replace(cfg.packet, k0=k0)))
    assert report.max_oracle_deviation is not None
    assert report.max_oracle_deviation < 0.01


def test_fig3_reports_velocity_fits(tmp_path):
    report = run_preset("fig3", out_dir=tmp_path / "fig3", heatmap=False)
    assert report.classification == "reflected"
    assert report.v_in_fit is not None and report.v_ref_fit is not None


def test_sm_meet_reports_snapshots(tmp_path):
    cfg = get_preset("sm-meet")
    assert cfg.snapshot_times == (460.0, 500.0, 540.0)
    report = run_preset("sm-meet", out_dir=tmp_path / "meet", heatmap=False)
    assert len(report.notes) == 3
    assert all(note.startswith("snapshot t=") for note in report.notes)
