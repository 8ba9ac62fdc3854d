import dataclasses

import numpy as np
import pytest

from agechemo import delay, scenario
from agechemo.delay import simulate_closed_loop
from agechemo.errors import GridMismatch
from agechemo.galerkin import assemble, simulate
from agechemo.scenario import compare_routes, run
from agechemo.trajectories import Trajectory
from conftest import bundled, small_config_text
from agechemo.config import load_config


def test_compare_routes_identical(fig2a_runs):
    g = fig2a_runs["galerkin"]
    # comparing a trace against a synthetic oracle carrying the same output
    class Fake:
        t = g.t
        y = g.y_sim
        snapshots = g.snapshots

    metrics = compare_routes(g, Fake())
    assert metrics.y_gap_linf == 0.0 and metrics.y_gap_l2 == 0.0
    assert all(v == 0.0 for v in metrics.profile_gaps.values())


def test_compare_routes_grid_mismatch(fig2a_runs):
    g = fig2a_runs["galerkin"]

    class Fake:
        t = g.t[::2]
        y = g.y_sim[::2]
        snapshots = {}

    with pytest.raises(GridMismatch):
        compare_routes(g, Fake())


def test_transition_route_gap(fig2a_runs):
    metrics = compare_routes(fig2a_runs["galerkin"], fig2a_runs["oracle"])
    assert metrics.y_gap_linf < 0.05
    for gap in metrics.profile_gaps.values():
        assert gap < 0.05


def test_transition_report_passes_all_checks(fig2a_report):
    assert fig2a_report.passed, fig2a_report.render()
    names = {name: (ok, detail) for name, ok, detail in fig2a_report.checks}
    for required in (
        "galerkin_input_bounds",
        "galerkin_positivity",
        "oracle_ide_identity",
        "history_decay",
        "clf_decay",
        "route_agreement",
        "setpoint_reached",
    ):
        assert required in names and names[required][0], (required, names.get(required))
    assert fig2a_report.metrics.y_gap_linf < 0.05
    assert not fig2a_report.warnings


def test_report_carries_config_hash(fig3_report):
    assert len(fig3_report.config_hash) == 64
    assert fig3_report.config_hash in fig3_report.render()


def test_ramp_report_flags_band_violation(fig3_report):
    assert not fig3_report.validity.valid
    assert fig3_report.validity.t_crit == pytest.approx(1.6, abs=0.01)
    assert any("rate band" in w for w in fig3_report.warnings)
    assert fig3_report.passed


def test_ramp_limiting_exponential_check(fig3_report):
    names = {name: (ok, detail) for name, ok, detail in fig3_report.checks}
    assert "limiting_exponential" in names
    ok, detail = names["limiting_exponential"]
    assert ok, detail


def test_periodic_report_runs_with_warnings(fig2b_report):
    assert fig2b_report.passed
    assert not fig2b_report.validity.valid
    assert any("certificate unavailable" in w for w in fig2b_report.warnings)
    names = {name for name, _, _ in fig2b_report.checks}
    assert "galerkin_positivity" in names and "oracle_input_bounds" in names


def test_all_bundled_scenarios_positive(fig2a_runs, fig3_report, fig2b_report):
    assert np.all(fig2a_runs["galerkin"].min_profile >= 0)
    for report in (fig3_report, fig2b_report):
        assert np.all(report.traces["galerkin"].min_profile >= 0)
        # oracle route positivity: outputs and reconstruction floor
        assert np.all(report.traces["oracle"].y > 0)


def test_run_emits_traces_for_requested_routes():
    import dataclasses

    cfg = load_config(bundled("const.cfg"))
    cfg = dataclasses.replace(cfg, routes="oracle", t_final=1.0)
    report = run(cfg)
    assert set(report.traces) == {"oracle"}


def _counting(traj):
    calls = {"eval": 0, "rate": 0}

    def counted(name):
        f = getattr(traj, name)

        def g(t):
            calls[name] += 1
            return f(t)

        return g

    return Trajectory(traj.kind, traj.params, counted("eval"), counted("rate")), calls


@pytest.mark.parametrize("route", ["galerkin", "oracle"])
def test_trajectory_calls_do_not_grow_with_steps(trial, trial_basis, route):
    # the reference is read as arrays, a fixed number of times per run
    params, gains, dt = trial["params"], trial["gains"], trial["cfg"].dt
    counts = []
    for t_final in (1.0, 3.0):
        traj, calls = _counting(trial["traj"])
        if route == "galerkin":
            simulate(assemble(trial_basis, params), trial_basis, traj, gains, params, t_final, dt, (0.5,))
        else:
            simulate_closed_loop(trial["x0"], traj, trial["eq"], gains, params, t_final, dt, (0.5,))
        counts.append(calls)
    assert counts[0] == counts[1]
    assert sum(counts[0].values()) <= 6


def test_output_consistency_check_can_fail(tmp_path, monkeypatch):
    path = tmp_path / "tiny.cfg"
    path.write_text(small_config_text())
    cfg = dataclasses.replace(load_config(path), routes="oracle")

    def consistency(report):
        return {name: (ok, detail) for name, ok, detail in report.checks}["oracle_output_consistency"]

    assert consistency(run(cfg)) == (True, "max gap < 1e-12")
    simulate_oracle = delay.simulate_closed_loop

    def skewed(*args, **kwargs):
        trace = simulate_oracle(*args, **kwargs)
        t_snap = min(trace.snapshots)
        prof = trace.snapshots[t_snap]
        trace.snapshots[t_snap] = prof.with_values(prof.values * (1.0 + 1e-6))
        return trace

    monkeypatch.setattr(delay, "simulate_closed_loop", skewed)
    assert consistency(run(cfg)) == (False, "max gap 1e-06")


def _write_per_value(path, names, rows):
    # the writer that formatted every value on its own
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def test_csv_writer_matches_per_value_writer(tmp_path, trial, fig2a_runs):
    nodes = trial["params"].nodes
    for name in ("galerkin", "oracle"):
        trace = fig2a_runs[name]
        cols = trace.columns()
        _write_per_value(tmp_path / "old.csv", trace.CSV_COLUMNS, zip(*cols))
        scenario._write_csv(tmp_path / "new.csv", trace.CSV_COLUMNS, cols)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

        times = sorted(trace.snapshots)
        names = ["a"] + ["t=%g" % t for t in times]
        rows = ([a] + [trace.snapshots[t].values[i] for t in times] for i, a in enumerate(nodes))
        _write_per_value(tmp_path / "old_profiles.csv", names, rows)
        scenario._write_snapshots(tmp_path / "new_profiles.csv", nodes, trace.snapshots)
        assert (tmp_path / "new_profiles.csv").read_bytes() == (tmp_path / "old_profiles.csv").read_bytes()
