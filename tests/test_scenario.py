import dataclasses
import errno
import os
import signal
import sys
from pathlib import Path

import numpy as np
import pytest

from agechemo import delay, galerkin, scenario, trajectories
from agechemo.cli import main
from agechemo.delay import simulate_closed_loop
from agechemo.errors import AgeChemoError, GridMismatch, Instability, NonPositiveOutput
from agechemo.galerkin import assemble, simulate
from agechemo.scenario import compare_routes, run
from agechemo.trajectories import Trajectory
from conftest import bundled, bundled_with, small_config_text
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
    # checks that held by construction are not run
    assert not names.keys() & {"galerkin_input_bounds", "oracle_input_bounds", "oracle_output_positive"}


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
    # the periodic reference leaves the band again every period, and
    # validate resolves only its first probe time inside the band
    band = [w for w in fig2b_report.warnings if w.startswith("trajectory violates the rate band")]
    assert len(band) == 1 and band[0].endswith("; first enters the valid band at t = 0.4902")
    names = {name for name, _, _ in fig2b_report.checks}
    assert "galerkin_positivity" in names and "oracle_ide_identity" in names


def _count_validate_calls(monkeypatch):
    """Wrap ``validate`` in every package module holding it; the kinds it is called on."""
    calls = []
    validate = trajectories.validate

    def counted(traj, *args, **kwargs):
        calls.append(traj.kind)
        return validate(traj, *args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("agechemo") and getattr(module, "validate", None) is validate:
            monkeypatch.setattr(module, "validate", counted)
    return calls


@pytest.mark.parametrize("entry", ["run", "verify"])
def test_rate_band_is_probed_once(monkeypatch, capsys, entry):
    # the certificate takes the caller's verdict instead of probing again
    calls = _count_validate_calls(monkeypatch)
    if entry == "run":
        run(load_config(bundled("fig2a.cfg")))
    else:
        assert main(["verify", str(bundled("fig2a.cfg"))]) == 0
    assert calls == ["transition"]

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


@pytest.mark.parametrize(
    "routes, names",
    [
        ("both", ["galerkin.csv", "galerkin_profiles.csv", "oracle.csv", "oracle_profiles.csv", "report.txt"]),
        ("galerkin", ["galerkin.csv", "galerkin_profiles.csv", "report.txt"]),
        ("oracle", ["oracle.csv", "oracle_profiles.csv", "report.txt"]),
    ],
)
def test_run_writes_the_files_of_the_requested_routes(tmp_path, routes, names):
    # and no temporary of the delay route's CSVs
    run(_tiny(tmp_path, routes), tmp_path / "o")
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == names


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
    cfg = _tiny(tmp_path, "oracle")

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


def test_galerkin_positivity_check_can_fail(tmp_path, monkeypatch, capsys):
    # a flow that rotates the equilibrium weight into the first cosine mode
    # drives the modal profile below zero; the run records it and goes on
    path = tmp_path / "tiny.cfg"
    path.write_text(small_config_text())
    assemble_model = galerkin.assemble

    def rotated(*args):
        system = assemble_model(*args)
        system.a_matrix[2, 1] += 0.5
        system.a_matrix[1, 2] -= 0.5
        return system

    monkeypatch.setattr(galerkin, "assemble", rotated)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    report = (tmp_path / "o" / "report.txt").read_text()
    failed = [line.split()[0] for line in report.splitlines() if "  FAIL  " in line]
    # the rotated flow also moves the modal output 7% off the delay route's
    assert failed == ["galerkin_positivity", "route_agreement"]
    assert "route_agreement              FAIL  y gap 0.0733 (budget 0.05)" in report
    assert "galerkin_positivity          FAIL  min profile -0.0166" in report


def test_tracking_settled_check_can_fail(tmp_path):
    # const.cfg settles within 1e-3 by t = 8, not by t = 2
    def settled(t_final):
        report = run(load_config(bundled_with(tmp_path, "const.cfg", "t_final", t_final)))
        return {name: (ok, detail) for name, ok, detail in report.checks}["tracking_settled"]

    assert settled("8.0") == (True, "|log error| at end 6.25e-08")
    assert settled("2.0") == (False, "|log error| at end 0.00711")


@pytest.mark.parametrize("route", ["galerkin", "oracle"])
def test_snapshots_keyed_by_the_nearest_step(trial, trial_basis, route):
    # dt = 0.005: 0.333 names step 67 (t = 0.335), and 1.001 step 200 like 1.0
    params, gains, dt = trial["params"], trial["gains"], trial["cfg"].dt
    times = (0.333, 1.0, 1.001)
    if route == "galerkin":
        trace = simulate(assemble(trial_basis, params), trial_basis, trial["traj"], gains, params, 1.5, dt, times)
    else:
        trace = simulate_closed_loop(trial["x0"], trial["traj"], trial["eq"], gains, params, 1.5, dt, times)
    assert list(trace.snapshots) == [trace.t[67], trace.t[200]]
    assert ["%g" % t for t in trace.snapshots] == ["0.335", "1"]


def test_ide_samples_end_at_the_last_stored_node(tmp_path, monkeypatch):
    # t_final = 1.0024 rounds to 200 steps of 0.005: the last stored node is t = 1
    cfg = dataclasses.replace(
        load_config(bundled_with(tmp_path, "const.cfg", "t_final", "1.0024")), routes="oracle"
    )
    sampled = []
    residual = delay.OracleTrace.ide_residual

    def recording(trace, t):
        sampled.append(t)
        return residual(trace, t)

    monkeypatch.setattr(delay.OracleTrace, "ide_residual", recording)
    t_end = run(cfg).traces["oracle"].t[-1]
    assert t_end < cfg.t_final and len(sampled) == 8
    assert max(sampled) <= t_end


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


# The Galerkin route of a run with both routes goes to a forked child when the
# process may use two CPUs. The tests below set the CPU count that run() sees,
# so each takes the path it names on any host.
needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")), reason="no fork or no CPU affinity"
)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _tiny(tmp_path, routes="both"):
    path = tmp_path / "tiny.cfg"
    path.write_text(small_config_text())
    return dataclasses.replace(load_config(path), routes=routes)


def _failing(exc_type, *exc_args):
    def fail(*args, **kwargs):
        raise exc_type(*exc_args)

    return fail


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_forked_route_runs_in_a_child_and_is_reaped(tmp_path, monkeypatch):
    _cpus(monkeypatch, 2)
    calls = []
    simulate_modal = galerkin.simulate

    def counted(*args, **kwargs):
        calls.append(os.getpid())
        return simulate_modal(*args, **kwargs)

    monkeypatch.setattr(galerkin, "simulate", counted)
    report = run(_tiny(tmp_path), tmp_path / "o")
    # the child's append never reaches this process
    assert calls == [] and set(report.traces) == {"galerkin", "oracle"}
    assert report.passed
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("oracle_fails", [False, True])
def test_galerkin_failure_in_the_child_is_the_serial_failure(tmp_path, monkeypatch, oracle_fails):
    _cpus(monkeypatch, 2)
    message = "modal output p^T mu = -1 <= 0 at t = 0.5"
    monkeypatch.setattr(galerkin, "simulate", _failing(NonPositiveOutput, message))
    if oracle_fails:
        monkeypatch.setattr(delay, "simulate_closed_loop", _failing(Instability, "delay route failed"))
    raised = {}
    for routes in ("galerkin", "both"):
        out = tmp_path / routes
        out.mkdir()
        (out / "oracle.csv").write_bytes(b"an earlier run's trace\n")
        with pytest.raises(AgeChemoError) as info:
            run(_tiny(tmp_path, routes), out)
        raised[routes] = (type(info.value), str(info.value))
        # as serially: no CSV of either route, no report and no temporary;
        # the earlier oracle.csv keeps its bytes
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {"oracle.csv": b"an earlier run's trace\n"}
    assert raised["both"] == raised["galerkin"] == (NonPositiveOutput, message)
    _assert_no_child_left()


@needs_fork
def test_delay_route_failure_leaves_the_serial_files(tmp_path, monkeypatch):
    monkeypatch.setattr(delay, "simulate_closed_loop", _failing(Instability, "delay route failed"))
    files = {}
    for n_cpus in (1, 2):
        _cpus(monkeypatch, n_cpus)
        out = tmp_path / str(n_cpus)
        with pytest.raises(Instability, match="delay route failed"):
            run(_tiny(tmp_path), out)
        files[n_cpus] = {p.name: p.read_bytes() for p in out.iterdir()}
    # the Galerkin route's files are written, and deleted with the run's failure
    assert files[2] == files[1] == {}
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("n_cpus", [1, 2])
def test_csv_write_error_leaves_no_delay_route_file(tmp_path, monkeypatch, n_cpus):
    _cpus(monkeypatch, n_cpus)
    write_snapshots = scenario._write_snapshots

    def fail_on_oracle(path, *args):
        if "oracle" in path.name:
            path.write_text("partial")
            raise OSError(errno.ENOSPC, "No space left on device")
        return write_snapshots(path, *args)

    monkeypatch.setattr(scenario, "_write_snapshots", fail_on_oracle)
    out = tmp_path / "o"
    with pytest.raises(OSError, match="No space left on device"):
        run(_tiny(tmp_path), out)
    # the half-written pair of temporaries is gone, and so are the Galerkin route's
    assert list(out.iterdir()) == []
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("n_cpus", [1, 2])
def test_write_error_keeps_the_earlier_run_files(tmp_path, monkeypatch, n_cpus):
    _cpus(monkeypatch, n_cpus)
    names = ["galerkin.csv", "galerkin_profiles.csv", "oracle.csv", "oracle_profiles.csv", "report.txt"]
    out = tmp_path / "o"
    out.mkdir()
    earlier = {name: b"an earlier run's %s\n" % name.encode() for name in names}
    for name, data in earlier.items():
        (out / name).write_bytes(data)
    write_snapshots = scenario._write_snapshots

    def fail_on_galerkin(path, *args):
        if "galerkin" in path.name:
            path.write_bytes(b"a,t=2\n")
            raise OSError(errno.ENOSPC, "No space left on device")
        return write_snapshots(path, *args)

    monkeypatch.setattr(scenario, "_write_snapshots", fail_on_galerkin)
    with pytest.raises(OSError, match="No space left on device"):
        run(_tiny(tmp_path), out)
    # in the child or inline: every file keeps its bytes and no temporary is left
    assert {p.name: p.read_bytes() for p in out.iterdir()} == earlier
    _assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("failing", ["pipe", "fork"])
def test_fork_failure_runs_the_route_inline(tmp_path, monkeypatch, failing):
    _cpus(monkeypatch, 1)
    run(_tiny(tmp_path), tmp_path / "inline")
    _cpus(monkeypatch, 2)
    pipe, close = os.pipe, os.close
    opened, closed = [], []

    def recorded_pipe():
        if failing == "pipe":
            raise OSError(errno.EMFILE, "Too many open files")
        opened.extend(pipe())
        return tuple(opened)

    def recorded_close(fd):
        closed.append(fd)
        close(fd)

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "close", recorded_close)
    monkeypatch.setattr(os, "fork", _failing(OSError, errno.EAGAIN, "Resource temporarily unavailable"))
    assert run(_tiny(tmp_path), tmp_path / "fallback").passed
    # both ends of the pipe are closed at once, before any other descriptor
    assert closed[: len(opened)] == opened and len(opened) == (2 if failing == "fork" else 0)
    inline, fallback = tmp_path / "inline", tmp_path / "fallback"
    assert sorted(p.name for p in fallback.iterdir()) == sorted(p.name for p in inline.iterdir())
    for p in inline.iterdir():
        assert (fallback / p.name).read_bytes() == p.read_bytes(), p


@needs_fork
def test_child_that_dies_without_a_result_is_named(monkeypatch):
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match=r"^forked child \d+ exited with status 1 before it sent a result$"):
        scenario._Child(lambda: os._exit(1)).result()
    with pytest.raises(RuntimeError, match=r"^forked child \d+ was killed by signal 9 before it sent a result$"):
        scenario._Child(lambda: os.kill(os.getpid(), signal.SIGKILL)).result()
    _assert_no_child_left()


@needs_fork
def test_inline_path_writes_the_forked_bytes(tmp_path, monkeypatch):
    # fig3 saturates at d_min, const is the constant kind
    configs = [load_config(bundled(name)) for name in ("fig2a.cfg", "fig2b.cfg", "fig3.cfg", "const.cfg")]
    _cpus(monkeypatch, 2)
    for cfg in configs:
        run(cfg, tmp_path / "forked" / Path(cfg.source).name)
    _cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", _failing(AssertionError, "forked on one CPU"))
    for cfg in configs:
        run(cfg, tmp_path / "inline" / Path(cfg.source).name)
    for cfg in configs:
        forked, inline = (tmp_path / side / Path(cfg.source).name for side in ("forked", "inline"))
        assert sorted(p.name for p in forked.iterdir()) == sorted(p.name for p in inline.iterdir()) == [
            "galerkin.csv",
            "galerkin_profiles.csv",
            "oracle.csv",
            "oracle_profiles.csv",
            "report.txt",
        ]
        for p in forked.iterdir():
            assert p.read_bytes() == (inline / p.name).read_bytes(), p


def _route_agreement(report):
    return {name: (ok, detail) for name, ok, detail in report.checks}["route_agreement"]


@pytest.mark.parametrize(
    "fixture, detail",
    [("fig2b_report", "y gap 0.008707 (budget 0.05)"), ("fig3_report", "y gap 0.0001179 (budget 0.05)")],
)
def test_route_agreement_runs_on_every_kind(request, fixture, detail):
    assert _route_agreement(request.getfixturevalue(fixture)) == (True, detail)


def test_route_agreement_check_can_fail(tmp_path, monkeypatch):
    # the tiny config tracks a constant reference; a Galerkin output 10% high
    # puts the routes about 10% apart
    cfg = _tiny(tmp_path)
    assert _route_agreement(run(cfg)) == (True, "y gap 0.006092 (budget 0.05)")
    simulate_modal = galerkin.simulate

    def scaled(*args, **kwargs):
        trace = simulate_modal(*args, **kwargs)
        return dataclasses.replace(trace, y_sim=trace.y_sim * 1.1)

    monkeypatch.setattr(galerkin, "simulate", scaled)
    assert _route_agreement(run(cfg)) == (False, "y gap 0.1052 (budget 0.05)")
