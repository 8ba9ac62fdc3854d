import builtins
import dataclasses
import errno
import os
import signal
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from agechemo import csvtext, delay, galerkin, lyapunov, scenario, trajectories
from agechemo.cli import main
from agechemo.delay import simulate_closed_loop
from agechemo.config import build_trajectory, build_x0
from agechemo.controller import ControllerGains, ScalarLoop
from agechemo.errors import (
    AgeChemoError,
    GridMismatch,
    Instability,
    InvalidIC,
    NonPositiveOutput,
    RootSearchExhausted,
)
from agechemo.galerkin import assemble, simulate
from agechemo.scenario import compare_routes, run
from agechemo.trajectories import Trajectory
from conftest import bundled, bundled_with, small_config_text
from agechemo.config import load_config


@pytest.fixture(autouse=True)
def no_stored_roots():
    """Each test starts, and leaves, with no plant's roots kept by ``run``."""
    scenario._ROOTS.clear()
    yield
    scenario._ROOTS.clear()


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


def _run_route(route, trial, basis, traj, t_final, snapshot_times=()):
    """One route's trace on fig2a's model under the reference ``traj``."""
    params, gains, dt = trial["params"], trial["gains"], trial["cfg"].dt
    if route == "galerkin":
        return simulate(assemble(basis, params), basis, traj, gains, params, t_final, dt, snapshot_times)
    return simulate_closed_loop(trial["x0"], traj, trial["eq"], gains, params, t_final, dt, snapshot_times)


@pytest.mark.parametrize("route", ["galerkin", "oracle"])
def test_trajectory_calls_do_not_grow_with_steps(trial, trial_basis, route):
    # the reference is read as arrays, by the sweep alone: y_ref(0), then the
    # staged rate in two calls and y_ref at the nodes; snapshots reuse it
    for t_final in (1.0, 3.0):
        traj, calls = _counting(trial["traj"])
        _run_route(route, trial, trial_basis, traj, t_final, (0.5, 0.75))
        assert calls == {"eval": 2, "rate": 2}


@pytest.mark.parametrize("y_ref0", [0.0, -1.0])
@pytest.mark.parametrize("route", ["galerkin", "oracle"])
def test_a_reference_not_positive_at_zero_is_refused_by_both_routes(trial, trial_basis, route, y_ref0):
    traj = Trajectory("constant", {}, lambda t: np.full(np.shape(t), y_ref0), lambda t: np.zeros(np.shape(t)))
    with pytest.raises(InvalidIC, match="^reference must be positive at t = 0$"):
        _run_route(route, trial, trial_basis, traj, 1.0)


@pytest.fixture(scope="module")
def input_free_solves(trial, trial_basis):
    """Each route's input-free solve on fig2a's model over fig2a's horizon: (loop constants, m, delta)."""
    params, eq, dt = trial["params"], trial["eq"], trial["cfg"].dt
    n_steps = int(round(trial["cfg"].t_final / dt))
    state = delay.init_delay_state(trial["x0"], eq, params, dt)
    history = delay._advance_psi(state.dyn, state.buffer, n_steps)
    system = assemble(trial_basis, params)
    a_mat = system.a_matrix
    c = float(a_mat[1, 1])
    prop = galerkin._expm((a_mat - c * np.eye(len(a_mat))) * (0.5 * dt))
    mu_nodes = np.empty((n_steps + 1, len(a_mat)))
    y_free = galerkin._propagate(prop, system.lam, system.p_vector, 2 * n_steps + 1, mu_nodes)
    return {
        "oracle": (eq.d_star, state.m, delay._delta_grid(state.dyn, history)),
        "galerkin": (c, 1.0, np.log(y_free)),
    }


@pytest.mark.parametrize("name", ["fig2a", "fig2b", "const"])
def test_one_input_free_solve_closes_under_each_reference(request, trial, input_free_solves, name):
    # the reference, the gains and the input band reach a route only through
    # the sweep, so one solve, sliced to a config's horizon, closes into that
    # config's run bit for bit
    cfg = load_config(bundled(name + ".cfg"))
    assert cfg.dt == trial["cfg"].dt and cfg.t_final <= trial["cfg"].t_final
    assert np.array_equal(build_x0(cfg, trial["params"], trial["eq"]).values, trial["x0"].values)
    report = request.getfixturevalue(name + "_report") if name != "const" else run(cfg)
    traj, gains = build_trajectory(cfg), ControllerGains(cfg.gamma, cfg.l1, cfg.l2, cfg.z0)
    n_steps = int(round(cfg.t_final / cfg.dt))
    fields = {"oracle": ("eta", "z1", "z2", "d", "y"), "galerkin": ("z1", "z2", "d", "y_sim")}
    for route, (d_star, m, delta) in input_free_solves.items():
        loop = ScalarLoop.of(gains, d_star, cfg.d_min, cfg.d_max)
        t, (eta, z1, z2), d, _, y = loop.sweep(traj, cfg.dt, m, gains.z0, delta[: 2 * n_steps + 1])
        closed = {"eta": eta, "z1": z1, "z2": z2, "d": d, "y": y, "y_sim": y}
        trace = report.traces[route]
        assert np.array_equal(t, trace.t)
        for field in fields[route]:
            assert np.array_equal(closed[field], getattr(trace, field)), (route, field)


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


@pytest.mark.parametrize("n_rows", [0, 1, csvtext.BLOCK - 1, csvtext.BLOCK + 1, 2401])
def test_csv_writer_matches_per_value_writer_at_block_edges(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    names = ["t", "y", "u"]
    cols = [np.arange(n_rows) * 0.005, rng.lognormal(0.0, 3.0, n_rows), rng.normal(0.0, 1e-3, n_rows)]
    _write_per_value(tmp_path / "old.csv", names, zip(*cols))
    scenario._write_csv(tmp_path / "new.csv", names, cols)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    # one column: a profiles file with no snapshot times
    nodes = np.linspace(0.0, 2.0, n_rows)
    _write_per_value(tmp_path / "old_profiles.csv", ["a"], ([a] for a in nodes))
    scenario._write_snapshots(tmp_path / "new_profiles.csv", nodes, {})
    assert (tmp_path / "new_profiles.csv").read_bytes() == (tmp_path / "old_profiles.csv").read_bytes()


def test_csv_writer_memory_does_not_grow_with_the_trace(tmp_path, monkeypatch):
    # a block of rows is formatted at a time, so a trace three times longer is
    # formatted in blocks that peak no higher.  Each block's peak is taken above
    # the memory held as its call starts, and gets 1% slack: byte-equal peaks of
    # the whole write would also follow which small buffers numpy keeps cached
    rng = np.random.default_rng(7)
    names = list("abcdefgh")
    scenario._write_csv(tmp_path / "warm.csv", names, list(rng.uniform(-2.0, 2.0, (8, 300))))
    format_rows, growth, peaks = csvtext.format_rows, [], []

    def measured(block):
        held, peak = tracemalloc.get_traced_memory()
        peaks.append(peak)  # of the write since the previous block's call began
        tracemalloc.reset_peak()
        text = format_rows(block)
        growth[-1].append(tracemalloc.get_traced_memory()[1] - held)
        return text

    monkeypatch.setattr(csvtext, "format_rows", measured)
    for n_rows in (2401, 7201):
        cols = list(rng.uniform(-2.0, 2.0, (8, n_rows)))
        growth.append([])
        tracemalloc.start()
        try:
            scenario._write_csv(tmp_path / "trace.csv", names, cols)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the whole trace as one block would triple the longer trace's growth
    assert max(growth[1]) <= 1.01 * max(growth[0]) and max(peaks) < 0.5e6


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


def _counted_root_searches(monkeypatch):
    """Wrap ``galerkin.characteristic_roots``; the list that each call in this process appends to."""
    calls = []
    search = galerkin.characteristic_roots

    def counted(eq, params, count):
        calls.append(count)
        return search(eq, params, count)

    monkeypatch.setattr(galerkin, "characteristic_roots", counted)
    return calls


@needs_fork
@pytest.mark.parametrize("n_cpus", [1, 2])
def test_a_second_run_on_the_plant_writes_the_first_runs_bytes(tmp_path, monkeypatch, n_cpus):
    # forked, the roots come back from the child with its result; inline they
    # are the route's own.  Either way the warm run writes the cold run's bytes
    _cpus(monkeypatch, n_cpus)
    cfg = load_config(bundled("fig2a.cfg"))
    for n in (1, 2):
        run(cfg, tmp_path / str(n))
        assert len(scenario._ROOTS) == 1
    cold, warm = _tree(tmp_path / "1"), _tree(tmp_path / "2")
    assert sorted(cold) == ["galerkin.csv", "galerkin_profiles.csv", "oracle.csv", "oracle_profiles.csv", "report.txt"]
    assert warm == cold
    _assert_no_child_left()


@needs_fork
def test_a_second_run_on_the_plant_searches_no_roots(tmp_path, monkeypatch):
    _cpus(monkeypatch, 1)
    calls = _counted_root_searches(monkeypatch)
    cfg = _tiny(tmp_path)
    run(cfg)
    run(dataclasses.replace(cfg, t_final=2.0, gamma=3.0))  # the reference and gains are not the plant
    assert calls == [4]
    # forked: a search in the child would raise there, and the run with it
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(galerkin, "characteristic_roots", _failing(AssertionError, "searched again"))
    assert run(cfg).passed
    _assert_no_child_left()


def test_a_new_kernel_or_mode_count_searches_again(tmp_path, monkeypatch):
    calls = _counted_root_searches(monkeypatch)
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text(small_config_text())
    other_kernel = tmp_path / "k.cfg"
    other_kernel.write_text(small_config_text().replace("quadratic-motherhood 2.00", "quadratic-motherhood 2.10"))
    cfgs = [load_config(p) for p in (tiny, other_kernel, tiny)]
    cfgs.append(dataclasses.replace(cfgs[0], n_modes=6))
    for cfg in cfgs:
        run(dataclasses.replace(cfg, routes="galerkin"))
        assert len(scenario._ROOTS) == 1  # the last plant's roots only
    assert calls == [4, 4, 4, 6]


@needs_fork
@pytest.mark.parametrize("n_cpus", [1, 2])
def test_a_failed_root_search_is_not_kept(tmp_path, monkeypatch, n_cpus):
    _cpus(monkeypatch, n_cpus)
    shortfall = _failing(RootSearchExhausted, "found 1 conjugate pairs, need 2")
    monkeypatch.setattr(galerkin, "characteristic_roots", shortfall)
    for _ in range(2):
        with pytest.raises(RootSearchExhausted, match="found 1 conjugate pairs"):
            run(_tiny(tmp_path))
        assert scenario._ROOTS == {}
    _assert_no_child_left()


def test_the_kept_roots_are_the_runs_to_alter(tmp_path, monkeypatch):
    # each run gets its own copy of the kept roots: emptying one leaves the next whole
    seen = []
    build = galerkin.build_basis

    def emptying(x0, eq, roots, *args):
        basis = build(x0, eq, roots, *args)
        seen.append((len(roots), roots.sigma_lo, roots.omega_cap))
        roots.clear()
        return basis

    monkeypatch.setattr(galerkin, "build_basis", emptying)
    cfg = _tiny(tmp_path, "galerkin")
    for _ in range(3):
        run(cfg)
    assert len(set(seen)) == 1 and seen[0][0] == 3


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


def _checks(report):
    return {name: (ok, detail) for name, ok, detail in report.checks}


def test_ide_identity_and_history_decay_checks_can_fail(fig2a_cfg, fig2a_report, monkeypatch):
    # the recurrence with every a_j 0.1% heavy, as a kernel of mass 1.001 would
    # step without sum c = 1 re-imposed, breaks the renewal identity on the
    # refined rule and grows a mode that the history-norm envelope refuses
    # (one a_j * (1 + 1e-4) moves the residual by less than its 4.79e-7 floor)
    clean = _checks(fig2a_report)
    assert clean["oracle_ide_identity"] == (True, "max residual 4.79e-07")
    assert clean["history_decay"] == (True, "W0 0.154, monotone True, envelope True, floor True")
    _make_recurrence_heavy(monkeypatch)
    checks = _checks(run(dataclasses.replace(fig2a_cfg, routes="oracle")))
    assert checks["oracle_ide_identity"] == (False, "max residual 2.39e-06")
    assert checks["history_decay"] == (False, "W0 0.154, monotone True, envelope False, floor True")


def _make_recurrence_heavy(monkeypatch):
    """Every a_j of the psi recurrence 0.1% heavy from here on."""
    build = delay._PsiDynamics.build

    def heavy(*args):
        dyn = build(*args)
        dyn.coef *= 1.001
        return dyn

    monkeypatch.setattr(delay._PsiDynamics, "build", staticmethod(heavy))


def test_history_decay_runs_without_a_certificate(fig2b_report, fig3_report, monkeypatch):
    # both references leave the rate band, so neither run has a certificate;
    # the history check needs only the kernel's sigma, and it runs and passes
    # on both, and fails on fig2b under fig2a's 0.1%-heavy recurrence
    for report in (fig2b_report, fig3_report):
        assert report.certificate is None and "clf_decay" not in _checks(report)
    assert _checks(fig2b_report)["history_decay"] == (True, "W0 0.154, monotone True, envelope True, floor True")
    assert _checks(fig3_report)["history_decay"] == (True, "W0 0.000665, monotone True, envelope True, floor True")
    _make_recurrence_heavy(monkeypatch)
    checks = _checks(run(dataclasses.replace(load_config(bundled("fig2b.cfg")), routes="oracle")))
    assert checks["history_decay"] == (False, "W0 0.154, monotone True, envelope False, floor True")


@pytest.mark.parametrize("name", ["fig2a.cfg", "fig2b.cfg"])
def test_the_kernel_part_is_computed_once_per_run(monkeypatch, name):
    # with a certificate (fig2a) and without one (fig2b), history_decay reads
    # the sigma that the set-up computed
    calls = []
    kernel_constants = lyapunov.kernel_constants

    def counted(k_tilde):
        calls.append(k_tilde.n)
        return kernel_constants(k_tilde)

    monkeypatch.setattr(lyapunov, "kernel_constants", counted)
    report = run(dataclasses.replace(load_config(bundled(name)), routes="oracle"))
    assert calls == [401] and _checks(report)["history_decay"][0]


def test_limiting_exponential_check_can_fail(fig3_report, monkeypatch):
    assert _checks(fig3_report)["limiting_exponential"] == (True, "drift 0.000136 over [0, 4.82]")
    simulate_modal = galerkin.simulate

    def drifting(*args, **kwargs):
        trace = simulate_modal(*args, **kwargs)
        return dataclasses.replace(trace, y_sim=trace.y_sim * (1.0 + 0.005 * trace.t))

    monkeypatch.setattr(galerkin, "simulate", drifting)
    checks = _checks(run(load_config(bundled("fig3.cfg"))))
    assert checks["limiting_exponential"] == (False, "drift 0.0241 over [0, 4.82]")
    # a 2.4% drift of the modal output stays inside the route-agreement budget
    assert checks["route_agreement"] == (True, "y gap 0.04 (budget 0.05)")


def test_clf_decay_check_can_fail(fig2a_cfg, monkeypatch):
    certify = lyapunov.build_certificate

    def clf_decay(factor):
        # the certificate claims ``factor`` times its decay rate L
        def faster(*args):
            cert = certify(*args)
            return dataclasses.replace(cert, l_rate=factor * cert.l_rate)

        monkeypatch.setattr(lyapunov, "build_certificate", faster)
        return _checks(run(dataclasses.replace(fig2a_cfg, routes="oracle")))["clf_decay"]

    # the integrated envelope still holds at 1000 times L and breaks by 3000
    assert clf_decay(3000.0) == (False, "48 violations / 240 samples (slack 15.4); integrated_ok False")
    assert clf_decay(1000.0) == (False, "24 violations / 240 samples (slack 15.4)")
    # 100 times L still passes: the fallback second-difference slack (15.4,
    # against V0 of about 135) hides it; ROADMAP item 5 keeps the half-step
    # slack that would refute it
    assert clf_decay(100.0) == (True, "0 violations / 240 samples (slack 15.4)")


def _oracle_checks_with(fig2a_cfg, monkeypatch, name, **fields):
    """The oracle route's checks on fig2a with ``lyapunov.<name>``'s report given ``fields``."""
    checker = getattr(lyapunov, name)
    monkeypatch.setattr(lyapunov, name, lambda *a, **k: dataclasses.replace(checker(*a, **k), **fields))
    return _checks(run(dataclasses.replace(fig2a_cfg, routes="oracle")))


def test_history_decay_fail_names_a_nonpositive_floor(fig2a_cfg, monkeypatch):
    # a floor that is monotone but not positive fails, and the detail says so
    checks = _oracle_checks_with(fig2a_cfg, monkeypatch, "check_history_decay", floor_positive=False)
    assert checks["history_decay"] == (False, "W0 0.154, monotone True, envelope True, floor False")


def test_clf_decay_fail_names_a_broken_integrated_envelope(fig2a_cfg, monkeypatch):
    checks = _oracle_checks_with(fig2a_cfg, monkeypatch, "verify_decay", integrated_ok=False)
    assert checks["clf_decay"] == (False, "0 violations / 240 samples (slack 15.4); integrated_ok False")


def test_unwritable_out_is_refused_before_any_route_runs(tmp_path, monkeypatch, capsys):
    path = tmp_path / "tiny.cfg"
    path.write_text(small_config_text())
    out = tmp_path / "read-only"
    out.mkdir()
    monkeypatch.setattr(galerkin, "characteristic_roots", _failing(AssertionError, "the Galerkin route ran"))
    monkeypatch.setattr(delay, "simulate_closed_loop", _failing(AssertionError, "the delay route ran"))
    if os.geteuid() != 0:
        out.chmod(0o555)
    else:  # root may write anywhere: refuse what a read-only directory refuses
        mkdir, open_ = os.mkdir, builtins.open

        def refused(p):
            if isinstance(p, (str, os.PathLike)) and out in Path(p).parents:
                raise PermissionError(errno.EACCES, "Permission denied", str(p))

        def guarded_mkdir(p, *args, **kwargs):
            refused(p)
            return mkdir(p, *args, **kwargs)

        def guarded_open(p, mode="r", *args, **kwargs):
            if set(mode) & set("wax+"):
                refused(p)
            return open_(p, mode, *args, **kwargs)

        monkeypatch.setattr(os, "mkdir", guarded_mkdir)
        monkeypatch.setattr(builtins, "open", guarded_open)
    try:
        code = main(["run", str(path), "--out", str(out)])
    finally:
        out.chmod(0o755)
    assert code == 3
    assert capsys.readouterr().err == "input error: --out %s: cannot create directory (Permission denied)\n" % out
    assert list(out.iterdir()) == []


def _tree(out):
    """Every entry under ``out`` by relative path: a file's bytes, or None for a directory."""
    return {p.relative_to(out).as_posix(): p.read_bytes() if p.is_file() else None for p in out.rglob("*")}


@needs_fork
@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("exc_type", [KeyboardInterrupt, Instability])
def test_failed_run_removes_its_staging_directory_and_nothing_else(tmp_path, monkeypatch, n_cpus, exc_type):
    _cpus(monkeypatch, n_cpus)
    out = tmp_path / "o"
    (out / ".cache").mkdir(parents=True)
    (out / ".cache" / "keep").write_bytes(b"kept\n")
    (out / "notes.txt").write_bytes(b"notes\n")
    run(_tiny(tmp_path), out)
    earlier = _tree(out)
    assert sorted(earlier) == [
        ".cache",
        ".cache/keep",
        "galerkin.csv",
        "galerkin_profiles.csv",
        "notes.txt",
        "oracle.csv",
        "oracle_profiles.csv",
        "report.txt",
    ]
    assert earlier[".cache/keep"] == b"kept\n" and earlier["notes.txt"] == b"notes\n"
    monkeypatch.setattr(delay, "simulate_closed_loop", _failing(exc_type, "delay route stopped"))
    with pytest.raises(exc_type, match="delay route stopped"):
        run(_tiny(tmp_path), out)
    # re-raised after the child is reaped and the staging directory removed
    assert _tree(out) == earlier
    _assert_no_child_left()
