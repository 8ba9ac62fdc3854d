"""Scenario orchestration: dual-route runs, route comparison, reporting.

A run solves the equilibrium, validates the reference trajectory, builds
the certificate (downgrading to warnings when the trajectory is outside
the valid band), executes the requested simulation routes, and emits CSV
traces plus a deterministic text report keyed by the config hash.
"""
from __future__ import annotations

import functools
import io
import math
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import delay, galerkin, lyapunov
from .config import ScenarioConfig, build_model, build_trajectory, build_x0
from .controller import ControllerGains
from .errors import AgeChemoError, GridMismatch, ValidationError
from .model import solve_equilibrium
from .trajectories import validate

ROUTE_GAP_BUDGET = 0.05  # relative, every reference kind
TRACKING_TOL = {"transition": 0.02, "constant": 1e-3, "ramp": 0.01}
IDE_TOL = 1e-6


@dataclass(frozen=True)
class RouteMetrics:
    y_gap_linf: float
    y_gap_l2: float
    profile_gaps: dict


def compare_routes(trace_g: galerkin.GalerkinTrace, trace_o: delay.OracleTrace) -> RouteMetrics:
    """Relative output and snapshot-profile gaps between the two routes."""
    if len(trace_g.t) != len(trace_o.t) or not np.allclose(trace_g.t, trace_o.t):
        raise GridMismatch("route traces do not share a time grid")
    ref = float(np.max(np.abs(trace_o.y)))
    diff = trace_g.y_sim - trace_o.y
    y_linf = float(np.max(np.abs(diff))) / ref
    y_l2 = float(np.sqrt(np.mean(diff**2))) / float(np.sqrt(np.mean(trace_o.y**2)))
    profile_gaps = {}
    for t_snap, prof_g in trace_g.snapshots.items():
        prof_o = trace_o.snapshots.get(t_snap)
        if prof_o is None:
            continue
        scale = float(np.max(np.abs(prof_o.values)))
        profile_gaps[t_snap] = float(np.max(np.abs(prof_g.values - prof_o.values))) / scale
    return RouteMetrics(y_linf, y_l2, profile_gaps)


@dataclass
class RunReport:
    config_hash: str
    certificate: lyapunov.Certificate | None
    validity: object
    checks: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    metrics: RouteMetrics | None = None
    traces: dict = field(default_factory=dict)
    saturation: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def add_check(self, name: str, ok: bool, detail: str):
        self.checks.append((name, bool(ok), detail))

    def render(self) -> str:
        out = io.StringIO()
        out.write("config_hash: %s\n" % self.config_hash)
        out.write("\n[certificate]\n")
        if self.certificate is None:
            out.write("unavailable\n")
        else:
            for key, val in self.certificate.as_dict().items():
                out.write("%s = %.12g\n" % (key, val))
        out.write("\n[trajectory]\n")
        out.write(
            "inf_rate = %.9g\nsup_rate = %.9g\nvalid = %s\nt_crit = %s\n"
            % (
                self.validity.inf_rate,
                self.validity.sup_rate,
                self.validity.valid,
                "none" if self.validity.t_crit is None else "%.9g" % self.validity.t_crit,
            )
        )
        if self.saturation:
            out.write("\n[saturation]\n")
            for route in sorted(self.saturation):
                lo, hi = self.saturation[route]
                out.write("%s_at_bounds = %.4g (lower) %.4g (upper)\n" % (route, lo, hi))
        if self.metrics is not None:
            out.write("\n[route-agreement]\n")
            out.write("y_gap_linf = %.6g\ny_gap_l2 = %.6g\n" % (self.metrics.y_gap_linf, self.metrics.y_gap_l2))
            for t_snap in sorted(self.metrics.profile_gaps):
                out.write("profile_gap_t%g = %.6g\n" % (t_snap, self.metrics.profile_gaps[t_snap]))
        out.write("\n[checks]\n")
        for name, ok, detail in self.checks:
            out.write("%-28s %s  %s\n" % (name, "PASS" if ok else "FAIL", detail))
        out.write("\n[warnings]\n")
        for w in self.warnings:
            out.write("- %s\n" % w)
        if not self.warnings:
            out.write("none\n")
        return out.getvalue()


#: rows formatted per chunk of a CSV file, bounding the float objects alive
_CSV_CHUNK = 32


def _write_csv(path: Path, names, columns):
    """One header line, then one line per row with every value as %.17g."""
    line = ",".join(["%.17g"] * len(names)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for lo in range(0, len(columns[0]), _CSV_CHUNK):
            chunk = [np.asarray(c, dtype=float)[lo : lo + _CSV_CHUNK].tolist() for c in columns]
            fh.writelines(line % row for row in zip(*chunk))


def _write_snapshots(path: Path, nodes: np.ndarray, snapshots: dict):
    times = sorted(snapshots)
    _write_csv(path, ["a"] + ["t=%g" % t for t in times], [nodes] + [snapshots[t].values for t in times])


def _record_route(report: RunReport, cfg: ScenarioConfig, route: str, trace):
    """Store a route's trace and its saturation fractions."""
    d = trace.d
    report.traces[route] = trace
    report.saturation[route] = (
        float(np.sum(d <= cfg.d_min + 1e-12)) / len(d),
        float(np.sum(d >= cfg.d_max - 1e-12)) / len(d),
    )


def _staged_files(out_path: Path | None, routes: str) -> dict:
    """Each file that a run writes to ``out_path``, by name, mapped to the temporary it is written under.

    The temporaries (``.<name>.<pid>.tmp`` in ``out_path``) carry this
    process's id, fixed before any fork, so that this process renames and
    deletes what a forked child wrote. report.txt comes last, so that it
    takes its name after the CSVs it reports on.
    """
    if out_path is None:
        return {}
    routes_run = [route for route in ("galerkin", "oracle") if routes in (route, "both")]
    names = [route + tail for route in routes_run for tail in (".csv", "_profiles.csv")]
    return {name: out_path / (".%s.%d.tmp" % (name, os.getpid())) for name in names + ["report.txt"]}


def _route_files(staged: dict, route: str) -> tuple:
    """The temporaries of a route's per-step and profile CSVs, or () where the run writes none."""
    return tuple(staged[name] for name in (route + ".csv", route + "_profiles.csv") if name in staged)


def _write_route(paths: tuple, trace, nodes):
    """Write a route's per-step and profile CSVs to the two ``paths``."""
    _write_csv(paths[0], trace.CSV_COLUMNS, trace.columns())
    _write_snapshots(paths[1], nodes, trace.snapshots)


def _galerkin_route(cfg, eq, params, x0, traj, gains, paths) -> galerkin.GalerkinTrace:
    """The whole Galerkin route: roots, basis, assembly, simulation and its CSVs, if ``paths``."""
    roots = galerkin.characteristic_roots(eq, params, cfg.n_modes)
    basis = galerkin.build_basis(x0, eq, roots, cfg.n_modes, params)
    system = galerkin.assemble(basis, params)
    trace = galerkin.simulate(system, basis, traj, gains, params, cfg.t_final, cfg.dt, cfg.snapshot_times)
    if paths:
        _write_route(paths, trace, params.nodes)
    return trace


class _Child:
    """``fn()`` computed in a forked child process, or inline on a single CPU.

    Where the process may run on two or more CPUs, the child runs ``fn`` and
    sends ``(ok, value or exception)`` back through a pipe, pickled, while
    the caller goes on with other work; ``result()`` then returns the value
    or raises the exception. The child always ends with ``os._exit`` and
    ``result()`` always reaps it, so call ``result()`` exactly once, also
    when the caller's own work failed. On one CPU the two computations would
    only take turns, so ``fn`` runs inline, at once, and its exception
    propagates from the constructor as in a serial program. ``fn`` runs
    inline too where the pipe or the fork fails (EMFILE, EAGAIN, ENOMEM).
    """

    def __init__(self, fn):
        self._pid = pid = None
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        if hasattr(os, "fork") and cpus >= 2:
            fds = ()
            try:
                fds = read_fd, write_fd = os.pipe()
                pid = os.fork()
            except OSError:  # no descriptor or process to spare: run inline
                for fd in fds:
                    os.close(fd)
        if pid is None:
            self._value = fn()
            return
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                try:
                    payload = (True, fn())
                except BaseException as exc:
                    payload = (False, exc)
                with os.fdopen(write_fd, "wb") as fh:
                    fh.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        self._pid, self._read_fd = pid, read_fd

    def result(self):
        if self._pid is None:
            return self._value
        try:
            with os.fdopen(self._read_fd, "rb") as fh:
                data = fh.read()
        finally:
            _, status = os.waitpid(self._pid, 0)
        if status != 0:
            code = os.waitstatus_to_exitcode(status)
            raise RuntimeError(
                "forked child %d %s before it sent a result"
                % (self._pid, "was killed by signal %d" % -code if code < 0 else "exited with status %d" % code)
            )
        ok, value = pickle.loads(data)  # bytes that the child above wrote
        if ok:
            return value
        raise value


def run(cfg: ScenarioConfig, out_dir: str | Path | None = None) -> RunReport:
    """Execute a scenario; deterministic for a fixed config.

    Every file of ``out_dir`` (each route's two CSVs and ``report.txt``) is
    written under a temporary name (:func:`_staged_files`) and takes its own
    name only once every file of the run has been written; on any failure,
    on every path, the temporaries are deleted. So the report, the files and
    the error raised on a failure are those of a serial run, and a failed
    run leaves an earlier run's files as they were.
    """
    params = build_model(cfg)
    eq = solve_equilibrium(params)
    traj = build_trajectory(cfg)
    x0 = build_x0(cfg, params, eq)
    gains = ControllerGains(cfg.gamma, cfg.l1, cfg.l2, cfg.z0)
    validity = validate(traj, eq, cfg.d_min, cfg.d_max, horizon=cfg.t_final)

    report = RunReport(config_hash=cfg.config_hash, certificate=None, validity=validity)
    if not (cfg.d_min < eq.d_star < cfg.d_max):
        report.warnings.append(
            "equilibrium dilution rate %.6g outside (d_min, d_max); steady states unreachable"
            % eq.d_star
        )
    if not validity.valid:
        report.warnings.append(
            "trajectory violates the rate band (inf %.4g, sup %.4g); "
            "saturation will be active%s"
            % (
                validity.inf_rate,
                validity.sup_rate,
                ""
                if validity.t_crit is None
                else "; first enters the valid band at t = %.4g" % validity.t_crit,
            )
        )

    try:
        cert = lyapunov.build_certificate(validity, eq, gains, params)
        report.certificate = cert
    except AgeChemoError as exc:
        cert = None
        report.warnings.append("certificate unavailable: %s" % exc)

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        try:
            out_path.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError("--out %s: cannot create directory (%s)" % (out_path, exc.strerror)) from exc

    staged = _staged_files(out_path, cfg.routes)
    try:
        paths_g = _route_files(staged, "galerkin")
        route_g = functools.partial(_galerkin_route, cfg, eq, params, x0, traj, gains, paths_g)
        child = _Child(route_g) if cfg.routes == "both" else None
        trace_g = route_g() if cfg.routes == "galerkin" else None
        trace_o = None
        try:
            if cfg.routes in ("both", "oracle"):
                trace_o = delay.simulate_closed_loop(
                    x0, traj, eq, gains, params, cfg.t_final, cfg.dt, cfg.snapshot_times
                )
                t_end = trace_o.t[-1]  # the last stored node; an off-grid t_final may lie past it
                ide = max(trace_o.ide_residual(t) for t in np.linspace(min(0.5, t_end), t_end, 8))
                norms = lyapunov.window_norms(trace_o, cert.sigma) if cert is not None else None
                oracle_files = _route_files(staged, "oracle")
                if oracle_files:  # while the child, if any, still runs
                    _write_route(oracle_files, trace_o, params.nodes)
        finally:
            # joined on every path; a Galerkin failure wins, as it does serially
            if child is not None:
                trace_g = child.result()

        # recorded in the serial order, so that the report's checks are listed as
        # a serial run lists them
        if trace_g is not None:
            _record_route(report, cfg, "galerkin", trace_g)
            report.add_check(
                "galerkin_positivity",
                bool(np.all(trace_g.min_profile >= 0)),
                "min profile %.3g" % trace_g.min_profile.min(),
            )

        if trace_o is not None:
            _record_route(report, cfg, "oracle", trace_o)
            report.add_check("oracle_ide_identity", ide < IDE_TOL, "max residual %.3g" % ide)
            # output consistency at snapshot times
            cons = 0.0
            for t_snap, prof in trace_o.snapshots.items():
                i = int(round(t_snap / cfg.dt))
                y_profile = float(params.weights @ (params.p.values * prof.values))
                cons = max(cons, abs(y_profile - trace_o.y[i]) / max(abs(trace_o.y[i]), 1e-300))
            if trace_o.snapshots:
                # a gap at rounding level prints as a bound, so that the report's
                # bytes do not follow the last bit of eta
                gap = "max gap < 1e-12" if cons < 1e-12 else "max gap %.3g" % cons
                report.add_check("oracle_output_consistency", cons < 1e-8, gap)
            if cert is not None:
                hist = lyapunov.check_history_decay(trace_o, cert.sigma, norms=norms)
                report.add_check(
                    "history_decay",
                    hist.passed,
                    "W0 %.3g, monotone %s, envelope %s, floor %s"
                    % (hist.w0, hist.w_monotone, hist.w_envelope, hist.c_monotone),
                )
                if validity.valid:
                    ts, vs = lyapunov.sample_clf(trace_o, cert, norms=norms)
                    if len(ts) < 3:
                        report.warnings.append(
                            "clf_decay not checked: %d CLF samples span fewer than two intervals"
                            % len(ts)
                        )
                    else:
                        decay = lyapunov.verify_decay(ts, vs, cert.l_rate)
                        report.add_check(
                            "clf_decay",
                            decay.passed,
                            "%d violations / %d samples (slack %.3g)"
                            % (decay.n_violations, decay.n_samples, decay.slack),
                        )

        if trace_g is not None and trace_o is not None:
            metrics = compare_routes(trace_g, trace_o)
            report.metrics = metrics
            report.add_check(
                "route_agreement",
                metrics.y_gap_linf <= ROUTE_GAP_BUDGET,
                "y gap %.4g (budget %g)" % (metrics.y_gap_linf, ROUTE_GAP_BUDGET),
            )

        _tracking_checks(cfg, eq, traj, report, trace_g, trace_o)
        if staged:
            staged["report.txt"].write_text(report.render())
        for name, tmp in staged.items():
            os.replace(tmp, out_path / name)
    except BaseException:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)
        raise
    return report


def _tracking_checks(cfg, eq, traj, report, trace_g, trace_o):
    trace = trace_g if trace_g is not None else trace_o
    if trace is None:
        return
    y = trace.y_sim if trace_g is not None else trace.y
    ts = trace.t
    if cfg.traj_kind == "transition":
        t_delta = cfg.traj_params["t_delta"]
        if t_delta <= cfg.t_final:
            i = int(round(t_delta / cfg.dt))
            target = cfg.traj_params["y_delta"]
            rel = abs(y[i] - target) / target
            report.add_check(
                "setpoint_reached",
                rel <= TRACKING_TOL["transition"],
                "y(t_delta) = %.6g vs %.6g (rel %.3g)" % (y[i], target, rel),
            )
    elif cfg.traj_kind == "constant":
        err = abs(math.log(y[-1] / float(traj.eval(ts[-1]))))
        report.add_check(
            "tracking_settled", err < TRACKING_TOL["constant"], "|log error| at end %.3g" % err
        )
    elif cfg.traj_kind == "ramp":
        d = trace.d
        sat_mask = d <= cfg.d_min + 1e-12
        if sat_mask[0]:
            n_sat = int(np.argmax(~sat_mask)) if (~sat_mask).any() else len(sat_mask)
            window = y[:n_sat] / np.exp((eq.d_star - cfg.d_min) * ts[:n_sat])
            drift = float(window.max() / window.min() - 1.0) if n_sat > 1 else 0.0
            report.add_check(
                "limiting_exponential",
                drift <= TRACKING_TOL["ramp"],
                "drift %.3g over [0, %.3g]" % (drift, ts[max(n_sat - 1, 0)]),
            )
