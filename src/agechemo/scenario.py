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
import shutil
import tempfile
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
#: bound on Simpson's leading relative error on the survival factor,
#: (d* h)^4 / 180, above which :func:`prepare` warns that the age grid
#: under-resolves the equilibrium (d* h > 0.116)
SURVIVAL_REL_TOL = 1e-6

#: the last plant's characteristic roots, ``{key: (roots, sigma_lo, omega_cap)}``
#: under :func:`_roots_key`, one entry at most; filled by a run whose
#: Galerkin route searched and succeeded
_ROOTS: dict = {}


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
    #: the certificate's kernel part, None where B3 fails
    kernel: lyapunov.KernelConstants | None = None

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


def _write_csv(path: Path, names, columns):
    """One header line, then one line per row with every value as %.17g, a block of rows at a time."""
    # imported on first use: `verify`, `roots` and a run without --out never
    # compile the kernel or build its tables
    from . import csvtext

    columns = [np.asarray(c, dtype=float) for c in columns]
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        for lo in range(0, len(columns[0]), csvtext.BLOCK):
            fh.write(csvtext.format_rows(np.column_stack([c[lo : lo + csvtext.BLOCK] for c in columns])))


def _write_snapshots(path: Path, nodes: np.ndarray, snapshots: dict):
    times = sorted(snapshots)
    _write_csv(path, ["a"] + ["t=%g" % t for t in times], [nodes] + [snapshots[t].values for t in times])


def _write_route(stage: Path, route: str, trace, nodes):
    """Write a route's per-step and profile CSVs into the directory ``stage``."""
    _write_csv(stage / (route + ".csv"), trace.CSV_COLUMNS, trace.columns())
    _write_snapshots(stage / (route + "_profiles.csv"), nodes, trace.snapshots)


def _roots_key(eq, params, n_modes):
    """Every input of :func:`galerkin.characteristic_roots`: the kernel and its slope, A and the count."""
    return eq.k_tilde.values.tobytes(), eq.k_tilde_prime.values.tobytes(), params.a_max, n_modes


def _galerkin_route(cfg, eq, params, x0, traj, gains, stage, kept=None):
    """The whole Galerkin route, roots to its CSVs (if ``stage``) and its check: ``(trace, checks, kept)``.

    ``kept`` holds the roots as ``(roots, sigma_lo, omega_cap)``, tuples that
    no caller can alter; where it is None the route searches them itself.
    """
    if kept is None:
        found = galerkin.characteristic_roots(eq, params, cfg.n_modes)
        kept = tuple(found), found.sigma_lo, found.omega_cap
    roots = galerkin.CertifiedRoots(*kept)
    basis = galerkin.build_basis(x0, eq, roots, cfg.n_modes, params)
    system = galerkin.assemble(basis, params)
    trace = galerkin.simulate(system, basis, traj, gains, params, cfg.t_final, cfg.dt, cfg.snapshot_times)
    if stage is not None:
        _write_route(stage, "galerkin", trace, params.nodes)
    low = trace.min_profile.min()
    return trace, [("galerkin_positivity", low >= 0, "min profile %.3g" % low)], kept


def _delay_route(cfg, eq, params, x0, traj, gains, stage, report):
    """The whole delay route, as ``_galerkin_route``; its checks read ``report`` and may add a warning."""
    trace = delay.simulate_closed_loop(x0, traj, eq, gains, params, cfg.t_final, cfg.dt, cfg.snapshot_times)
    if stage is not None:
        _write_route(stage, "oracle", trace, params.nodes)
    t_end = trace.t[-1]  # the last stored node; an off-grid t_final may lie past it
    ide = max(trace.ide_residual(t) for t in np.linspace(min(0.5, t_end), t_end, 8))
    checks = [("oracle_ide_identity", ide < IDE_TOL, "max residual %.3g" % ide)]
    # output consistency at snapshot times
    cons = 0.0
    for t_snap, prof in trace.snapshots.items():
        i = int(round(t_snap / cfg.dt))
        y_profile = float(params.weights @ (params.p.values * prof.values))
        cons = max(cons, abs(y_profile - trace.y[i]) / max(abs(trace.y[i]), 1e-300))
    if trace.snapshots:
        # a gap at rounding level prints as a bound, so that the report's
        # bytes do not follow the last bit of eta
        gap = "max gap < 1e-12" if cons < 1e-12 else "max gap %.3g" % cons
        checks.append(("oracle_output_consistency", cons < 1e-8, gap))
    cert = report.certificate
    if report.kernel is not None:  # history_decay needs only sigma, which holds wherever B3 does
        hist = lyapunov.check_history_decay(trace, report.kernel.sigma)
        checks.append((
            "history_decay",
            hist.passed,
            "W0 %.3g, monotone %s, envelope %s, floor %s"
            % (hist.w0, hist.w_monotone, hist.w_envelope, hist.c_monotone and hist.floor_positive),
        ))
    if cert is not None and report.validity.valid:
        ts, vs = lyapunov.sample_clf(trace, cert)
        if len(ts) < 3:
            report.warnings.append(
                "clf_decay not checked: %d CLF samples span fewer than two intervals" % len(ts)
            )
        else:
            decay = lyapunov.verify_decay(ts, vs, cert.l_rate)
            checks.append((
                "clf_decay",
                decay.passed,
                "%d violations / %d samples (slack %.3g)%s%s"
                % (decay.n_violations, decay.n_samples, decay.slack,
                   "; %d non-finite" % decay.n_nonfinite if decay.n_nonfinite else "",
                   "" if decay.integrated_ok else "; integrated_ok False"),
            ))
    return trace, checks


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


def prepare(cfg: ScenarioConfig):
    """The set-up that ``run`` and ``agechemo verify`` share: ``(report, params, eq, traj, x0, gains)``.

    ``report`` holds the rate-band verdict, the kernel part and the
    certificate or, as its last warning, ``certificate unavailable: ...``.
    Where the age grid under-resolves d* (see ``SURVIVAL_REL_TOL``), a
    warning naming ``[numerics] age_nodes`` precedes the others. An
    inadmissible x0 is a :class:`ValidationError`.
    """
    params = build_model(cfg)
    eq = solve_equilibrium(params)
    traj = build_trajectory(cfg)
    x0 = build_x0(cfg, params, eq)
    gains = ControllerGains(cfg.gamma, cfg.l1, cfg.l2, cfg.z0)
    validity = validate(traj, eq, cfg.d_min, cfg.d_max, horizon=cfg.t_final)

    report = RunReport(config_hash=cfg.config_hash, certificate=None, validity=validity)
    dh = eq.d_star * params.h
    if dh**4 / 180.0 > SURVIVAL_REL_TOL:
        report.warnings.append(
            "[numerics] age_nodes: d_star * h = %.3g under-resolves the equilibrium "
            "(Simpson's relative error on the survival factor, (d_star h)^4/180 = %.2g, "
            "exceeds %g); use more age nodes" % (dh, dh**4 / 180.0, SURVIVAL_REL_TOL)
        )
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
        report.kernel = lyapunov.kernel_constants(eq.k_tilde)
        report.certificate = lyapunov.build_certificate(validity, eq, gains, params, report.kernel)
    except AgeChemoError as exc:
        report.warnings.append("certificate unavailable: %s" % exc)
    return report, params, eq, traj, x0, gains


def run(cfg: ScenarioConfig, out_dir: str | Path | None = None) -> RunReport:
    """Execute a scenario after :func:`prepare`; deterministic for a fixed config.

    Where both routes are asked for they run at once, and each route's trace
    and checks are recorded Galerkin first. Every file of ``out_dir`` (each
    route's two CSVs and ``report.txt``) is written under its own name into
    a private directory (``.run-*`` in ``out_dir``, made before either route
    runs), moved into ``out_dir`` once every file of the run has been
    written, and the private directory is removed on every path. So the
    report, the files and the error raised on a failure are those of a
    serial run, and a failed run leaves an earlier run's files as they were.
    An ``out_dir`` in which nothing can be made is a :class:`ValidationError`.
    The characteristic roots of the last plant whose Galerkin route
    succeeded are kept and reused by the next run on that plant.
    """
    report, params, eq, traj, x0, gains = prepare(cfg)
    out_path = stage = None
    if out_dir is not None:
        out_path = Path(out_dir)
        try:
            out_path.mkdir(parents=True, exist_ok=True)
            stage = Path(tempfile.mkdtemp(prefix=".run-", dir=out_path))
        except OSError as exc:
            raise ValidationError("--out %s: cannot create directory (%s)" % (out_path, exc.strerror)) from exc

    try:
        # the roots are the plant's alone; a miss searches in the route, in
        # the child where there is one, and the roots come back with its result
        key = _roots_key(eq, params, cfg.n_modes)
        stored = _ROOTS.get(key)
        route_g = functools.partial(_galerkin_route, cfg, eq, params, x0, traj, gains, stage, stored)
        child = _Child(route_g) if cfg.routes == "both" else None
        results = {"galerkin": route_g() if cfg.routes == "galerkin" else None, "oracle": None}
        try:
            if cfg.routes in ("both", "oracle"):
                results["oracle"] = _delay_route(cfg, eq, params, x0, traj, gains, stage, report)
        finally:
            # joined on every path; a Galerkin failure wins, as it does serially
            if child is not None:
                results["galerkin"] = child.result()

        if results["galerkin"] is not None and stored is None:
            _ROOTS.clear()
            _ROOTS[key] = results["galerkin"][2]
        for route in ("galerkin", "oracle"):
            if results[route] is not None:
                trace, checks = results[route][:2]
                report.traces[route] = trace
                report.saturation[route] = (
                    float(np.sum(trace.d <= cfg.d_min + 1e-12)) / len(trace.d),
                    float(np.sum(trace.d >= cfg.d_max - 1e-12)) / len(trace.d),
                )
                for check in checks:
                    report.add_check(*check)

        if len(report.traces) == 2:
            report.metrics = compare_routes(report.traces["galerkin"], report.traces["oracle"])
            report.add_check(
                "route_agreement",
                report.metrics.y_gap_linf <= ROUTE_GAP_BUDGET,
                "y gap %.4g (budget %g)" % (report.metrics.y_gap_linf, ROUTE_GAP_BUDGET),
            )

        _tracking_checks(cfg, eq, traj, report)
        if stage is not None:
            (stage / "report.txt").write_text(report.render())
            # report.txt takes its name after the CSVs it reports on
            for name in sorted(os.listdir(stage), key="report.txt".__eq__):
                os.replace(stage / name, out_path / name)
    finally:
        if stage is not None:
            shutil.rmtree(stage, ignore_errors=True)
    return report


def _tracking_checks(cfg, eq, traj, report):
    trace = next(iter(report.traces.values()))  # the Galerkin trace where that route ran
    y = trace.y_sim if "galerkin" in report.traces else trace.y
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
