#!/usr/bin/env python3
"""agechemo benchmark: closed-loop passes over seeded workloads.

    python3 perfbench/run.py --workload figs --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program under test is the
``agechemo`` package in ``src/``.  Workloads (see ``workloads.py``):

  figs           the four bundled configs through ``scenario.run``
  long-horizon   fig2a's model on a 36-unit horizon with a seeded reference
  kernel-screen  ``agechemo roots`` then ``agechemo verify`` on seeded kernels

One process, one caller: each operation starts when the previous one
returned.  Passes repeat until ``--seconds`` would be exceeded (at least
one).  BLAS libraries run one thread.  With ``--trace 0`` the result carries
the end-to-end metrics (``setup_s``, ``wall_s``, ``peak_rss_mb``), and fresh
set-up processes are timed between the operations.  ``setup_s`` and
``wall_s`` are seconds at a fixed reference host speed: the host's speed is
sampled while each timing is taken (``hostspeed.py``), and the raw times are
printed beside them.  With ``--trace 1`` each operation runs
untraced and traced in turn and the result carries the per-layer metrics
(``<function>.self_s``, ``<function>.calls``, ``scenario.out_bytes``,
``trace_overhead_s``, ``trace_coverage``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give every metric with its unit, quartiles and sample count, the route gap
and failure fraction, and the provenance.  A full record, and with
``--trace 1`` every span, is written under ``.bench_work/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: setup_s is the median of fresh processes timed from spawn to a ready
#: workload: one every SETUP_EVERY_S seconds between the untraced operations,
#: and at least SETUP_MIN in a run.  A probe samples the host's speed every
#: SETUP_SAMPLE_S while it imports and parses.
SETUP_EVERY_S = 3.0
SETUP_MIN = 9
SETUP_SAMPLE_S = 0.005
#: environment variables that pin BLAS and OpenMP pools to one thread
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: the paired check of trace_overhead_s counts as resolved when the traced
#: operations were slower than their plain twins at this one-sided sign-test level
OVERHEAD_P = 0.05


def _quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _git_sha() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(ROOT / ".git" / ref)
        if not sha:
            packed = _read(ROOT / ".git" / "packed-refs").splitlines()
            sha = next((ln.split()[0] for ln in packed if ln.endswith(" " + ref)), "")
        head = sha
    return head or "unknown (not a git checkout)"


def provenance(args) -> dict:
    import hashlib

    import numpy

    cpu_model = next(
        (ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines() if ln.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind != "Instruction":
            caches["L%s" % level] = _read(index / "size")
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "agechemo").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas_env = (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
    return {
        "git_sha": _git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads_env": {k: os.environ.get(k) for k in blas_env},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_probe(args) -> int:
    """Child process: import, write and parse the workload's configs.

    Prints the clock when the workload is ready less the time the host-speed
    samples took, and the mean reference-loop time.  numpy is imported before
    sampling starts, as the reference loop needs it; ``import agechemo``
    imports it anyway.
    """
    import hostspeed

    def ready():
        import workloads

        workloads.Workload(args.workload, args.seed, Path(args.setup_probe))

    start = time.perf_counter()
    _, timing = hostspeed.timed(ready, SETUP_SAMPLE_S)
    print(repr(start + timing.elapsed_s), repr(timing.loop_s))
    return 0


class SetupProbes:
    """Fresh processes timed from spawn to a ready workload, spread through the run.

    ``when_due()`` is called between operations and takes one sample per
    ``SETUP_EVERY_S`` seconds since the first call; ``top_up()`` adds samples
    after the run until there are ``SETUP_MIN``.
    """

    def __init__(self, args):
        self.args = args
        self.samples: list[float] = []
        self.ref_samples: list[float] = []
        self._start = None

    def sample(self):
        import hostspeed

        probe_dir = WORK / self.args.workload / ("setup-%d" % len(self.samples))
        cmd = [
            sys.executable, __file__, "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--seconds", "0", "--setup-probe", str(probe_dir),
        ]
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        ready, loop_s = (float(v) for v in done.stdout.split()[-2:])
        setup = ready - start
        self.samples.append(setup)
        self.ref_samples.append(hostspeed.at_reference(setup, loop_s))
        shutil.rmtree(probe_dir, ignore_errors=True)

    def when_due(self):
        now = time.perf_counter()
        if self._start is None:
            self._start = now
        while len(self.samples) * SETUP_EVERY_S <= now - self._start:
            self.sample()

    def top_up(self):
        while len(self.samples) < SETUP_MIN:
            self.sample()


class Runner:
    """Runs operations, catching every failure so that none stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run_op(self, name, op):
        from workloads import OpResult

        self.attempted += 1
        start = time.perf_counter()
        try:
            res = op()
        except Exception as exc:  # one failed operation must not stop the pass
            wall = time.perf_counter() - start
            res = OpResult(name, wall, wall, failures=["%s: %s: %s" % (name, type(exc).__name__, exc)])
            traceback.print_exc(file=sys.stderr)
        if res.failures:
            self.failures.append("; ".join(res.failures))
            for line in res.failures:
                print("FAIL " + line, file=sys.stderr)
        return res


def _pass_stats(results) -> dict:
    gaps = [r.route_gap for r in results if r.route_gap is not None]
    return {
        "wall_s": sum(r.wall_s for r in results),
        "ref_s": sum(r.ref_s for r in results),
        "cpu_s": sum(r.cpu_s for r in results),
        "out_bytes": sum(r.out_bytes for r in results),
        "route_gap": max(gaps) if gaps else None,
    }


def _sign_test(diffs: list[float]) -> float:
    """One-sided p-value that positive differences are no likelier than negative."""
    n, k = len(diffs), sum(d > 0 for d in diffs)
    return sum(math.comb(n, i) for i in range(k, n + 1)) / 2**n


def measure(args, workload, runner, probes) -> dict:
    """Passes until the next one would likely end after ``args.seconds``.

    Untraced, a pass runs the workload's operations, with set-up samples
    taken between them.  Traced, each operation runs twice in a row, once
    plain and once under the tracer, the order alternating; ``diffs`` holds
    each pair's traced-minus-plain time relative to the plain one.
    """
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    plain, traced, layers, coverage, spans, diffs, span_costs = [], [], [], [], [], [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        lap = time.perf_counter()
        plain_res, traced_res, traced_elapsed = [], [], 0.0
        if tracer is not None:
            run_id = tracer.new_run()
        for name, op in workload.ops(len(plain)):
            if tracer is None:
                plain_res.append(runner.run_op(name, op))
                probes.when_due()
                continue
            for tracing in (False, True) if (len(diffs) % 2 == 0) else (True, False):
                if tracing:
                    t0 = time.perf_counter()
                    with tracer:
                        traced_res.append(runner.run_op(name, op))
                    # the whole traced operation, the benchmark's own checks included
                    traced_elapsed += time.perf_counter() - t0
                else:
                    plain_res.append(runner.run_op(name, op))
            diffs.append((traced_res[-1].wall_s - plain_res[-1].wall_s) / plain_res[-1].wall_s)
            # sampled through the run, since the host's speed changes from second to second
            span_costs.append(tracer.span_cost())
        plain.append(_pass_stats(plain_res))
        if tracer is not None:
            summary = tracer.summary(run_id)
            traced.append(_pass_stats(traced_res))
            layers.append(summary["layers"])
            coverage.append(summary["top_s"] / traced_elapsed)
            spans.append(len(tracer.runs[run_id]))
        now = time.perf_counter()
        longest = max(longest, now - lap)
        if now - start + longest > args.seconds:
            break
    out = {"plain": plain, "traced": traced, "layers": layers, "coverage": coverage, "spans": spans, "diffs": diffs}
    if tracer is not None:
        out["missing"] = tracer.missing
        out["span_cost_s"] = statistics.median(span_costs)
        tracer.write_spans(WORK / args.workload / "spans.csv")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("figs", "long-horizon", "kernel-screen"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "agechemo" / "__init__.py").is_file():
        print("error: run from the root of an agechemo checkout (no src/agechemo here)", file=sys.stderr)
        return 2
    for var in ONE_THREAD:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    import workloads

    workloads.SAMPLE_HOST_SPEED = not args.trace
    workload = workloads.Workload(args.workload, args.seed, work / "run")
    runner = Runner()
    for name, op in workload.check_ops():
        runner.run_op(name, op)
    probes = SetupProbes(args)
    m = measure(args, workload, runner, probes)

    walls = [p["wall_s"] for p in m["plain"]]
    refs = [p["ref_s"] for p in m["plain"]]
    cpus = [p["cpu_s"] for p in m["plain"]]
    gaps = [p["route_gap"] for p in m["plain"] if p["route_gap"] is not None]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "provenance": provenance(args),
        "config_sha256": {p.name: c.config_hash for p, c in zip(workload.paths, workload.configs)},
        "wall_s": _quartiles(walls),
        "pass_wall_s": walls,
        "cpu_s": _quartiles(cpus),
        "ref_wall_s": _quartiles(refs),
        "pass_ref_wall_s": refs,
        "peak_rss_mb": rss_mb,
        "route_gap_linf": max(gaps) if gaps else None,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
    }
    timings = ["wall_s", "cpu_s"]
    if args.trace:
        traced = [p["wall_s"] for p in m["traced"]]
        p_value = _sign_test(m["diffs"])
        relative = _quartiles(m["diffs"])
        record["traced_wall_s"] = _quartiles(traced)
        spans = statistics.median(m["spans"])
        record["trace_overhead_s"] = {
            "value": spans * m["span_cost_s"], "spans_per_pass": spans, "span_cost_s": m["span_cost_s"],
            # the cross-check: traced minus plain time per operation pair, relative to plain
            "paired": {
                "relative": relative, "traced_slower": sum(d > 0 for d in m["diffs"]),
                "p_value": p_value, "resolved": p_value < OVERHEAD_P,
            },
        }
        record["missing_targets"] = m["missing"]
        # targets whose call count was not the same in every traced pass
        record["calls_vary"] = {}
        timings.append("traced_wall_s")
        metrics = {}
        for target in m["layers"][0]:
            self_s = [layer[target]["self_s"] for layer in m["layers"]]
            calls = [layer[target]["calls"] for layer in m["layers"]]
            if len(set(calls)) > 1:
                record["calls_vary"][target] = calls
                print("note: %s.calls differs between traced passes: %s" % (target, calls), file=sys.stderr)
            metrics[target + ".self_s"] = (statistics.median(self_s), "s")
            metrics[target + ".calls"] = (statistics.median_low(calls), "count")
        metrics["scenario.out_bytes"] = (statistics.median(p["out_bytes"] for p in m["traced"]), "B")
        metrics["trace_overhead_s"] = (record["trace_overhead_s"]["value"], "s")
        metrics["trace_coverage"] = (statistics.median(m["coverage"]), "ratio")
    else:
        probes.top_up()
        record["setup_s"] = _quartiles(probes.samples)
        record["ref_setup_s"] = _quartiles(probes.ref_samples)
        timings = ["ref_setup_s", "ref_wall_s", "setup_s"] + timings
        metrics = {
            "setup_s": (record["ref_setup_s"]["median"], "s"),
            "wall_s": (record["ref_wall_s"]["median"], "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (work / ("result-seed%d-trace%d.json" % (args.seed, args.trace))).write_text(json.dumps(record, indent=1) + "\n")

    print("provenance " + json.dumps(record["provenance"]))
    for key in timings:
        q = record[key]
        print("%-16s median %.4f s  q1 %.4f  q3 %.4f  n %d" % (key, q["median"], q["q1"], q["q3"], q["n"]))
    print("%-16s %.1f MB" % ("peak_rss_mb", rss_mb))
    gap = record["route_gap_linf"]
    print("%-16s %s" % ("route_gap_linf", "n/a (no dual-route run)" if gap is None else "%.6g (relative)" % gap))
    print("%-16s %.4g (%d failed of %d)" % ("fail_frac", record["failed"] / runner.attempted, record["failed"], runner.attempted))
    if args.trace:
        o = record["trace_overhead_s"]
        c, r = o["paired"], o["paired"]["relative"]
        print("%-16s %.4g s per pass: %d spans at %.3g s per empty span" % (
            "trace_overhead_s", o["value"], o["spans_per_pass"], o["span_cost_s"]))
        print("%-16s traced minus plain, relative: median %.4f  q1 %.4f  q3 %.4f  n %d pairs; traced slower in %d "
              "(sign test p %.3g): %s" % (
                  "paired check", r["median"], r["q1"], r["q3"], r["n"], c["traced_slower"], c["p_value"],
                  "resolved" if c["resolved"] else "unresolved"))
        for key, (value, unit) in metrics.items():
            print("%-44s %.6g %s" % (key, value, unit))
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
