#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads figs long-horizon kernel-screen \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --sets 2 [--trace 0|1] [--out FILE]

Runs are sequential, each one ``run.py`` process, set after set.  For every
set, workload and metric this prints the median of the per-run values, their
quartiles (``statistics.quantiles(values, n=4)``), the sample count and the
spread ``(q3 - q1) / median``.  With ``--trace 0`` it checks each spread but
that of ``setup_s`` against the metric's bound in BENCHMARK.json, and each
later set's median against the first set's: it may not be worse by more than
the bound.  With ``--out`` the per-run values, summaries, verdicts and the
provenance of the first run are written as JSON; ``baseline.json`` and
``baseline_trace.json`` are such files.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import _quartiles  # noqa: E402


def run_one(bench: dict, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line as JSON, full record that run.py wrote) for one run."""
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit("%s seed %d: exit %d" % (workload, seed, done.returncode))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record_path = ROOT / ".bench_work" / workload / ("result-seed%d-trace%d.json" % (seed, trace))
    return result, json.loads(record_path.read_text())


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name, unit in runs[0]["units"].items():
        values = [r["values"][name] for r in runs]
        q = _quartiles(values)
        q.update(min=min(values), max=max(values), unit=unit)
        q["spread"] = (q["q3"] - q["q1"]) / q["median"] if q["median"] else None
        out[name] = q
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]} if not args.trace else {}
    report = {"seconds": seconds, "trace": args.trace, "seeds": args.seeds, "provenance": None, "sets": []}
    correct = True
    for set_no in range(1, args.sets + 1):
        results = {}
        for workload in args.workloads:
            runs = []
            for seed in args.seeds:
                result, record = run_one(bench, workload, seed, seconds, args.trace)
                if report["provenance"] is None:
                    report["provenance"] = {k: v for k, v in record["provenance"].items() if k != "seed"}
                correct = correct and result["correct"]
                run = {
                    "seed": seed, "correct": result["correct"],
                    "attempted": result["attempted"], "failed": result["failed"],
                    "values": {k: v["value"] for k, v in result["metrics"].items()},
                    "units": {k: v["unit"] for k, v in result["metrics"].items()},
                }
                if args.trace:
                    run["trace_overhead_s"] = record["trace_overhead_s"]
                    run["calls_vary"] = record["calls_vary"]
                else:
                    # the raw times, before scaling to the reference host speed
                    run["raw"] = {k: record[k]["median"] for k in ("wall_s", "setup_s")}
                runs.append(run)
                shown = " ".join("%s=%.6g" % kv for kv in run["values"].items() if kv[0] in bounds)
                print("set %d %s seed %d: correct %s, %d/%d failed %s" % (
                    set_no, workload, seed, result["correct"], result["failed"], result["attempted"], shown),
                    flush=True)
            summary = summarise(runs)
            for run in runs:
                del run["units"]
            results[workload] = {"runs": runs, "summary": summary}
            for name, bound in bounds.items():
                q = summary[name]
                verdict = "not checked" if name == "setup_s" else (
                    "below a third of the bound" if q["spread"] <= bound / 3
                    else "within the bound" if q["spread"] <= bound else "OVER THE BOUND")
                q["spread_verdict"] = verdict
                print("  %-12s median %.6g  q1 %.6g  q3 %.6g  n %d  spread %.3f  bound %.2f  %s" % (
                    name, q["median"], q["q1"], q["q3"], q["n"], q["spread"], bound, verdict), flush=True)
        report["sets"].append(results)

    agree = True
    for set_no, results in enumerate(report["sets"][1:], start=2):
        for workload, res in results.items():
            for name, bound in bounds.items():
                first = report["sets"][0][workload]["summary"][name]["median"]
                later = res["summary"][name]["median"]
                better = next(m["better"] for m in bench["end_to_end"] if m["name"] == name)
                change = (later - first) / first
                worse = change > bound if better == "lower" else -change > bound
                agree = agree and not worse
                res["summary"][name]["change_from_set_1"] = change
                print("set %d vs set 1 %s %-12s %+.3f  bound %.2f  %s" % (
                    set_no, workload, name, change, bound, "WORSE THAN THE BOUND" if worse else "ok"))
    if len(report["sets"]) > 1:
        report["sets_agree"] = agree
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
