"""Spans around agechemo's public functions, recorded from outside the package.

While a ``Tracer`` is active, each target function is replaced by a wrapper
in every agechemo module namespace that holds it: a module that imported a
function by name (``scenario`` imports ``solve_equilibrium``, ``galerkin``
imports ``control``) holds its own reference, so patching only the defining
module would miss those calls.  A method is replaced on its class.

Each call records one span ``(name, start, end, parent)``; spans of one
traced pass share the pass's run id, which ``new_run()`` starts.  A layer's self time is its span
minus the spans of its direct children.  A target that no longer exists
(removed by a refactor) reports zero calls instead of failing the run.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from pathlib import Path

import numpy as np

TARGETS = (
    "galerkin.characteristic_roots",
    "galerkin.build_basis",
    "galerkin.assemble",
    "galerkin.simulate",
    "galerkin.residual",
    "controller.control",
    "delay.init_delay_state",
    "delay.simulate_closed_loop",
    "delay.step_closed_loop",
    "delay.step_psi",
    "delay.HistoryBuffer.eval",
    "delay.reconstruct",
    "lyapunov.build_certificate",
    "lyapunov.saturation_fact_check",
    "lyapunov.sample_clf",
    "lyapunov.check_history_decay",
    "lyapunov.verify_decay",
    "scenario.run",
    "scenario.compare_routes",
    "config.load_config",
    "model.solve_equilibrium",
    "trajectories.validate",
    "cli.main",
)


def _resolve(target: str):
    """(owner, attribute, function) for ``module.func`` or ``module.Class.method``."""
    modname, *path = target.split(".")
    try:
        owner = importlib.import_module("agechemo." + modname)
    except ImportError:
        return None
    for part in path[:-1]:
        owner = getattr(owner, part, None)
    fn = getattr(owner, path[-1], None) if owner is not None else None
    return (owner, path[-1], fn) if callable(fn) else None


class Tracer:
    """Patch the targets on ``__enter__``, restore them on ``__exit__``."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.missing: list[str] = []
        self.runs: list[list] = []  # per run id: (target index, start, end, parent span index)
        self._stack: list[int] = []
        self._patches: list = []  # (namespace owner, attribute, original)

    def _wrap(self, index: int, fn, spans: list):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent)

        return traced

    def new_run(self) -> int:
        """Start a run id; later ``with`` blocks record into it."""
        self.runs.append([])
        return len(self.runs) - 1

    def __enter__(self):
        if not self.runs:
            self.new_run()
        spans = self.runs[-1]
        self.missing = []
        modules = [m for n, m in list(sys.modules.items()) if n == "agechemo" or n.startswith("agechemo.")]
        for index, target in enumerate(self.targets):
            found = _resolve(target)
            if found is None:
                self.missing.append(target)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(index, fn, spans)
            if isinstance(owner, type):
                holders = [(owner, attr)]
            else:
                holders = [(m, key) for m in modules for key, val in list(vars(m).items()) if val is fn]
            for holder, key in holders:
                self._patches.append((holder, key, fn))
                setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            holder, key, fn = self._patches.pop()
            setattr(holder, key, fn)
        return False

    def span_cost(self) -> float:
        """Seconds one span adds to a call: a wrapped no-op against a bare one.

        The median of three timings of 4000 calls each, a few milliseconds.
        """
        calls, repeats = 4000, 3

        def noop():
            return None

        wrapped = self._wrap(0, noop, [])
        costs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            costs.append((time.perf_counter() - t1 - (t1 - t0)) / calls)
        return float(np.median(costs))

    def summary(self, run_id: int) -> dict:
        """Per target: self seconds and call count, plus the top-level span total."""
        rows = self.runs[run_id]
        out = {t: {"self_s": 0.0, "calls": 0} for t in self.targets}
        if not rows:
            return {"layers": out, "top_s": 0.0}
        arr = np.array(rows)
        name = arr[:, 0].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(int)
        nested = parent >= 0
        child = np.zeros(len(rows))
        np.add.at(child, parent[nested], dur[nested])
        self_t = dur - child
        for i, target in enumerate(self.targets):
            mask = name == i
            out[target] = {"self_s": float(self_t[mask].sum()), "calls": int(mask.sum())}
        return {"layers": out, "top_s": float(dur[~nested].sum())}

    def write_spans(self, path: Path):
        """All recorded spans as CSV; parent is an index into the same file."""
        with open(path, "w") as fh:
            fh.write("run_id,name,start,end,parent\n")
            for run_id, spans in enumerate(self.runs):
                for index, start, end, parent in spans:
                    fh.write("%d,%s,%.9f,%.9f,%d\n" % (run_id, self.targets[index], start, end, parent))
