"""Seeded inputs and passes for the agechemo benchmark.

Each workload is a closed loop with one caller: a pass runs its operations
one after another, each starting when the previous one returned.  Every
input is a config file written from the seed (``figs`` uses the bundled
configs as shipped); the program sees only those files.

Operations check public outputs only, and a failed check never stops the
pass: it is counted and reported.
"""
from __future__ import annotations

import contextlib
import io
import random
import re
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
from agechemo import cli, config, scenario

FIGS = ("fig2a", "fig2b", "fig3", "const")
#: fig2a's d* and its two dominant conjugate pairs, within the tolerances of
#: the acceptance suite
FIG2A_D_STAR, D_STAR_TOL = 1.00, 0.01
FIG2A_PAIRS, PAIR_TOL = (complex(-2.02, 4.41), complex(-2.50, 7.62)), 0.02

#: long-horizon: fig2a's model, gains and numerics on a horizon three times
#: the bundled 12, so the two step loops dominate and the single root search
#: stays a small share of the pass
LONG_T_FINAL = 36.0
#: kernel-screen: draws per pass, a multiple of the three n_modes values.
#: Every pass draws new models, so a root cache cannot hit on a later pass.
#: Root-search cost per draw varies about 2x with the kernel and the grid;
#: the run's median over its passes evens that out.
SCREEN_DRAWS = 6
#: set by the runner for untraced runs: sample the host's speed during each
#: timed program call (see hostspeed.py)
SAMPLE_HOST_SPEED = False

_MODEL = """\
[model]
a_max = 2.0
d_min = 0.5
d_max = 1.5
mu = constant {mu:.6f}
k = quadratic-motherhood {k0:.6f}
p = constant 1.0
x0 = compat-linear-exp 1.30 1.0
"""
_CONTROLLER = """\
[controller]
gamma = {gamma:.6f}
l1 = {l1:.6f}
l2 = {l2:.6f}
z01 = 0.0
z02 = 0.5
"""
_NUMERICS = """\
[numerics]
n_modes = {n_modes}
age_nodes = {age_nodes}
dt = 0.005
t_final = {t_final:.6f}
"""
_LONG = (
    "# long-horizon: fig2a with a seeded transition reference.\n"
    + _MODEL
    + """
[trajectory]
kind = transition
y0 = 1.0
y_delta = {y_delta:.6f}
t_delta = {t_delta:.6f}

"""
    + _CONTROLLER
    + "\n"
    + _NUMERICS
    + """
[outputs]
routes = both
snapshot_times = 1.0 {t_delta:.6f}
"""
)
_SCREEN = (
    "# kernel-screen draw: constant set point on a seeded kernel.\n"
    + _MODEL
    + """
[trajectory]
kind = constant
value = {value:.6f}

"""
    + _CONTROLLER
    + "\n"
    + _NUMERICS
)


def bundled_config(name: str) -> Path:
    return Path(config.__file__).parent / "configs" / (name + ".cfg")


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of n equal strata of [lo, hi], in shuffled order.

    Latin-hypercube draws keep each pass's mix of cheap and costly models
    alike from seed to seed, so the pass time moves with the program rather
    than with the draw.
    """
    vals = [lo + (i + rng.random()) * (hi - lo) / n for i in range(n)]
    rng.shuffle(vals)
    return vals


def config_texts(workload: str, seed: int, pass_no: int = 0) -> dict[str, str]:
    """File name -> config text for a workload's pass; byte-identical for a seed.

    Only kernel-screen draws anew for each pass; the others repeat pass 0.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "figs":
        return {n + ".cfg": bundled_config(n).read_text() for n in FIGS}
    if workload == "long-horizon":
        text = _LONG.format(
            mu=0.1, k0=2.0, gamma=2.0, l1=4.0, l2=8.0, n_modes=6, age_nodes=401,
            y_delta=rng.uniform(2.0, 3.5), t_delta=rng.uniform(8.0, 14.0), t_final=LONG_T_FINAL,
        )
        return {"long.cfg": text}
    if workload == "kernel-screen":
        rng = random.Random("%s:%d:%d" % (workload, seed, pass_no))
        n = SCREEN_DRAWS
        cols = {
            "k0": _strata(rng, n, 1.7, 2.4),
            "mu": _strata(rng, n, 0.05, 0.15),
            "value": _strata(rng, n, 0.5, 2.0),
            "gamma": _strata(rng, n, 1.0, 3.0),
            "l1": _strata(rng, n, 3.0, 5.0),
            "l2": _strata(rng, n, 6.0, 10.0),
            # odd node counts 201..801, one per stratum
            "age_nodes": [2 * int(v) + 1 for v in _strata(rng, n, 100, 401)],
        }
        modes = [6, 8, 10] * (n // 3)
        rng.shuffle(modes)
        return {
            "draw%02d.cfg" % i: _SCREEN.format(
                t_final=8.0, n_modes=modes[i], **{k: v[i] for k, v in cols.items()}
            )
            for i in range(n)
        }
    raise ValueError("unknown workload %r" % workload)


def write_configs(workload: str, seed: int, out_dir: Path, pass_no: int = 0) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in config_texts(workload, seed, pass_no).items():
        path = out_dir / name
        path.write_bytes(text.encode("utf-8"))
        paths.append(path)
    return paths


@dataclass
class OpResult:
    name: str
    wall_s: float
    cpu_s: float
    failures: list[str] = field(default_factory=list)
    route_gap: float | None = None
    out_bytes: int = 0
    #: mean reference-loop time while the program ran, if it was sampled
    loop_s: float | None = None

    @property
    def ref_s(self) -> float:
        """wall_s at the reference host speed (wall_s itself if not sampled)."""
        return self.wall_s if self.loop_s is None else hostspeed.at_reference(self.wall_s, self.loop_s)


def _timed(fn):
    """(value, wall s, CPU s, mean reference-loop s or None) of one program call."""
    if SAMPLE_HOST_SPEED:
        value, t = hostspeed.timed(fn)
        return value, t.elapsed_s, t.cpu_s, t.loop_s
    t0, c0 = time.perf_counter(), time.process_time()
    value = fn()
    return value, time.perf_counter() - t0, time.process_time() - c0, None


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


_ROOT_LINE = re.compile(r"^\s+([+-]\S+) ([+-]\S+)j$", re.M)


def parse_roots(text: str) -> list[complex]:
    return [complex(float(a), float(b)) for a, b in _ROOT_LINE.findall(text)]


def check_fig2a_roots(text: str) -> list[str]:
    roots = parse_roots(text)
    missing = [
        "%s" % want
        for pair in FIG2A_PAIRS
        for want in (pair, pair.conjugate())
        if not any(abs(r.real - want.real) <= PAIR_TOL and abs(r.imag - want.imag) <= PAIR_TOL for r in roots)
    ]
    return ["fig2a roots: pair %s not found" % m for m in missing]


class Workload:
    """Configs written and parsed for one seed; ``ops(pass_no)`` yields one pass."""

    def __init__(self, name: str, seed: int, work_dir: Path):
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        work_dir.mkdir(parents=True, exist_ok=True)
        self._load(0)

    def _load(self, pass_no: int):
        if self.name == "figs":
            self.paths = [bundled_config(n) for n in FIGS]
        else:
            self.paths = write_configs(self.name, self.seed, self.work_dir / "configs" / str(pass_no), pass_no)
        self.configs = [config.load_config(p) for p in self.paths]
        self.pass_no = pass_no

    def check_ops(self) -> list:
        """Operations run once per process, outside the timed passes."""
        if self.name != "figs":
            return []
        return [("roots fig2a", lambda: self._roots(self.paths[0], 6, check_fig2a_roots))]

    def ops(self, pass_no: int = 0) -> list:
        """(name, callable returning an OpResult) for one pass, in order.

        Configs for a new kernel-screen pass are written and parsed here,
        outside the timed calls.
        """
        if self.name == "kernel-screen":
            if pass_no != self.pass_no:
                self._load(pass_no)
            return [
                op
                for path, cfg in zip(self.paths, self.configs)
                for op in (
                    ("roots " + path.name, lambda p=path, c=cfg: self._roots(p, c.n_modes)),
                    ("verify " + path.name, lambda p=path: self._verify(p)),
                )
            ]
        return [(Path(c.source).stem, lambda c=c: self._run(c)) for c in self.configs]

    def _run(self, cfg) -> OpResult:
        out = Path(tempfile.mkdtemp(prefix="out-", dir=self.work_dir))
        try:
            report, wall, cpu, loop = _timed(lambda: scenario.run(cfg, out_dir=out))
            res = OpResult(Path(cfg.source).stem, wall, cpu, out_bytes=_dir_bytes(out), loop_s=loop)
            text = (out / "report.txt").read_text()
        finally:
            shutil.rmtree(out)
        res.failures = [
            "%s: check %s FAIL (%s)" % (res.name, name, detail)
            for name, ok, detail in report.checks
            if not ok
        ]
        if "config_hash: %s" % cfg.config_hash not in text:
            res.failures.append("%s: report.txt does not name the config hash" % res.name)
        if report.metrics is not None:
            res.route_gap = report.metrics.y_gap_linf
        if res.name == "fig2a":
            d_star = report.certificate.d_star if report.certificate else float("nan")
            if not abs(d_star - FIG2A_D_STAR) <= D_STAR_TOL:
                res.failures.append("fig2a: d* = %.6g, expected %g" % (d_star, FIG2A_D_STAR))
        return res

    def _roots(self, path: Path, n_modes: int, extra_check=None) -> OpResult:
        (code, text), wall, cpu, loop = _timed(lambda: _cli(["roots", str(path)]))
        res = OpResult("roots " + path.name, wall, cpu, loop_s=loop)
        if code != 0:
            res.failures.append("%s: exit %d" % (res.name, code))
        # the modal basis is x0 plus the trivial root plus n_modes/2 - 1 pairs
        roots = parse_roots(text)
        pairs = [r for r in roots if r.imag > 0]
        if (
            "(count %d)" % n_modes not in text
            or len(roots) != n_modes - 1
            or roots.count(0j) != 1
            or len(pairs) != n_modes // 2 - 1
            or any(r.conjugate() not in roots for r in pairs)
        ):
            res.failures.append(
                "%s: expected the trivial root and %d conjugate pairs, got %s"
                % (res.name, n_modes // 2 - 1, roots)
            )
        if extra_check is not None:
            res.failures += extra_check(text)
        return res

    def _verify(self, path: Path) -> OpResult:
        (code, _), wall, cpu, loop = _timed(lambda: _cli(["verify", str(path)]))
        res = OpResult("verify " + path.name, wall, cpu, loop_s=loop)
        if code != 0:
            res.failures.append("%s: exit %d" % (res.name, code))
        return res
