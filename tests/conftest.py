import re
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from agechemo import (
    ControllerGains,
    build_certificate,
    characteristic_roots,
    load_config,
    simulate_closed_loop,
    solve_equilibrium,
)
from agechemo.config import build_model, build_trajectory, build_x0
from agechemo.galerkin import assemble, build_basis, simulate
from agechemo.grid import GridFunction
from agechemo.model import ModelParams
from agechemo.scenario import run
from agechemo.trajectories import validate


def bundled(name: str) -> Path:
    return Path(resources.files("agechemo") / "configs" / name)


def bundled_with(tmp_path: Path, name: str, key: str, value: str) -> Path:
    """A copy of a bundled config whose ``key = ...`` line reads ``key = value``."""
    text = re.sub(r"(?m)^%s = .*$" % key, "%s = %s" % (key, value), bundled(name).read_text())
    path = tmp_path / name
    path.write_text(text)
    return path


def motherhood_model(n, mu, k0):
    """(Equilibrium, ModelParams) of a constant-mortality quadratic-motherhood model on n nodes."""
    a_max = 2.0
    a = np.linspace(0.0, a_max, n)
    mk = lambda v: GridFunction(np.broadcast_to(v, (n,)).astype(float), a_max)
    params = ModelParams(
        mu=mk(mu),
        k=mk(k0 * a * (a_max - a)),
        p=mk(1.0),
        a_max=a_max,
        d_min=0.5,
        d_max=1.5,
        k_prime=mk(k0 * (a_max - 2.0 * a)),
    )
    return solve_equilibrium(params), params


def _screen_kernels(n_kernels, seed):
    rng = np.random.default_rng(seed)
    return [
        (2 * int(rng.integers(100, 401)) + 1, float(rng.uniform(0.05, 0.15)),
         float(rng.uniform(1.7, 2.4)), int(rng.choice([6, 8, 10])))
        for _ in range(n_kernels)
    ]


#: (age nodes, mu, k0, root count) drawn from the ranges the kernel screen
#: benchmark draws from: odd node counts 201..801, mu in [0.05, 0.15],
#: k0 in [1.7, 2.4], 6, 8 or 10 modes
SCREEN_KERNELS = _screen_kernels(12, 20261018)


@pytest.fixture(scope="session")
def fig2a_cfg():
    return load_config(bundled("fig2a.cfg"))


@pytest.fixture(scope="session")
def trial(fig2a_cfg):
    """Trial-system objects shared across the suite."""
    cfg = fig2a_cfg
    params = build_model(cfg)
    eq = solve_equilibrium(params)
    traj = build_trajectory(cfg)
    x0 = build_x0(cfg, params, eq)
    gains = ControllerGains(cfg.gamma, cfg.l1, cfg.l2, cfg.z0)
    return {
        "cfg": cfg,
        "params": params,
        "eq": eq,
        "traj": traj,
        "x0": x0,
        "gains": gains,
    }


@pytest.fixture(scope="session")
def trial_cert(trial):
    cfg, eq = trial["cfg"], trial["eq"]
    validity = validate(trial["traj"], eq, cfg.d_min, cfg.d_max, horizon=cfg.t_final)
    return build_certificate(validity, eq, trial["gains"], trial["params"])


@pytest.fixture(scope="session")
def trial_roots(trial):
    return characteristic_roots(trial["eq"], trial["params"], 6)


@pytest.fixture(scope="session")
def trial_basis(trial, trial_roots):
    return build_basis(trial["x0"], trial["eq"], trial_roots, 6, trial["params"])


@pytest.fixture(scope="session")
def fig2a_runs(trial):
    """Transition scenario at both routes and two resolutions."""
    cfg, params, eq, traj, x0, gains = (
        trial["cfg"],
        trial["params"],
        trial["eq"],
        trial["traj"],
        trial["x0"],
        trial["gains"],
    )
    dt = cfg.dt
    snaps = cfg.snapshot_times
    out = {}
    out["oracle"] = simulate_closed_loop(x0, traj, eq, gains, params, cfg.t_final, dt, snaps)
    out["oracle_half"] = simulate_closed_loop(
        x0, traj, eq, gains, params, cfg.t_final, dt / 2, snaps
    )
    roots6 = characteristic_roots(eq, params, 6)
    basis6 = build_basis(x0, eq, roots6, 6, params)
    out["galerkin"] = simulate(
        assemble(basis6, params), basis6, traj, gains, params, cfg.t_final, dt, snaps
    )
    roots10 = characteristic_roots(eq, params, 10)
    basis10 = build_basis(x0, eq, roots10, 10, params)
    out["galerkin10_half"] = simulate(
        assemble(basis10, params), basis10, traj, gains, params, cfg.t_final, dt / 2, snaps
    )
    return out


@pytest.fixture(scope="session")
def fig2a_report(fig2a_cfg):
    return run(fig2a_cfg)


@pytest.fixture(scope="session")
def fig3_report():
    return run(load_config(bundled("fig3.cfg")))


@pytest.fixture(scope="session")
def fig2b_report():
    return run(load_config(bundled("fig2b.cfg")))


@pytest.fixture(scope="session")
def const_setup():
    cfg = load_config(bundled("const.cfg"))
    params = build_model(cfg)
    eq = solve_equilibrium(params)
    traj = build_trajectory(cfg)
    x0 = build_x0(cfg, params, eq)
    gains = ControllerGains(cfg.gamma, cfg.l1, cfg.l2, cfg.z0)
    validity = validate(traj, eq, cfg.d_min, cfg.d_max, horizon=cfg.t_final)
    cert = build_certificate(validity, eq, gains, params)
    trace = simulate_closed_loop(x0, traj, eq, gains, params, cfg.t_final, cfg.dt, ())
    trace_half = simulate_closed_loop(x0, traj, eq, gains, params, cfg.t_final, cfg.dt / 2, ())
    return {
        "cfg": cfg,
        "params": params,
        "eq": eq,
        "traj": traj,
        "x0": x0,
        "gains": gains,
        "cert": cert,
        "trace": trace,
        "trace_half": trace_half,
    }


def small_config_text(**overrides) -> str:
    """A fast-running scenario config for CLI and determinism tests."""
    base = {
        "t_final": 4.0,
        "dt": 0.005,
        "age_nodes": 401,
        "n_modes": 4,
        "kind_block": "kind = constant\nvalue = 1.0",
        "d_max": 1.5,
        "snapshot_times": "2.0",
    }
    base.update(overrides)
    return """[model]
a_max = 2.0
d_min = 0.5
d_max = {d_max}
mu = constant 0.1
k = quadratic-motherhood 2.00
p = constant 1.0
x0 = compat-linear-exp 1.30 1.0

[trajectory]
{kind_block}

[controller]
gamma = 2.0
l1 = 4.0
l2 = 8.0
z01 = 0.0
z02 = 0.5

[numerics]
n_modes = {n_modes}
age_nodes = {age_nodes}
dt = {dt}
t_final = {t_final}

[outputs]
routes = both
snapshot_times = {snapshot_times}
""".format(**base)
