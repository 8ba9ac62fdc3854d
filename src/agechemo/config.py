"""Scenario configuration: flat INI-like sections with a strict schema.

Grammar (all keys required unless noted, unknown keys rejected):

    [model]
    a_max  = <float>          age horizon
    d_min  = <float>          lower dilution bound
    d_max  = <float>          upper dilution bound
    mu     = constant <c> | table <v0 v1 ...>
    k      = quadratic-motherhood <k0> | constant <c> | table <v0 v1 ...>
    p      = constant <c> | table <v0 v1 ...>
    x0     = compat-linear-exp <decay> <scale>
           | scaled-equilibrium <scale> <eps>
           | linear-exp <slope> <decay>
           | table <v0 v1 ...>

    [trajectory]
    kind = transition | periodic | ramp | constant
    transition: y0, y_delta, t_delta   periodic: y2, y3, omega
    ramp: y4, y1                       constant: value
    (kinds and keys come from trajectories.KINDS; a value they reject is an input error)

    [controller]
    gamma, l1, l2, z01, z02

    [numerics]
    n_modes (even), age_nodes (odd), dt, t_final

    [outputs]                 (optional section)
    routes = both | galerkin | oracle      (default both)
    snapshot_times = <t0 t1 ...>           (default: 1.0 and t_final)

Every number must be finite.  Tables are values on the uniform age grid
with exactly age_nodes entries.  An x0 of any form, table and linear-exp
included, must be positive and boundary compatible (build_x0).
dt is snapped to an exact divisor of a_max so that the delay window tiles
the time grid, and t_final must span at least one step.  Each route keys a
snapshot by the time of the step nearest each snapshot time; times that
share a step or fall outside the horizon are dropped
(controller.snapshot_steps).
"""
from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import InvalidIC, NonPositive, ParseError, ValidationError
from .grid import GridFunction
from .model import Equilibrium, ModelParams, check_initial_condition, compatibility_gap
from .trajectories import KINDS, Trajectory

_SCHEMA = {
    "model": {"a_max", "d_min", "d_max", "mu", "k", "p", "x0"},
    "trajectory": {"kind"}.union(*(keys for _, keys in KINDS.values())),
    "controller": {"gamma", "l1", "l2", "z01", "z02"},
    "numerics": {"n_modes", "age_nodes", "dt", "t_final"},
    "outputs": {"routes", "snapshot_times"},
}


@dataclass(frozen=True)
class ScenarioConfig:
    a_max: float
    d_min: float
    d_max: float
    mu_spec: tuple
    k_spec: tuple
    p_spec: tuple
    x0_spec: tuple
    traj_kind: str
    traj_params: dict
    gamma: float
    l1: float
    l2: float
    z0: tuple
    n_modes: int
    age_nodes: int
    dt: float
    t_final: float
    routes: str
    snapshot_times: tuple
    config_hash: str
    source: str = field(default="", compare=False)


def _floats(tokens: list[str], where: str) -> list[float]:
    try:
        values = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ValidationError("%s: expected numbers, got %r" % (where, tokens)) from exc
    if not all(math.isfinite(v) for v in values):
        raise ValidationError("%s: numbers must be finite, got %r" % (where, tokens))
    return values


def _spec(raw: str, where: str, allowed: dict[str, int | None]) -> tuple:
    tokens = raw.split()
    if not tokens:
        raise ValidationError("%s: empty value" % where)
    name, args = tokens[0], tokens[1:]
    if name not in allowed:
        raise ValidationError("%s: unknown form %r (allowed: %s)" % (where, name, sorted(allowed)))
    arity = allowed[name]
    if arity is not None and len(args) != arity:
        raise ValidationError("%s: form %r takes %d argument(s)" % (where, name, arity))
    if name == "table" and len(args) < 2:
        raise ValidationError("%s: table needs at least two values" % where)
    return (name, *_floats(args, where))


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.is_file():
        raise ParseError("config file not found: %s" % path)
    raw = path.read_bytes()
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(raw.decode("utf-8"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ParseError("cannot parse %s: %s" % (path, exc)) from exc
    if not parser.sections():
        raise ParseError("%s: no sections found" % path)

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValidationError("[%s]: unknown section" % section)
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ValidationError("[%s] %s: unknown key" % (section, key))
    for required in ("model", "trajectory", "controller", "numerics"):
        if required not in parser:
            raise ValidationError("[%s]: section missing" % required)

    def get(section: str, key: str) -> str:
        if key not in parser[section]:
            raise ValidationError("[%s] %s: key missing" % (section, key))
        return parser[section][key]

    def getf(section: str, key: str) -> float:
        return _floats([get(section, key)], "[%s] %s" % (section, key))[0]

    def geti(section: str, key: str) -> int:
        value = getf(section, key)
        if value != int(value):
            raise ValidationError("[%s] %s: not an integer" % (section, key))
        return int(value)

    a_max = getf("model", "a_max")
    if a_max <= 0:
        raise ValidationError("[model] a_max: must be positive")
    d_min, d_max = getf("model", "d_min"), getf("model", "d_max")
    if not 0 <= d_min < d_max:
        raise ValidationError("[model] d_min/d_max: need 0 <= d_min < d_max")

    mu_spec = _spec(get("model", "mu"), "[model] mu", {"constant": 1, "table": None})
    k_spec = _spec(
        get("model", "k"), "[model] k", {"quadratic-motherhood": 1, "constant": 1, "table": None}
    )
    p_spec = _spec(get("model", "p"), "[model] p", {"constant": 1, "table": None})
    x0_spec = _spec(
        get("model", "x0"),
        "[model] x0",
        {"compat-linear-exp": 2, "scaled-equilibrium": 2, "linear-exp": 2, "table": None},
    )

    kind = get("trajectory", "kind").strip()
    if kind not in KINDS:
        raise ValidationError("[trajectory] kind: unknown kind %r" % kind)
    needed = KINDS[kind][1]
    present = {k for k in parser["trajectory"] if k != "kind"}
    if present != set(needed):
        raise ValidationError(
            "[trajectory]: kind %r needs keys %s, got %s" % (kind, sorted(needed), sorted(present))
        )
    traj_params = {k: getf("trajectory", k) for k in needed}

    gamma, l1, l2 = getf("controller", "gamma"), getf("controller", "l1"), getf("controller", "l2")
    if min(gamma, l1, l2) <= 0:
        raise ValidationError("[controller]: gamma, l1, l2 must be positive")
    z0 = (getf("controller", "z01"), getf("controller", "z02"))

    n_modes = geti("numerics", "n_modes")
    if n_modes % 2 != 0 or n_modes < 4:
        raise ValidationError("[numerics] n_modes: must be even and >= 4")
    age_nodes = geti("numerics", "age_nodes")
    if age_nodes % 2 == 0 or age_nodes < 5:
        raise ValidationError("[numerics] age_nodes: must be odd and >= 5")
    dt = getf("numerics", "dt")
    t_final = getf("numerics", "t_final")
    if dt <= 0 or t_final <= 0:
        raise ValidationError("[numerics]: dt and t_final must be positive")
    dt = a_max / max(1, round(a_max / dt))  # snap to an exact divisor of the window
    if round(t_final / dt) == 0:
        raise ValidationError(
            "[numerics] t_final: %g is less than half a time step (dt = %g)" % (t_final, dt)
        )

    routes = "both"
    snapshot_times: tuple = (1.0, t_final)
    if "outputs" in parser:
        routes = parser["outputs"].get("routes", "both").strip()
        if routes not in ("both", "galerkin", "oracle"):
            raise ValidationError("[outputs] routes: must be both|galerkin|oracle")
        if "snapshot_times" in parser["outputs"]:
            snapshot_times = tuple(
                _floats(parser["outputs"]["snapshot_times"].split(), "[outputs] snapshot_times")
            )

    return ScenarioConfig(
        a_max=a_max,
        d_min=d_min,
        d_max=d_max,
        mu_spec=mu_spec,
        k_spec=k_spec,
        p_spec=p_spec,
        x0_spec=x0_spec,
        traj_kind=kind,
        traj_params=traj_params,
        gamma=gamma,
        l1=l1,
        l2=l2,
        z0=z0,
        n_modes=n_modes,
        age_nodes=age_nodes,
        dt=dt,
        t_final=t_final,
        routes=routes,
        snapshot_times=snapshot_times,
        config_hash=hashlib.sha256(raw).hexdigest(),
        source=str(path),
    )


def _table_or_form(spec: tuple, n: int, where: str) -> np.ndarray:
    name = spec[0]
    if name == "table":
        vals = np.asarray(spec[1:], dtype=float)
        if len(vals) != n:
            raise ValidationError("%s: table needs exactly %d values, got %d" % (where, n, len(vals)))
        return vals
    return np.full(n, spec[1])  # "constant": _spec admits no other form here


def build_model(cfg: ScenarioConfig) -> ModelParams:
    """Materialize the model grids from the config's named forms."""
    n = cfg.age_nodes
    nodes = np.linspace(0.0, cfg.a_max, n)
    mu = _table_or_form(cfg.mu_spec, n, "[model] mu")
    p = _table_or_form(cfg.p_spec, n, "[model] p")
    k_prime = None
    if cfg.k_spec[0] == "quadratic-motherhood":
        k0 = cfg.k_spec[1]
        k = k0 * nodes * (cfg.a_max - nodes)
        k_prime = k0 * (cfg.a_max - 2.0 * nodes)
    else:
        k = _table_or_form(cfg.k_spec, n, "[model] k")
        if cfg.k_spec[0] == "constant":
            k_prime = np.zeros(n)
    mk = lambda v: GridFunction(v, cfg.a_max)
    try:
        return ModelParams(
            mu=mk(mu),
            k=mk(k),
            p=mk(p),
            a_max=cfg.a_max,
            d_min=cfg.d_min,
            d_max=cfg.d_max,
            k_prime=mk(k_prime) if k_prime is not None else None,
        )
    except ValueError as exc:  # the message names the offending key
        raise ValidationError("[model] %s" % exc) from exc


def build_x0(cfg: ScenarioConfig, params: ModelParams, eq: Equilibrium) -> GridFunction:
    """Materialize the initial profile, solving compatibility where the form asks.

    ``compat-linear-exp decay scale``: scale * c * (s a + e^{-decay a}) with
    the slope s solving the boundary compatibility equation exactly on the
    grid and c normalizing <p, x0> = scale.

    ``scaled-equilibrium scale eps``: scale * x*(a) (1 + eps w(a)) with a
    compatibility-corrected cosine bump w; a small admissible perturbation
    of the equilibrium profile.

    ``linear-exp slope decay``: the literal profile slope*a + e^{-decay a}.
    Every form must pass :func:`check_initial_condition`, and the two
    constructed above must also meet compatibility within 1e-9 of max|x0|;
    a profile out of class is an input error.
    """
    a = params.nodes
    w = params.weights
    kind = cfg.x0_spec[0]
    if kind == "compat-linear-exp":
        decay, scale = cfg.x0_spec[1], cfg.x0_spec[2]
        e = np.exp(-decay * a)
        slope = (1.0 - float(w @ (params.k.values * e))) / float(w @ (params.k.values * a))
        base = slope * a + e
        vals = scale * base / float(w @ (params.p.values * base))
    elif kind == "scaled-equilibrium":
        scale, eps = cfg.x0_spec[1], cfg.x0_spec[2]
        bump = np.cos(np.pi * a / cfg.a_max)
        kt = eq.k_tilde.values
        s0 = (1.0 - float(w @ (kt * bump))) / float(w @ (kt * a))
        vals = scale * eq.x_star.values * (1.0 + eps * (bump + s0 * a))
    elif kind == "linear-exp":
        slope, decay = cfg.x0_spec[1], cfg.x0_spec[2]
        vals = slope * a + np.exp(-decay * a)
    else:
        vals = _table_or_form(cfg.x0_spec, cfg.age_nodes, "[model] x0")
    gf = GridFunction(vals, cfg.a_max)
    try:
        check_initial_condition(gf, params)
    except InvalidIC as exc:
        raise ValidationError("[model] x0: %s" % exc) from exc
    gap = abs(compatibility_gap(gf, params))
    if kind in ("compat-linear-exp", "scaled-equilibrium") and gap > 1e-9 * float(np.max(vals)):
        raise ValidationError("[model] x0: compatibility construction failed (gap %g)" % gap)
    return gf


def build_trajectory(cfg: ScenarioConfig) -> Trajectory:
    make, keys = KINDS[cfg.traj_kind]
    try:
        return make(*(cfg.traj_params[k] for k in keys))
    except NonPositive as exc:  # a malformed reference is an input error
        raise ValidationError("[trajectory] %s" % exc) from exc
