"""Reference trajectory catalog and validity analysis.

Each trajectory carries closed-form value and logarithmic-rate evaluators;
rates are never finite-differenced because the validity band is a statement
about the exact ratio dy/dt / y.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonPositive
from .model import Equilibrium

PROBE_POINTS = 10_000

# quintic blend coefficients: value 1 and flat first/second derivative at the end
BLEND = (10.0, -15.0, 6.0)


@dataclass(frozen=True)
class Trajectory:
    kind: str
    params: dict
    eval: Callable[[np.ndarray], np.ndarray]
    rate: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ValidityReport:
    inf_rate: float
    sup_rate: float
    valid: bool
    t_crit: Optional[float]


def make_ramp(y4: float, y1: float) -> Trajectory:
    """y(t) = y4 + y1 t with monotonically decreasing rate y1 / y(t)."""
    if y4 <= 0 or y1 < 0:
        raise NonPositive("ramp needs y4 > 0 and y1 >= 0")

    def ev(t):
        return y4 + y1 * np.asarray(t, dtype=float)

    def rt(t):
        return y1 / ev(t)

    return Trajectory("ramp", {"y4": y4, "y1": y1}, ev, rt)


def make_periodic(y2: float, y3: float, omega: float) -> Trajectory:
    """y(t) = y2 + y3 sin(w t + sin(w t)); positive iff y2 > y3."""
    if y2 <= y3 or y3 < 0:
        raise NonPositive("periodic needs y2 > y3 >= 0")
    if omega <= 0:
        raise NonPositive("periodic needs omega > 0")

    def ev(t):
        t = np.asarray(t, dtype=float)
        return y2 + y3 * np.sin(omega * t + np.sin(omega * t))

    def rt(t):
        t = np.asarray(t, dtype=float)
        dy = y3 * omega * np.cos(omega * t + np.sin(omega * t)) * (1.0 + np.cos(omega * t))
        return dy / ev(t)

    return Trajectory("periodic", {"y2": y2, "y3": y3, "omega": omega}, ev, rt)


def make_transition(y0: float, y_delta: float, t_delta: float) -> Trajectory:
    """Quintic set-point blend from y0 to y_delta over [0, t_delta], constant after.

    The blend coefficients make the curve twice continuously differentiable
    at both endpoints.
    """
    if y0 <= 0 or y_delta <= 0 or t_delta <= 0:
        raise NonPositive("transition needs y0, y_delta, t_delta > 0")
    g1, g2, g3 = BLEND

    def ev(t):
        tau = np.clip(np.asarray(t, dtype=float) / t_delta, 0.0, 1.0)
        s = g1 * tau**3 + g2 * tau**4 + g3 * tau**5
        return y0 + (y_delta - y0) * s

    def rt(t):
        tau = np.clip(np.asarray(t, dtype=float) / t_delta, 0.0, 1.0)
        ds = (3 * g1 * tau**2 + 4 * g2 * tau**3 + 5 * g3 * tau**4) / t_delta
        return (y_delta - y0) * ds / ev(t)

    return Trajectory(
        "transition", {"y0": y0, "y_delta": y_delta, "t_delta": t_delta}, ev, rt
    )


def make_constant(value: float) -> Trajectory:
    if value <= 0:
        raise NonPositive("constant trajectory needs a positive value")

    def ev(t):
        return np.full_like(np.asarray(t, dtype=float), value) if np.ndim(t) else value

    def rt(t):
        return np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0

    return Trajectory("constant", {"value": value}, ev, rt)


#: each reference kind's constructor and its parameter names in call order
KINDS = {
    "transition": (make_transition, ("y0", "y_delta", "t_delta")),
    "periodic": (make_periodic, ("y2", "y3", "omega")),
    "ramp": (make_ramp, ("y4", "y1")),
    "constant": (make_constant, ("value",)),
}


def _probe_horizon(traj: Trajectory, horizon: float) -> float:
    if traj.kind == "periodic":
        return min(horizon, 2 * math.pi / traj.params["omega"])
    return horizon


def validate(
    traj: Trajectory,
    eq: Equilibrium,
    d_min: float,
    d_max: float,
    horizon: float,
) -> ValidityReport:
    """Check the rate band d* - d_max < rate(t) < d* - d_min over the horizon.

    For ramps the rate is monotone, so the entry time into the band is
    computed in closed form; for other kinds the first probe-grid entry is
    reported, and a later exit from the band is not resolved.
    """
    hz = _probe_horizon(traj, horizon)
    ts = np.linspace(0.0, hz, PROBE_POINTS)
    rates = np.asarray(traj.rate(ts), dtype=float)
    inf_rate, sup_rate = float(rates.min()), float(rates.max())
    lo_band = eq.d_star - d_max
    hi_band = eq.d_star - d_min
    valid = lo_band < inf_rate and sup_rate < hi_band

    t_crit: Optional[float] = None
    if valid:
        t_crit = 0.0
    elif traj.kind == "ramp":
        y4, y1 = traj.params["y4"], traj.params["y1"]
        # rate decreases from y1/y4 toward 0; entry happens when it crosses
        # the upper band edge (the lower edge is negative and never active)
        if hi_band > 0 and y1 > 0 and y1 / y4 >= hi_band:
            t_crit = (y1 / hi_band - y4) / y1
        elif hi_band > 0:
            t_crit = 0.0
    else:
        inside = (rates > lo_band) & (rates < hi_band)
        if inside.any():
            t_crit = float(ts[np.argmax(inside)])
    return ValidityReport(inf_rate, sup_rate, valid, t_crit)
