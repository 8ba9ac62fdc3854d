"""Saturated two-degrees-of-freedom output controller with adaptation.

The control law reads only the measured output, the reference trajectory,
and its own observer state.  It never sees model parameters, age profiles,
or the equilibrium dilution rate; the second observer component adapts to
that unknown equilibrium value online.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trajectories import Trajectory


@dataclass(frozen=True)
class ControllerGains:
    gamma: float
    l1: float
    l2: float
    z0: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.gamma <= 0 or self.l1 <= 0 or self.l2 <= 0:
            raise ValueError("gamma, l1, l2 must be positive")


@dataclass(frozen=True)
class ScalarLoop:
    """The controlled block (eta, z1, z2) of both simulation routes.

    The plant enters only through y = y_ref e^{eta + delta}: eta is the
    log-scale coordinate, eta' = d_star - rate - D, where d_star is the
    plant's growth rate without dilution, and delta is the route's
    input-free contribution, so the log error is eta + delta.  This class
    holds the one copy of the control law and the observer right-hand side
    (``rhs``) and of the RK4 step (``sweep``).
    """

    gamma: float
    l1: float
    l2: float
    d_star: float
    d_min: float
    d_max: float

    def __post_init__(self):
        if self.d_min >= self.d_max:
            raise ValueError("saturation interval needs lo < hi")

    @staticmethod
    def of(gains: ControllerGains, d_star=0.0, d_min=-math.inf, d_max=math.inf) -> "ScalarLoop":
        return ScalarLoop(gains.gamma, gains.l1, gains.l2, d_star, d_min, d_max)

    def rhs(self, eta: float, z1: float, z2: float, rate: float, dlt: float, forced=None):
        """(eta', z1', z2', D) at one stage, with log_error = eta + dlt.

        D is the imposed input ``forced``, or else the law: feedforward
        -rate plus the proportional-adaptive feedback z2 + gamma log_error,
        saturated to [d_min, d_max].  The observer is
        z1' = z2 - rate - D - l1 (z1 - log_error), z2' = -l2 (z1 - log_error).
        """
        log_error = eta + dlt
        if forced is None:
            forced = min(self.d_max, max(self.d_min, z2 + self.gamma * log_error - rate))
        mism = z1 - log_error
        return self.d_star - rate - forced, z2 - rate - forced - self.l1 * mism, -self.l2 * mism, forced

    def sweep(self, traj: Trajectory, dt: float, u0: tuple, delta: np.ndarray, d_override=None):
        """Integrate (eta, z1, z2) from u0 over the nodes t_k = k dt, one RK4 step per dt.

        ``delta`` is given on the stage grid t_0, t_0 + dt/2, t_1, ..., so
        its length sets the horizon; the reference rate and an imposed input
        ``d_override`` (a callable t -> D, or None for the feedback law) are
        taken there in one call each.  Returns the node times t, the
        (3, n + 1) array of (eta, z1, z2), the input applied at each node,
        y_ref(t) and the output y = y_ref e^{eta + delta}.  The loop reads
        its stage values from Python lists and writes its outputs back to
        the arrays SWEEP_CHUNK steps at a time, since lists for the whole
        horizon would hold a float object per value and raise the process's
        peak memory.
        """
        n_steps = (len(delta) - 1) // 2
        t = dt * np.arange(n_steps + 1)
        t_half = t[:-1] + 0.5 * dt

        def staged(f) -> np.ndarray:
            out = np.empty(2 * n_steps + 1)
            out[0::2] = f(t)
            out[1::2] = f(t_half)
            return out

        rate = staged(traj.rate)
        forced = None
        if d_override is not None:
            forced = staged(lambda ts: [float(d_override(s)) for s in ts.tolist()])
        hist = np.empty((3, n_steps + 1))
        d = np.empty(n_steps + 1)
        hist[:, 0] = u = u0
        rhs, half, sixth = self.rhs, 0.5 * dt, dt / 6.0
        for k0 in range(0, n_steps, SWEEP_CHUNK):
            m = min(SWEEP_CHUNK, n_steps - k0)
            s = slice(2 * k0, 2 * (k0 + m) + 1)
            rs, ds = rate[s].tolist(), delta[s].tolist()
            fs = [None] * (2 * m + 1) if forced is None else forced[s].tolist()
            us, d_chunk = [], []
            for j in range(0, 2 * m, 2):
                e, p, q = u
                a1, b1, c1, d0 = rhs(e, p, q, rs[j], ds[j], fs[j])
                a2, b2, c2, _ = rhs(e + half * a1, p + half * b1, q + half * c1, rs[j + 1], ds[j + 1], fs[j + 1])
                a3, b3, c3, _ = rhs(e + half * a2, p + half * b2, q + half * c2, rs[j + 1], ds[j + 1], fs[j + 1])
                a4, b4, c4, _ = rhs(e + dt * a3, p + dt * b3, q + dt * c3, rs[j + 2], ds[j + 2], fs[j + 2])
                u = (
                    e + sixth * (a1 + 2 * a2 + 2 * a3 + a4),
                    p + sixth * (b1 + 2 * b2 + 2 * b3 + b4),
                    q + sixth * (c1 + 2 * c2 + 2 * c3 + c4),
                )
                us.append(u)
                d_chunk.append(d0)
            hist[:, k0 + 1 : k0 + m + 1] = np.array(us).T
            d[k0 : k0 + m] = d_chunk
        last = None if forced is None else float(forced[-1])
        d[-1] = rhs(u[0], u[1], u[2], float(rate[-1]), float(delta[2 * n_steps]), last)[3]
        y_ref = np.asarray(traj.eval(t), dtype=float)
        with np.errstate(over="ignore"):  # a run that overflows is the route's to report
            y = y_ref * np.exp(hist[0] + delta[0::2])
        return t, hist, d, y_ref, y


def snapshot_steps(times, t: np.ndarray, dt: float) -> dict:
    """{i: t[i]} in step order for the steps i = round(s / dt) of the given times.

    Each requested time s names the node nearest it; times whose step lies
    off 0..len(t) - 1 are dropped, and times that share a step give one entry.
    """
    steps = {round(s / dt) for s in times}.intersection(range(len(t)))
    return {i: float(t[i]) for i in sorted(steps)}


#: RK4 steps per chunk of :meth:`ScalarLoop.sweep`'s stage lists
SWEEP_CHUNK = 256
