"""Saturated two-degrees-of-freedom output controller with adaptation.

The control law reads only the measured output, the reference trajectory,
and its own observer state.  It never sees model parameters, age profiles,
or the equilibrium dilution rate; the second observer component adapts to
that unknown equilibrium value online.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import Instability, InvalidIC
from .trajectories import Trajectory


@dataclass(frozen=True)
class ControllerGains:
    gamma: float
    l1: float
    l2: float
    z0: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        for key in ("gamma", "l1", "l2"):
            if not getattr(self, key) > 0:
                raise ValueError("%s: must be positive, got %g" % (key, getattr(self, key)))


@dataclass(frozen=True)
class ScalarLoop:
    """The controlled block (eta, z1, z2) of both simulation routes.

    The plant enters only through y = y_ref e^{eta + delta}: eta is the
    log-scale coordinate, eta' = d_star - rate - D, where d_star is the
    plant's growth rate without dilution, and delta is the route's
    input-free contribution, so the log error is eta + delta.  This class
    holds the one copy of the control law and the observer right-hand side
    (``rhs``) and of the closing (``sweep``): the RK4 step, eta(0) and the
    checks of the reference at t = 0 and of the scalar state.  In each input
    regime one RK4 step is an affine map, read off ``rhs``; the closing runs
    it over windows of steps by a prefix scan (see :meth:`_advance`).
    """

    gamma: float
    l1: float
    l2: float
    d_star: float
    d_min: float
    d_max: float

    def __post_init__(self):
        if not self.d_max > self.d_min:
            raise ValueError("d_max: must be > d_min = %g, got %g" % (self.d_min, self.d_max))

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
            # min(d_max, max(d_min, f)) bit for bit, NaN and signed zeros
            # included, without the two builtin calls per RK4 stage
            forced = z2 + self.gamma * log_error - rate
            forced = forced if forced > self.d_min else self.d_min
            forced = forced if forced < self.d_max else self.d_max
        mism = z1 - log_error
        return self.d_star - rate - forced, z2 - rate - forced - self.l1 * mism, -self.l2 * mism, forced

    def _step_map(self, dt: float, forced: bool) -> tuple:
        """One RK4 step in one regime as one matrix, read off ``rhs`` on unit inputs.

        In a regime (the law inside the band, or ``forced``: D given) rhs
        is affine in x = (eta, z1, z2 - d_star) and in the stage inputs 1,
        delta, rate and, if forced, D.  Columns of the (7, 3 + 3 nc) map: x,
        then the nc inputs at the step's start, midpoint and end; rows: x's
        increment, then the law at the four stages.  Also returns the scan's
        powers R^(2^i) - I for 2^i < SWEEP_WINDOW.  The shift keeps the
        exact-tracking fixed point x = 0 at zero.
        """
        nc = 3 + forced
        lawful = replace(self, d_min=-math.inf, d_max=math.inf)
        free = replace(lawful, d_star=0.0)

        def read(given):  # (eta', z1', z2', D) by x and by the inputs at one stage time
            at = lambda loop, v: np.array(loop.rhs(v[0], v[1], v[2], v[4], v[3], v[5] if given else None))
            cols = [at(free, v) - at(free, [0.0] * 6) for v in np.eye(6).tolist()]
            return np.column_stack(cols[:3] + [at(lawful, [0.0] * 6) + cols[2] * self.d_star] + cols[3 : 2 + nc])

        rows, u, half = np.vstack([read(forced)[:3], read(False)[3:]]), np.eye(3, 3 + 3 * nc), 0.5 * dt
        a, g = rows[:3, :3], np.pad(np.kron(np.eye(3), rows[:, 3:]), ((0, 0), (3, 0))).reshape(3, 4, -1)
        k1 = a @ u + g[0, :3]
        k2 = a @ (u + half * k1) + g[1, :3]
        k3 = a @ (u + half * k2) + g[1, :3]
        k4 = a @ (u + dt * k3) + g[2, :3]
        stages = rows[3, :3] @ np.stack([u, u + half * k1, u + half * k2, u + dt * k3]) + g[[0, 1, 1, 2], 3]
        p = np.vstack([dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), stages])
        powers = [p[:3, :3]]
        while 2 ** len(powers) < SWEEP_WINDOW:
            powers.append(powers[-1] @ powers[-1] + 2 * powers[-1])
        return p, powers

    def _advance(self, dt: float, u0: tuple, delta, rate, forced) -> tuple:
        """(hist, d) from u0.  A window of SWEEP_WINDOW steps from node k takes the input's
        regime at k and is one product of its step map with the window's stage inputs and
        a prefix scan, kept up to the first step with a stage outside the regime or a
        value that is not finite.  There the RK4 step on Python floats through ``rhs``
        takes over; it stops at a state that is not finite."""
        n_steps = (len(delta) - 1) // 2
        hist, d = np.empty((3, n_steps + 1)), np.empty(n_steps + 1)
        hist[:, 0], rhs, half, sixth = u0, self.rhs, 0.5 * dt, dt / 6.0

        def stepwise(k, stop):
            u = hist[:, k].tolist()
            for j in range(k, stop):
                s = slice(2 * j, 2 * j + 3)
                (r0, r1, r2), (d0, d1, d2) = rate[s].tolist(), delta[s].tolist()
                f0, f1, f2 = (None,) * 3 if forced is None else forced[s].tolist()
                e, p, q = u
                a1, b1, c1, d[j] = rhs(e, p, q, r0, d0, f0)
                a2, b2, c2, _ = rhs(e + half * a1, p + half * b1, q + half * c1, r1, d1, f1)
                a3, b3, c3, _ = rhs(e + half * a2, p + half * b2, q + half * c2, r1, d1, f1)
                a4, b4, c4, _ = rhs(e + dt * a3, p + dt * b3, q + dt * c3, r2, d2, f2)
                u = (e + sixth * (a1 + 2 * a2 + 2 * a3 + a4), p + sixth * (b1 + 2 * b2 + 2 * b3 + b4),
                     q + sixth * (c1 + 2 * c2 + 2 * c3 + c4))
                hist[:, j + 1] = u

        w, k, maps, shift = SWEEP_WINDOW, 0, {}, np.array([0.0, 0.0, self.d_star])
        buf = np.ones((4, 2 * w + 1))  # 1, delta, rate and D at the window's stage times
        keep = SWEEP_KEEP  # the fewest steps a window must keep before the next one
        while k < n_steps:
            size = min(w, n_steps - k)
            seg, used = slice(2 * k, 2 * (k + size) + 1), 2 * size + 1
            f0 = None if forced is None else float(forced[2 * k])
            dk = rhs(*hist[:, k].tolist(), float(rate[2 * k]), float(delta[2 * k]), f0)[3]
            regime = 3 if forced is not None else int(dk > self.d_min) + int(dk >= self.d_max)
            nc = 3 + (regime != 1)  # 0: at d_min, 1: the law, 2: at d_max, 3: imposed
            maps[nc] = maps[nc] if nc in maps else self._step_map(dt, nc == 4)
            buf[1:3, :used] = delta[seg], rate[seg]
            buf[3, :used] = dk if forced is None else forced[seg]
            buf[1:, used:] = 0.0
            inputs = np.concatenate([buf[:nc, s : s + 2 * w : 2] for s in range(3)])
            y = _window(*maps[nc], hist[:, k] - shift, inputs)[:, :size]
            x, law = y[:3], y[3:]  # x after each step less x at k, the law at its four stages
            finite = np.isfinite(y).all(axis=0)
            ok = finite & ((np.where(law >= self.d_max, 2, law > self.d_min) == regime).all(axis=0) | (regime == 3))
            n_ok = size if ok.all() else int(np.argmin(ok))
            np.add(hist[:, k, None], x[:, :n_ok], out=hist[:, k + 1 : k + 1 + n_ok])
            d[k : k + n_ok] = law[0, :n_ok] if regime == 1 else buf[3, : 2 * n_ok : 2]
            if n_ok == size:
                k, keep = k + size, SWEEP_KEEP
                continue
            # a switch: its step, or float steps to ``keep`` (doubled) if the window kept
            # fewer, so that chattering costs about the stepwise loop; not finite: the window
            stop = k + (max(n_ok + 1, min(keep, size) if n_ok < keep else 0) if finite[n_ok] else size)
            keep = min(2 * keep, w) if n_ok < keep else SWEEP_KEEP
            stepwise(k + n_ok, stop)
            if not np.isfinite(hist[:, stop]).all():
                return hist, d  # the caller names the first node that is not finite
            k = stop
        last = None if forced is None else float(forced[-1])
        d[-1] = rhs(*hist[:, -1].tolist(), float(rate[-1]), float(delta[2 * n_steps]), last)[3]
        return hist, d

    def sweep(self, traj: Trajectory, dt: float, m: float, z0: tuple, delta: np.ndarray, d_override=None):
        """Close a route's input-free solve: RK4 of (eta, z1, z2) on the nodes t_k = k dt.

        The route gives its output scale ``m`` and the observer start
        ``z0``; eta(0) = log(m / y_ref(0)).  ``delta`` is given on the stage
        grid t_0, t_0 + dt/2, t_1, ..., so its length sets the horizon; the
        reference rate and an imposed input ``d_override`` (a callable
        t -> D, or None for the feedback law) are taken there in one call
        each.  Returns the node times t, the (3, n + 1) array of (eta, z1,
        z2), the input applied at each node, y_ref(t) and the output
        y = y_ref e^{eta + delta}.  Raises InvalidIC unless y_ref(0) > 0, and
        Instability at the first node where eta, z1 or z2 is not finite.
        The loop is affine while the input keeps its regime (the law inside
        the band, at d_min, at d_max, or imposed); see :meth:`_advance`.
        """
        y_ref0 = float(traj.eval(0.0))
        if not y_ref0 > 0:
            raise InvalidIC("reference must be positive at t = 0")
        n_steps = (len(delta) - 1) // 2
        t = dt * np.arange(n_steps + 1)

        def staged(f) -> np.ndarray:
            out = np.empty(2 * n_steps + 1)
            out[0::2] = f(t)
            out[1::2] = f(t[:-1] + 0.5 * dt)
            return out

        rate = staged(traj.rate)
        forced = None if d_override is None else staged(lambda ts: [float(d_override(s)) for s in ts.tolist()])
        hist, d = self._advance(dt, (math.log(m / y_ref0), *z0), delta, rate, forced)
        del rate, forced
        over = ~np.isfinite(hist).all(axis=0)
        if over.any():
            raise Instability("scalar state overflowed at t = %g" % t[int(np.argmax(over))])
        y_ref = np.asarray(traj.eval(t), dtype=float)
        with np.errstate(over="ignore"):  # a finite eta + delta past log(max float) overflows y alone
            y = y_ref * np.exp(hist[0] + delta[0::2])
        return t, hist, d, y_ref, y


@np.errstate(over="ignore", invalid="ignore")  # a window that overflows is stepped again
def _window(p: np.ndarray, powers: list, x: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Step map ``p``'s rows for a window from x, a column of ``inputs`` per step; the
    step starts follow by a prefix scan, one product by R^(2^i) (``powers``) per round."""
    out = p[:, 3:] @ inputs
    starts = np.zeros((3, inputs.shape[1]))  # less x
    starts[:, 1:] = out[:3, :-1] + (powers[0] @ x)[:, None]
    for i, r in enumerate(powers):
        lag = 2**i
        starts[:, lag:] += starts[:, :-lag] + r @ starts[:, :-lag]
    out += p[:, :3] @ (starts + x[:, None])
    out[:3] += starts
    return out


def snapshot_steps(times, t: np.ndarray, dt: float) -> dict:
    """{i: t[i]} in step order for the steps i = round(s / dt) of the given times.

    Each requested time s names the node nearest it; times whose step lies
    off 0..len(t) - 1 are dropped, and times that share a step give one entry.
    """
    steps = {round(s / dt) for s in times}.intersection(range(len(t)))
    return {i: float(t[i]) for i in sorted(steps)}


#: RK4 steps per window of :meth:`ScalarLoop.sweep` (one product of a step map and
#: one regime check each), and the fewest steps below which a window counts as short
SWEEP_WINDOW, SWEEP_KEEP = 512, 8
