"""Exact solution route through the equivalent delay model.

The age-structured PDE is parameterized by a scalar log-scale coordinate
driven by the input and an autonomous internal coordinate psi governed by a
renewal integral equation.  psi is advanced through the equivalent delay
differential equation

    dpsi/dt = kt(0) psi(t) - kt(A) psi(t-A) + int_0^A kt'(a) psi(t-a) da

with classical fourth-order stepping and cubic-Hermite history
interpolation, which avoids the implicit endpoint of the integral form;
the integral identity is kept as a verification invariant instead.

Every history read of the stepper and of delta is at t_b + c dt - a_j, for
a buffer node b, a stage offset c in {0, 1/2, 1} and an age node a_j = j h.
That read lies c - j h/dt buffer steps from node b, whatever b is, so each
read pattern is a fixed linear map of the (value, derivative) pairs of a
slice of the buffer, built once per (model, dt), and delta along a whole
history is one correlation per map.  psi's equation is linear, autonomous
and has constant coefficients, so an RK4 step is a fixed linear map of the
newest n_hist + 1 nodes too; PSI_BLOCK steps compose into one block
propagator, built once per run, and the stepper applies it one matrix-vector
product per block.

Everything the input does to the plant acts through the scalar coordinate
only, so psi histories are bit-for-bit independent of the applied dilution
sequence.  A run therefore steps psi over its whole horizon first, takes
delta at nodes and half-nodes from the finished history, and then
integrates the scalar block (eta, z1, z2) alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .controller import ControllerGains, ScalarLoop, snapshot_steps
from .errors import HistoryGap, LogDomain
from .grid import GridFunction, fd4, hermite_basis, hermite_eval, hermite_resample, simpson_weights, tail_integral
from .model import Equilibrium, ModelParams, check_initial_condition
from .trajectories import Trajectory

_EDGE_TOL = 1e-9


class HistoryBuffer(NamedTuple):
    """The finished psi history: (value, derivative) pairs at t0 + i*dt.

    Built once (:func:`init_delay_state`, then :func:`_advance_psi`) and
    never changed.  ``eval`` serves the reads made from the finished
    history (snapshots, the windows of the Lyapunov readers, the renewal
    identity), all within [t0, t_last]; the stepper and delta read through
    the maps of :func:`_read_map` instead.
    """

    t0: float
    dt: float
    val: np.ndarray
    der: np.ndarray

    @property
    def t_last(self) -> float:
        return self.t0 + (len(self.val) - 1) * self.dt

    def eval(self, t):
        """Cubic Hermite evaluation at times of any shape."""
        t = np.asarray(t, dtype=float)
        if t.size and (t.min() < self.t0 - _EDGE_TOL or t.max() > self.t_last + _EDGE_TOL):
            lims = (t.min(), t.max(), self.t0, self.t_last)
            raise HistoryGap("query range [%g, %g] outside history [%g, %g]" % lims)
        return hermite_eval(t, self.t0, self.dt, self.val, self.der)

    def node_values(self) -> np.ndarray:
        return self.val.copy()


def _read_map(coef: np.ndarray, n_hist: int, dt: float, c2: int, top: int):
    """The linear map of sum_j coef[j] psi(t_b + (c2/2) dt - a_j) on the buffer.

    Returns (cv, cd) such that the sum equals
    cv @ val[b - n_hist : b + top + 1] + cd @ der[b - n_hist : b + top + 1]
    for every node b, where b + top is the newest stored node.  With
    h/dt = n_hist/q (q + 1 age nodes), read j lies (c2 q - 2 j n_hist)/(2q)
    buffer steps from node b; that offset is exact in integers.  Each read
    takes the cubic-Hermite weights of its segment, clipped to the last
    stored one: a stage read past the newest node, which only dt > h makes,
    extrapolates that segment's cubic.
    """
    q = len(coef) - 1
    num = c2 * q - 2 * n_hist * np.arange(q + 1)
    seg = np.minimum(num // (2 * q), top - 1)
    h00, h10, h01, h11 = hermite_basis((num - seg * 2 * q) / (2 * q))
    pos = seg + n_hist
    cv = np.zeros(n_hist + top + 1)
    cd = np.zeros(n_hist + top + 1)
    np.add.at(cv, pos, coef * h00)
    np.add.at(cd, pos, coef * h10 * dt)
    np.add.at(cv, pos + 1, coef * h01)
    np.add.at(cd, pos + 1, coef * h11 * dt)
    return cv, cd


@dataclass
class _PsiDynamics:
    """Grid data and the precomputed history-read maps for one (model, dt).

    The delay equation at a stage is psi' = a0 psi_stage + S_c, where S_c
    is the column c of ``stage_val``/``stage_der`` (c = 0, 1/2, 1) applied
    to the last n_hist + 1 buffer nodes: the Simpson-weighted kt' reads of
    ages j >= 1 and the boundary term -kt(A) psi(t - A).  Age 0 is the
    stage value itself, so its weight kt(0) + w_0 kt'(0) is the scalar a0.
    ``delta_node`` and ``delta_half`` are the g-weighted window maps at
    offsets 0 (n_hist + 1 nodes) and 1/2 (n_hist + 2 nodes, the half-node
    read interpolates up to the next node).
    """

    dt: float
    n_hist: int
    a0: float
    stage_val: np.ndarray
    stage_der: np.ndarray
    delta_node: tuple
    delta_half: tuple

    @staticmethod
    def build(eq: Equilibrium, params: ModelParams, dt: float) -> "_PsiDynamics":
        n_hist = int(round(params.a_max / dt))
        w, kt = params.weights, eq.k_tilde.values
        coef = w * eq.k_tilde_prime.values
        a0 = float(kt[0] + coef[0])
        coef[0] = 0.0
        coef[-1] -= kt[-1]
        stages = [_read_map(coef, n_hist, dt, c2, 0) for c2 in (0, 1, 2)]
        wg = w * eq.g.values
        return _PsiDynamics(
            dt=dt,
            n_hist=n_hist,
            a0=a0,
            stage_val=np.column_stack([cv for cv, _ in stages]),
            stage_der=np.column_stack([cd for _, cd in stages]),
            delta_node=_read_map(wg, n_hist, dt, 0, 0),
            delta_half=_read_map(wg, n_hist, dt, 1, 1),
        )


class DelayState(NamedTuple):
    """The initial split: output scale M, psi history, its read maps."""

    m: float
    buffer: HistoryBuffer
    dyn: _PsiDynamics


def init_delay_state(x0: GridFunction, eq: Equilibrium, params: ModelParams, dt: float) -> DelayState:
    """Split an admissible initial profile into (M, psi0) and fill the history.

    With r = x0/x* resampled onto the buffer grid by cubic Hermite
    interpolation, one tail-weighted mean M = <tau, r>/<tau> (tau the tail
    integral of kt, proportional to pi x*) is the discrete Pi(x0) on that
    grid: psi0 = r/M - 1, and M is the output scale from which the scalar
    loop sets eta0 = log(M / y_ref(0)).  psi0's discrete tail-weighted mean
    then vanishes at machine precision, pinning the conserved functional of
    the renewal dynamics to zero, which is what drives psi to zero instead
    of a spurious constant.  Raises InvalidIC for an x0 that
    :func:`check_initial_condition` refuses.
    """
    check_initial_condition(x0, params)
    n_hist = int(round(params.a_max / dt))
    if abs(n_hist * dt - params.a_max) > 1e-9 * params.a_max:
        raise ValueError("dt must divide a_max; got dt=%g, a_max=%g" % (dt, params.a_max))

    ages = np.linspace(0.0, params.a_max, n_hist + 1)
    ratio_b = hermite_resample(params.nodes, x0.values / eq.x_star.values, ages)
    tail_b = hermite_resample(params.nodes, tail_integral(eq.k_tilde.values, params.h), ages)
    if n_hist % 2 == 0:
        wb = simpson_weights(n_hist + 1, dt)
    else:
        wb = np.full(n_hist + 1, dt)
        wb[0] *= 0.5
        wb[-1] *= 0.5
    big_pi = float(wb @ (tail_b * ratio_b)) / float(wb @ tail_b)

    val = ratio_b[::-1] / big_pi - 1.0  # psi0 at t = -A, ..., 0
    der = fd4(val, dt)
    dyn = _PsiDynamics.build(eq, params, dt)
    der[n_hist] = dyn.a0 * val[n_hist] + (val @ dyn.stage_val + der @ dyn.stage_der)[0]
    return DelayState(big_pi, HistoryBuffer(-params.a_max, dt, val, der), dyn)


#: steps per block of :func:`_advance_psi`, each block one product of the
#: block propagator with the newest n_hist + 1 stored (value, derivative) pairs
PSI_BLOCK = 32


def _rk4_increment(a0: float, dt: float, v: float, k1: float, s_half: float, s_one: float) -> float:
    """psi(t + dt) - psi(t) over one RK4 step of psi' = a0 psi + S_c from v = psi(t), k1 = psi'(t)."""
    half = 0.5 * dt
    k2 = a0 * (v + half * k1) + s_half
    k3 = a0 * (v + half * k2) + s_half
    k4 = a0 * (v + dt * k3) + s_one
    return dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def _block_propagator(dyn: _PsiDynamics, n_block: int) -> np.ndarray:
    """P of shape (2 n_block, 2 (n_hist + 1)) for n_block RK4 steps from the newest stored node.

    With s = [val; der] of the newest n_hist + 1 stored nodes, the first
    n_block rows of P @ s are the new values less the newest stored one, and
    the last n_block rows are their derivatives.  The values are kept as
    increments so that the 1 with which each new node carries the newest
    stored value is exact, where P's rounding would otherwise build up over
    the blocks of a run.

    One step from node m is linear in the window of nodes m - n_hist .. m:
    its increment reads the window through (rv, rd) = ch S_1/2 + c1 S_1 plus
    cv v + ck k1 at node m, the coefficients of :func:`_rk4_increment` on unit
    inputs, and the derivative of the new value v' is a0 v' plus the S_1 read
    (ev, ed).  Row k, the step from node m + k, takes its reads of stored
    nodes from a slice of these vectors shifted by k, and its reads of the k
    new nodes before it from rows < k (forward substitution).
    """
    n, a0 = dyn.n_hist + 1, dyn.a0
    cv, ck, ch, c1 = (_rk4_increment(a0, dyn.dt, *unit) for unit in np.eye(4).tolist())
    ev, ed = dyn.stage_val[:, 2], dyn.stage_der[:, 2]
    rv = ch * dyn.stage_val[:, 1] + c1 * ev
    rd = ch * dyn.stage_der[:, 1] + c1 * ed
    rv[-1] += cv
    rd[-1] += ck
    p = np.zeros((2 * n_block, 2 * n))
    inc, pd = p[:n_block], p[n_block:]
    for k in range(n_block):
        lo, j0 = max(n - k, 0), max(k - n, 0)  # first window read of a new node; that node's row
        for row, wv, wd in ((inc[k], rv, rd), (pd[k], ev, ed)):
            row[k:n] = wv[:lo]
            row[n + k :] = wd[:lo]
            row += wv[lo:] @ inc[j0:k] + wd[lo:] @ pd[j0:k]
            row[n - 1] += wv[lo:].sum()  # each new node read carries the newest stored value
        if k:
            inc[k] += inc[k - 1]
        pd[k] += a0 * inc[k]
        pd[k, n - 1] += a0
    return p


def _advance_psi(dyn: _PsiDynamics, buf: HistoryBuffer, n_steps: int) -> HistoryBuffer:
    """The history ``buf`` extended by ``n_steps`` RK4 steps of psi from its newest node.

    PSI_BLOCK steps at a time, through :func:`_block_propagator`.  Every
    block, the last one too, is the full product, so the nodes of a shorter
    run are those of a longer one bit for bit.
    """
    n = dyn.n_hist + 1
    val = np.concatenate([buf.val, np.zeros(n_steps)])
    der = np.concatenate([buf.der, np.zeros(n_steps)])
    p = _block_propagator(dyn, PSI_BLOCK)
    window = np.empty(2 * n)
    for m in range(len(buf.val), len(val), PSI_BLOCK):
        b = min(PSI_BLOCK, len(val) - m)
        window[:n], window[n:] = val[m - n : m], der[m - n : m]
        nxt = p @ window
        val[m : m + b] = val[m - 1] + nxt[:b]
        der[m : m + b] = nxt[PSI_BLOCK : PSI_BLOCK + b]
    return HistoryBuffer(buf.t0, dyn.dt, val, der)


def _delta_grid(dyn: _PsiDynamics, buf: HistoryBuffer) -> np.ndarray:
    """delta at t = (0, 1/2, 1, ..., n) dt, n steps past the history's first window.

    One correlation per map; the window of node k starts at history node k
    (time t_k - A).  Raises LogDomain at the earliest time where 1 + <g, psi window> <= 0.
    """
    n = len(buf.val) - dyn.n_hist - 1
    arg = np.empty(2 * n + 1)
    (nv, nd), (hv, hd) = dyn.delta_node, dyn.delta_half
    arg[0::2] = np.correlate(buf.val, nv, "valid")
    arg[0::2] += np.correlate(buf.der, nd, "valid")
    if n:
        arg[1::2] = np.correlate(buf.val, hv, "valid")
        arg[1::2] += np.correlate(buf.der, hd, "valid")
    arg += 1.0
    bad = np.flatnonzero(arg <= 0)
    if bad.size:
        p = int(bad[0])
        raise LogDomain("1 + <g, psi window> = %g <= 0 at t = %g" % (arg[p], 0.5 * p * dyn.dt))
    return np.log(arg, out=arg)


#: rows per block of :meth:`OracleTrace.windows`.  At 401 ages each
#: temporary of ``HistoryBuffer.eval`` on a block is 26 kB and about a
#: dozen are alive at once; 64-row blocks raised a long run's peak memory.
WINDOW_BLOCK = 8


@dataclass
class OracleTrace:
    """Per-step record of a delay-route run plus the full psi history."""

    t: np.ndarray
    eta: np.ndarray
    delta: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    d: np.ndarray
    y: np.ndarray
    log_error: np.ndarray
    snapshots: dict
    buffer: HistoryBuffer
    nodes: np.ndarray
    weights: np.ndarray
    k_tilde: np.ndarray

    def window(self, t: float) -> np.ndarray:
        return self.buffer.eval(t - self.nodes)

    def windows(self, idx: np.ndarray):
        """Yield (rows, block), WINDOW_BLOCK rows at a time: block[r] = window(t[idx[rows][r]])."""
        for j in range(0, len(idx), WINDOW_BLOCK):
            rows = slice(j, j + WINDOW_BLOCK)
            yield rows, self.buffer.eval(self.t[idx[rows], None] - self.nodes)

    def ide_residual(self, t: float) -> float:
        return abs(float(self.buffer.eval(t)) - float(self.weights @ (self.k_tilde * self.window(t))))

    CSV_COLUMNS = ("t", "eta", "delta", "z1", "z2", "D", "y", "log_error")

    def columns(self) -> list:
        """The arrays named by CSV_COLUMNS, in that order."""
        return [self.t, self.eta, self.delta, self.z1, self.z2, self.d, self.y, self.log_error]


def simulate_closed_loop(
    x0: GridFunction,
    traj: Trajectory,
    eq: Equilibrium,
    gains: ControllerGains,
    params: ModelParams,
    t_final: float,
    dt: float,
    snapshot_times: tuple[float, ...] = (),
    d_override=None,
) -> OracleTrace:
    """Run the controlled delay model and record the trace.

    psi is stepped over the whole horizon first; delta follows at nodes and
    half-nodes from the finished history, and the scalar block (eta, z1,
    z2) is then integrated on its own.  ``d_override``, a callable t -> D, replaces the
    feedback loop for open-loop experiments; the observer still integrates
    with the applied input.  The reference, the gains and the input band
    enter only through :meth:`ScalarLoop.sweep`, which raises InvalidIC and
    Instability for this route as for the modal one.
    """
    state = init_delay_state(x0, eq, params, dt)
    history = _advance_psi(state.dyn, state.buffer, int(round(t_final / dt)))
    dlt = _delta_grid(state.dyn, history)
    loop = ScalarLoop.of(gains, eq.d_star, params.d_min, params.d_max)
    t, (eta, z1, z2), d, y_ref, y = loop.sweep(traj, dt, state.m, gains.z0, dlt, d_override)
    delta = dlt[0::2].copy()
    del dlt  # free the stage array before the snapshots are built

    snapshots = {}
    for i, t_i in snapshot_steps(snapshot_times, t, dt).items():
        scale = float(y_ref[i]) * math.exp(eta[i])
        window = history.eval(t_i - params.nodes)
        snapshots[t_i] = GridFunction(eq.x_star.values * scale * (1.0 + window), params.a_max)

    return OracleTrace(
        t=t,
        eta=eta,
        delta=delta,
        z1=z1,
        z2=z2,
        d=d,
        y=y,
        log_error=eta + delta,
        snapshots=snapshots,
        buffer=history,
        nodes=params.nodes,
        weights=params.weights,
        k_tilde=eq.k_tilde.values,
    )
