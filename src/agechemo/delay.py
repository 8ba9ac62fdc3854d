"""Exact solution route through the equivalent delay model.

The age-structured PDE is parameterized by a scalar log-scale coordinate
driven by the input and an autonomous internal coordinate psi governed by
the renewal integral equation psi(t) = int_0^A kt(a) psi(t - a) da.

psi is stepped as that equation on a buffer grid of step dt = h/q, for the
age step h and a whole q >= 1.  With kt read at the buffer ages by cubic
Hermite interpolation, c_j that times the composite Simpson weights, and
sum c_j = 1 re-imposed, the equation on the grid is the fixed linear
recurrence psi_n (1 - c_0) = sum_{j=1..N} c_j psi_{n-j}, N = A/dt
(repeated Simpson; Linz, Analytical and Numerical Methods for Volterra
Equations, SIAM 1985).  It conserves Q_n = sum_{j<N} T_j psi_{n-j},
T_j = sum_{i>j} c_i, and the initial split pins Q to zero, which is what
drives psi to zero instead of to a constant.  A step is a fixed linear map
of the newest N values, so PSI_BLOCK steps compose into one block
propagator, built once per run and applied one product per block.

delta reads psi on the native age grid: at a node time the window is the
buffer nodes at stride q, at a half-node time (the scalar loop's RK4
stages) each read is the cubic-Hermite midpoint of two nodes.  The node
slopes come from the delay equation
psi' = kt(0) psi(t) - kt(A) psi(t - A) + int_0^A kt'(a) psi(t - a) da, the
renewal equation differentiated, in one correlation; before t = 0 they are
the fd4 slopes of the initial history.

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
from .grid import GridFunction, fd4, hermite_eval, refined_rule, simpson_weights
from .model import Equilibrium, ModelParams, check_initial_condition
from .trajectories import Trajectory

_EDGE_TOL = 1e-9


class HistoryBuffer(NamedTuple):
    """The finished psi history: (value, slope) pairs at t0 + i*dt.

    Built once (:func:`init_delay_state`, then :func:`_advance_psi`) and
    never changed.  Snapshots and the Lyapunov readers' windows read ``val``
    by index (:func:`_node_windows`); ``eval`` serves the one read that
    falls between nodes, the renewal identity's, within [t0, t_last].
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


def _on_buffer(values: np.ndarray, slopes: np.ndarray, q: int) -> np.ndarray:
    """The cubic Hermite interpolant of age-grid (values, slopes per age step) at every q-th part of a step.

    Segment and offset come from integers, so the age nodes come back exactly.
    """
    return hermite_eval(np.arange((len(values) - 1) * q + 1) / q, 0.0, 1.0, values, slopes)


@dataclass
class _PsiDynamics:
    """The recurrence and the readers' maps for one (model, dt).

    ``coef`` holds a_j = c_j / (1 - c_0) for j = 1..N, so that
    psi_n = sum_j a_j psi_{n-j}.  ``slope`` and ``delta`` are maps over the
    window of the N + 1 nodes that ends at a node, oldest first, reading the
    native age grid at stride q: the right-hand side of the delay equation,
    and the g-weighted Simpson sum <g, psi window>.
    """

    dt: float
    q: int
    n_hist: int
    coef: np.ndarray
    slope: np.ndarray
    delta: np.ndarray

    @staticmethod
    def build(eq: Equilibrium, params: ModelParams, dt: float) -> "_PsiDynamics":
        q = round(params.h / dt)
        if q < 1 or abs(q * dt - params.h) > 1e-9 * params.h:
            raise ValueError("dt must divide the age step h; got dt=%g, h=%g" % (dt, params.h))
        n_hist = q * (params.mu.n - 1)
        kt, ktp = eq.k_tilde.values, eq.k_tilde_prime.values
        # n_hist is even, so the buffer ages take Simpson weights; the step cancels in coef
        c = simpson_weights(n_hist + 1, 1.0) * _on_buffer(kt, params.h * ktp, q)

        def strided(v):
            out = np.zeros(n_hist + 1)
            out[::q] = v[::-1]
            return out

        w = params.weights
        slope = strided(w * ktp)
        slope[-1] += kt[0]
        slope[0] -= kt[-1]
        return _PsiDynamics(dt, q, n_hist, c[1:] / c[1:].sum(), slope, strided(w * eq.g.values))

    def conserved_weights(self) -> np.ndarray:
        """T_j / (1 - c_0) = sum_{i>j} a_i for j = 0..N-1: Q_n = T @ (psi_n, psi_{n-1}, ...) is conserved."""
        return np.cumsum(self.coef[::-1])[::-1]


class DelayState(NamedTuple):
    """The initial split: output scale M, psi history, the recurrence and its maps."""

    m: float
    buffer: HistoryBuffer
    dyn: _PsiDynamics


def init_delay_state(x0: GridFunction, eq: Equilibrium, params: ModelParams, dt: float) -> DelayState:
    """Split an admissible initial profile into (M, psi0) and fill the history.

    With r = x0/x* resampled onto the buffer grid by cubic Hermite
    interpolation, M = 1 + <T, r - 1>/<T, 1> is the discrete Pi(x0) on that
    grid: psi0 = r/M - 1 gives the conserved Q_0 = <T, psi0> = 0, which is
    what drives psi to zero, and r = 1 gives M = 1 exactly.  M is the output
    scale from which the scalar loop sets eta0 = log(M / y_ref(0)).  Raises
    ValueError unless dt divides the age step, and InvalidIC for an x0 that
    :func:`check_initial_condition` refuses.
    """
    check_initial_condition(x0, params)
    dyn = _PsiDynamics.build(eq, params, dt)
    ratio = x0.values / eq.x_star.values
    r = _on_buffer(ratio, fd4(ratio, 1.0), dyn.q)
    tail = dyn.conserved_weights()
    big_pi = 1.0 + float(tail @ (r[:-1] - 1.0)) / float(tail.sum())
    val = r[::-1] / big_pi - 1.0  # psi0 at t = -A, ..., 0
    return DelayState(big_pi, HistoryBuffer(-params.a_max, dt, val, fd4(val, dt)), dyn)


#: steps per block of :func:`_advance_psi`, each block one product of the
#: block propagator with the newest N stored values
PSI_BLOCK = 32


def _block_propagator(coef: np.ndarray, n_block: int) -> np.ndarray:
    """P of shape (n_block, N): P @ x are the next n_block values of psi_n = sum_j coef[j-1] psi_{n-j}.

    x holds the newest N stored values, oldest first.  Row k reads the
    stored values through coef shifted by k, and the k new values before it
    through rows < k (forward substitution).
    """
    n = len(coef)
    rev = coef[::-1]
    p = np.zeros((n_block, n))
    for k in range(n_block):
        lo, j0 = max(n - k, 0), max(k - n, 0)  # first read of a new value; that value's row
        p[k, k:] = rev[:lo]
        p[k] += rev[lo:] @ p[j0:k]
    return p


def _advance_psi(dyn: _PsiDynamics, buf: HistoryBuffer, n_steps: int) -> HistoryBuffer:
    """The history ``buf`` extended by ``n_steps`` steps of the recurrence.

    PSI_BLOCK steps at a time, through :func:`_block_propagator`.  Every
    block, the last one too, is the full product, so the nodes of a shorter
    run are those of a longer one bit for bit.  The slopes from t = 0 on
    are the delay equation's, one correlation; those before are ``buf``'s.
    """
    n = dyn.n_hist
    val = np.concatenate([buf.val, np.zeros(n_steps)])
    p = _block_propagator(dyn.coef, PSI_BLOCK)
    for m in range(len(buf.val), len(val), PSI_BLOCK):
        b = min(PSI_BLOCK, len(val) - m)
        val[m : m + b] = (p @ val[m - n : m])[:b]
    der = np.concatenate([buf.der[:n], np.correlate(val, dyn.slope, "valid")])
    return HistoryBuffer(buf.t0, dyn.dt, val, der)


def _delta_grid(dyn: _PsiDynamics, buf: HistoryBuffer) -> np.ndarray:
    """delta at t = (0, 1/2, 1, ..., n) dt, n steps past the history's first window.

    The node windows start at history node k (time t_k - A) and are one
    correlation; a half-node window is the Hermite midpoint of the windows
    of its two nodes, which takes one more correlation, of the slopes.
    Raises LogDomain at the earliest time where 1 + <g, psi window> <= 0.
    """
    node = np.correlate(buf.val, dyn.delta, "valid")
    slope = np.correlate(buf.der, dyn.delta, "valid")
    arg = np.empty(2 * len(node) - 1)
    arg[0::2] = node
    arg[1::2] = 0.5 * (node[:-1] + node[1:]) + (0.125 * dyn.dt) * (slope[:-1] - slope[1:])
    arg += 1.0
    bad = np.flatnonzero(arg <= 0)
    if bad.size:
        p = int(bad[0])
        raise LogDomain("1 + <g, psi window> = %g <= 0 at t = %g" % (arg[p], 0.5 * p * dyn.dt))
    return np.log(arg, out=arg)


def _node_windows(val: np.ndarray, n_hist: int, q: int) -> np.ndarray:
    """Row k is psi at t_k - a_j over the age nodes a_j: a strided view of ``val``, no copy.

    Trace node k at age node j is buffer index n_hist + k - q j.
    """
    return np.lib.stride_tricks.sliding_window_view(val, n_hist + 1)[:, ::-q]


#: rows per block of :meth:`OracleTrace.windows`.  At 401 ages a block and
#: each of the readers' temporaries on it (|block|, the decayed product,
#: log1p) are 26 kB; 64-row blocks raised a long run's peak memory.
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
    rule: tuple  # (ages, Simpson weights times kt) of the identity check's rule

    def windows(self, idx: np.ndarray):
        """Yield (rows, block), WINDOW_BLOCK rows at a time: block[r] is the stored psi at t[idx[rows][r]] - nodes."""
        n_hist = len(self.buffer.val) - len(self.t)
        view = _node_windows(self.buffer.val, n_hist, n_hist // (len(self.nodes) - 1))
        for j in range(0, len(idx), WINDOW_BLOCK):
            rows = slice(j, j + WINDOW_BLOCK)
            yield rows, view[idx[rows]]

    def ide_residual(self, t: float) -> float:
        """|psi(t) - int kt(a) psi(t - a) da| on a rule four times finer than the buffer grid.

        psi solves the identity to rounding on its own rule, so the check
        takes another: the kernel refined 4q-fold by :func:`grid.refined_rule`
        (at dt = h, the rule :func:`galerkin.characteristic_roots` polishes
        on), with psi read through Hermite.
        """
        ages, wk = self.rule
        return abs(float(self.buffer.eval(t)) - float(wk @ self.buffer.eval(t - ages)))

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

    windows = _node_windows(history.val, state.dyn.n_hist, state.dyn.q)
    snapshots = {}
    for i, t_i in snapshot_steps(snapshot_times, t, dt).items():
        scale = float(y_ref[i]) * math.exp(eta[i])
        snapshots[t_i] = GridFunction(eq.x_star.values * scale * (1.0 + windows[i]), params.a_max)

    ages_f, kt_f, w_f = refined_rule(eq.k_tilde, 4 * state.dyn.q)
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
        rule=(ages_f, w_f * kt_f),
    )
