"""Certificate constants and numerical verification of the decay estimates.

Builds every constant of the attractivity certificate (kernel contraction
constant, history decay rate, observer quadratic form, trajectory-dependent
rates, the combined functional's weights) and provides checkers that test
the claimed differential inequalities along simulated traces with an
explicitly estimated discretization slack.

The overshoot construction composes exponentials of exponentials; its
value overflows double precision for moderate arguments, so the envelope
comparisons are done in log space throughout.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .controller import ControllerGains
from .delay import OracleTrace
from .errors import B3Fail, InvalidTrajectory, NoFeasiblePair
from .grid import GridFunction, simpson_weights, tail_integral
from .model import Equilibrium, ModelParams
from .trajectories import ValidityReport


# ---------------------------------------------------------------------------
# kernel contraction and history decay rate


class KernelConstants(NamedTuple):
    sigma: float
    lambda_b3: float
    b3_value: float


def kernel_constants(k_tilde: GridFunction) -> KernelConstants:
    """The kernel's contraction constant and history decay rate, on one set-up.

    Both come from int_0^A e^{sigma a} |kt(a) - lam tail(a) / mean_age| da,
    tail(a) = int_a^A kt.  At sigma = 0 it is sum_j w_j |kt_j - lam c_j| with
    c_j = tail_j / mean_age >= 0: each node with c_j > 0 adds
    w_j c_j |r_j - lam|, r_j = kt_j / c_j, and the rest add a constant.  The
    sum is convex and piecewise linear in lam, so lambda_b3, its exact
    minimizer, is the weighted median of the r_j with weights w_j c_j (one
    of the r_j; nothing bounds it to a search range).  Raises B3Fail when
    the minimum is not below one.  sigma is the largest exponential
    weight keeping the integral at lambda_b3 below one: bisection, at most
    60 halvings, stopping early once the bracket no longer moves (adjacent
    floats), returning the last verified-feasible endpoint, so the returned
    rate strictly satisfies the inequality.  The integrand at lambda_b3 is
    built once; each step only reweights it.
    """
    kt, nodes = k_tilde.values, k_tilde.nodes
    tail = tail_integral(kt, k_tilde.h)
    w = simpson_weights(k_tilde.n, k_tilde.h)
    mean_age = float(w @ (nodes * kt))
    c = tail / mean_age
    pos = c > 0
    ratio = kt[pos] / c[pos]
    order = np.argsort(ratio, kind="stable")
    cum = np.cumsum((w * c)[pos][order])
    lam = float(ratio[order][np.searchsorted(cum, 0.5 * cum[-1])])
    integrand = np.abs(kt - lam * tail / mean_age)
    weighted = lambda sigma: float(w @ ((np.exp(sigma * nodes) if sigma else 1.0) * integrand))
    value = weighted(0.0)  # below one, sigma = 0 is feasible
    if value >= 1.0:
        raise B3Fail("kernel contraction minimum %.6f >= 1" % value)
    lo, hi = 0.0, 1.0
    while weighted(hi) < 1.0:
        hi *= 2.0
        if hi > 64.0:
            break
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        bracket = (mid, hi) if weighted(mid) < 1.0 else (lo, mid)
        if bracket == (lo, hi):
            break  # each step is a function of (lo, hi): the rest would repeat it
        lo, hi = bracket
    return KernelConstants(lo, lam, value)


# ---------------------------------------------------------------------------
# observer quadratic form


class ObserverQuadratic(NamedTuple):
    p1: float
    p2: float
    k1: float
    k2: float
    k1_tilde: float
    k2_tilde: float
    beta1: float
    beta2: float


def quadratic_pair_feasible(l1: float, l2: float, p1, p2):
    """The two shape inequalities on (p1, p2) for gains (l1, l2); elementwise on arrays."""
    return (p1 * p1 < 4.0 * p2) & (
        (2.0 + l1 * p1 - 2.0 * l2 * p2) ** 2 < 8.0 * l1 * p1 - 4.0 * l2 * p1 * p1
    )


def _sym2_eigs(a11, a12, a22):
    tr = a11 + a22
    disc = np.sqrt(np.maximum((a11 - a22) ** 2 + 4.0 * a12 * a12, 0.0))
    return 0.5 * (tr - disc), 0.5 * (tr + disc)


#: cells per chunk of :func:`observer_quadratic`'s band, as many as 25 rows
#: of the whole grid; a chunk's dozen temporaries stay near 40 kB each
OQ_CHUNK = 5000


#: gains pairs whose observer form is kept; a sweep over many gains would
#: otherwise keep about 1 kB per pair for the life of the process
OQ_MEMO = 16

#: points per axis of :func:`observer_quadratic`'s logarithmic grid
OQ_GRID = 200


@functools.lru_cache(maxsize=OQ_MEMO)
def observer_quadratic(l1: float, l2: float) -> ObserverQuadratic:
    """Grid-search a feasible (p1, p2), maximizing the observer decay rate.

    Exhaustive logarithmic grid over (0, 2] x (0, 4]; both 2x2 forms must
    be positive definite, and the returned pair maximizes
    beta1 = min_eig(P~) / (4 max_eig(P)), at its first occurrence in
    row-major order.  For each p1 the shape inequalities leave p2 one
    interval, |2 + l1 p1 - 2 l2 p2| < sqrt(8 l1 p1 - 4 l2 p1^2) with
    p2 > p1^2 / 4, so only the cells of that band, with one cell of margin
    on each side for the rounding of its edges, are evaluated, OQ_CHUNK
    cells at a time in row-major order; every cell outside it fails a
    shape inequality.  Memoized for the last OQ_MEMO gain pairs: the form
    depends on the gains only.
    """
    for key, value in (("l1", l1), ("l2", l2)):
        if not value > 0:
            raise ValueError("%s: must be positive, got %g" % (key, value))
    p1g = np.geomspace(1e-2, 2.0, OQ_GRID)
    p2g = np.geomspace(1e-2, 4.0, OQ_GRID)
    disc = 8.0 * l1 * p1g - 4.0 * l2 * p1g * p1g  # as quadratic_pair_feasible computes it
    root = np.sqrt(np.maximum(disc, 0.0))
    lo_edge = np.maximum((2.0 + l1 * p1g - root) / (2.0 * l2), p1g * p1g / 4.0)
    hi_edge = (2.0 + l1 * p1g + root) / (2.0 * l2)
    lo = np.maximum(np.searchsorted(p2g, lo_edge, side="right") - 1, 0)
    hi = np.minimum(np.searchsorted(p2g, hi_edge, side="left") + 1, OQ_GRID)
    counts = np.where(disc > 0, np.maximum(hi - lo, 0), 0)  # no p2 passes where disc <= 0
    ends = np.cumsum(counts)
    first = lo - (ends - counts)  # band cell j lies in column j + first[row]
    n_cells = int(ends[-1])
    best = None  # (beta1, p1, p2, k1, k2, kt1, kt2) at the best cell so far
    for start in range(0, n_cells, OQ_CHUNK):
        cell = np.arange(start, min(start + OQ_CHUNK, n_cells))
        row = np.searchsorted(ends, cell, side="right")
        P1, P2 = p1g[row], p2g[cell + first[row]]
        feas = quadratic_pair_feasible(l1, l2, P1, P2)
        k1, k2 = _sym2_eigs(np.ones_like(P1), -P1 / 2.0, P2)
        kt1, kt2 = _sym2_eigs(2.0 * l1 - l2 * P1, l2 * P2 - l1 * P1 / 2.0 - 1.0, P1)
        feas &= (k1 > 0) & (kt1 > 0)
        if not feas.any():
            continue
        beta1 = np.where(feas, kt1 / (4.0 * k2), -np.inf)
        i = int(np.argmax(beta1))
        if best is None or beta1[i] > best[0]:
            best = tuple(float(a[i]) for a in (beta1, P1, P2, k1, k2, kt1, kt2))
    if best is None:
        raise NoFeasiblePair("no (p1, p2) satisfies the shape inequalities for l = (%g, %g)" % (l1, l2))
    beta1, p1, p2, k1, k2, kt1, kt2 = best
    b2 = ((2 * l1 - l2 * p1) ** 2 + (l1 * p1 - 2 * l2 * p2) ** 2) / (2.0 * kt1)
    return ObserverQuadratic(
        p1=p1, p2=p2, k1=k1, k2=k2, k1_tilde=kt1, k2_tilde=kt2, beta1=beta1, beta2=b2
    )


# ---------------------------------------------------------------------------
# certificate


@dataclass(frozen=True)
class Certificate:
    """All constants of the attractivity estimate, plus evaluation context."""

    sigma: float
    lambda_b3: float
    b3_value: float
    p1: float
    p2: float
    k1: float
    k2: float
    k1_tilde: float
    k2_tilde: float
    beta1: float
    beta2: float
    beta: float
    big_m: float
    alpha1: float
    alpha2: float
    mu1: float
    mu2: float
    l_rate: float
    d_star: float
    a_max: float
    gamma: float
    l1: float
    l2: float

    def validate(self):
        """Machine-check every certificate invariant; raises on violation."""
        if not quadratic_pair_feasible(self.l1, self.l2, self.p1, self.p2):
            raise ValueError("(p1, p2) violates the shape inequalities")
        if not self.big_m * self.sigma > self.beta2 * math.exp(2 * self.sigma * self.a_max):
            raise ValueError("history weight too small: M sigma <= beta2 e^{2 sigma A}")
        if not self.b3_value < 1.0:
            raise ValueError("kernel contraction value >= 1")
        if self.alpha1 < overshoot_floor(self.k1, self.big_m):
            raise ValueError("alpha1 below the overshoot-construction floor")
        positives = tuple(v for k, v in self.as_dict().items() if k not in ("b3_value", "d_star"))
        if not all(v > 0 for v in positives):
            raise ValueError("certificate constant not strictly positive: %s" % (positives,))

    def as_dict(self) -> dict:
        """The constants, sigma through d_star in field order; the evaluation context stays out."""
        keys = [f.name for f in fields(self)]
        return {k: getattr(self, k) for k in keys[: keys.index("d_star") + 1]}


class RateConstants(NamedTuple):
    mu1: float
    mu2: float
    beta: float
    l_rate: float
    alpha1: float
    big_m: float


#: relative margin on alpha1 above its lower bound
ALPHA1_MARGIN = 1.1


def overshoot_floor(k1: float, big_m: float) -> float:
    """The least alpha1 of the overshoot construction, 2 / min(sqrt k1, sqrt(M/2)), as built and as checked."""
    return 2.0 / min(math.sqrt(k1), math.sqrt(big_m / 2.0))


def rate_constants(
    validity: ValidityReport,
    eq: Equilibrium,
    gains: ControllerGains,
    oq: ObserverQuadratic,
    sigma: float,
    params: ModelParams,
) -> RateConstants:
    """The reference part: rate-band decay constants and the functional weights.

    The history weight M carries a factor-two margin over its constraint;
    alpha1 takes a ten-percent margin over its bound plus the floor needed
    by the overshoot construction.  Raises InvalidTrajectory when the rate
    band is violated (mu1 <= 0).
    """
    d_span = params.d_max - params.d_min
    mu1 = min(2.0, gains.gamma) * min(
        1.0,
        (eq.d_star - params.d_min) - validity.sup_rate,
        (params.d_max - eq.d_star) + validity.inf_rate,
    )
    if mu1 <= 0:
        raise InvalidTrajectory(
            "trajectory rate band violated (inf %.4f, sup %.4f)" % (validity.inf_rate, validity.sup_rate)
        )
    mu2 = 8.0 * d_span / gains.gamma
    e2sa = math.exp(2.0 * sigma * params.a_max)
    big_m = 2.0 * oq.beta2 * e2sa / sigma
    beta = min(oq.beta1, sigma - e2sa * oq.beta2 / big_m)
    bound = (8.0 * d_span / beta) * (
        1.0 / (gains.gamma * math.sqrt(oq.k1)) + math.sqrt(2.0) * math.exp(sigma * params.a_max) / math.sqrt(big_m)
    )
    alpha1 = max(ALPHA1_MARGIN * bound, overshoot_floor(oq.k1, big_m))
    l_rate = min(beta - (bound * beta) / alpha1, mu1)
    return RateConstants(mu1, mu2, beta, l_rate, alpha1, big_m)


def build_certificate(
    validity: ValidityReport,
    eq: Equilibrium,
    gains: ControllerGains,
    params: ModelParams,
    kernel: KernelConstants | None = None,
) -> Certificate:
    """The kernel, gains and reference parts, in that order, checked as one certificate.

    ``kernel`` is ``kernel_constants(eq.k_tilde)`` where the caller holds it.
    """
    if kernel is None:
        kernel = kernel_constants(eq.k_tilde)
    oq = observer_quadratic(gains.l1, gains.l2)
    rc = rate_constants(validity, eq, gains, oq, kernel.sigma, params)
    cert = Certificate(
        **kernel._asdict(),
        **oq._asdict(),
        **rc._asdict(),
        alpha2=1.0,
        d_star=eq.d_star,
        a_max=params.a_max,
        gamma=gains.gamma,
        l1=gains.l1,
        l2=gains.l2,
    )
    cert.validate()
    return cert


# ---------------------------------------------------------------------------
# functional evaluation


def sample_clf(trace: OracleTrace, cert: Certificate, stride: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the history-form functional along an oracle trace."""
    idx = np.arange(0, len(trace.t), stride)
    w_norms, floors = window_norms(trace, cert.sigma, stride)
    eta = trace.eta[idx]
    e1 = trace.z1[idx] - eta
    e2 = trace.z2[idx] - cert.d_star
    ratio = w_norms / floors
    q = e1 * e1 - cert.p1 * e1 * e2 + cert.p2 * e2 * e2 + 0.5 * cert.big_m * (ratio * ratio)
    return trace.t[idx], eta * eta + cert.alpha1 * np.sqrt(q) + cert.alpha2 * q


def window_norms(trace: OracleTrace, sigma: float, stride: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """History norm W = max e^{-sigma a}|psi| and floor C = 1 + min(0, min psi).

    Sampled at every stride-th time of the trace, as :func:`sample_clf` and
    :func:`check_history_decay` read them.
    """
    idx = np.arange(0, len(trace.t), stride)
    decay = np.exp(-sigma * trace.nodes)
    ws, cs = np.zeros((2, len(idx)))
    for rows, block in trace.windows(idx):
        ws[rows] = np.max(decay * np.abs(block), axis=1)
        cs[rows] = 1.0 + np.minimum(0.0, block.min(axis=1))
    return ws, cs


# ---------------------------------------------------------------------------
# decay verification


@dataclass(frozen=True)
class DecayReport:
    n_samples: int
    n_violations: int
    slack: float
    integrated_ok: bool
    n_nonfinite: int  # forward differences that are not finite, each a violation

    @property
    def passed(self) -> bool:
        return self.n_violations == 0 and self.integrated_ok


#: absolute slack added to every forward-difference comparison
DECAY_ABS_EPS = 1e-12


def verify_decay(
    times: np.ndarray,
    values: np.ndarray,
    l_rate: float,
    values_half: np.ndarray | None = None,
) -> DecayReport:
    """Check the decay differential inequality along a sampled trace.

    The forward difference stands in for the one-sided derivative; its
    discretization error is charged as a slack linear in the integrator
    step, estimated from a step-halved rerun of the same scenario sampled
    on the same grid: the halving surrogate differs from the full-step one
    by half the error, so the slack is twice their largest gap (fallback:
    second differences of the trace itself).  The integrated decay
    envelope is checked in log space to dodge the overflow of its closed
    form.  A comparison that is not true, as with a NaN sample or slack,
    and a forward difference that is not finite count as violations.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sample is counted, not warned about
        surr = np.diff(values) / np.diff(times)
        rhs = -l_rate * values[:-1] / (1.0 + np.sqrt(np.maximum(values[:-1], 0.0)))
        if values_half is not None:
            surr_half = np.diff(np.asarray(values_half, dtype=float)) / np.diff(times)
            slack = 2.0 * float(np.max(np.abs(surr - surr_half)))
        else:
            dd = np.abs(np.diff(values, 2))
            slack = float(dd.max()) / (2.0 * (times[1] - times[0])) if len(dd) else 0.0
        slack += DECAY_ABS_EPS
        nonfinite = ~np.isfinite(surr)
        bad = ~(surr <= rhs + slack) | nonfinite
    v0 = values[0]
    log_bound = math.log(max(v0, 1e-300)) + max(0.0, v0 - 1.0) - 0.5 * l_rate * times
    live = values > 1e-290  # numerically-zero samples satisfy any envelope
    integrated_ok = bool(
        np.all(np.log(np.maximum(values[live], 1e-300)) <= log_bound[live] + 1e-9)
    )
    return DecayReport(
        n_samples=len(surr),
        n_violations=int(bad.sum()),
        slack=slack,
        integrated_ok=integrated_ok,
        n_nonfinite=int(nonfinite.sum()),
    )


# ---------------------------------------------------------------------------
# history-decay diagnostics along oracle traces


@dataclass(frozen=True)
class HistoryDecayReport:
    w0: float
    w_monotone: bool
    w_envelope: bool
    c_monotone: bool
    floor_positive: bool

    @property
    def passed(self) -> bool:
        return self.w_monotone and self.w_envelope and self.c_monotone and self.floor_positive


#: relative tolerance of the history norm's monotonicity and envelope checks
HISTORY_REL_TOL = 1e-3
#: absolute tolerance of those checks, as a multiple of the initial norm
HISTORY_ABS_TOL_SCALE = 1e-5


def check_history_decay(trace: OracleTrace, sigma: float, stride: int = 10) -> HistoryDecayReport:
    """Sliding-norm decay and floor monotonicity of the internal coordinate.

    The weighted history norm must decay pairwise at rate sigma and never
    increase; the floor functional 1 + min(0, min psi) must never decrease
    (that is what keeps the reconstruction positive).  Absolute tolerances
    are scaled to the initial norm: the trace resolves psi only down to its
    integration floor.
    """
    ws, cs = window_norms(trace, sigma, stride)
    ts = trace.t[::stride]
    abs_tol = HISTORY_ABS_TOL_SCALE * ws[0] + 1e-15
    w_monotone = bool(np.all(np.diff(ws) <= HISTORY_REL_TOL * ws[:-1] + abs_tol))
    # pairwise s <= t check via the running minimum of W e^{sigma t}
    grown = ws * np.exp(sigma * ts)
    running = np.minimum.accumulate(grown)
    w_envelope = bool(
        np.all(ws <= np.exp(-sigma * ts) * running * (1.0 + HISTORY_REL_TOL) + abs_tol)
    )
    c_monotone = bool(np.all(np.diff(cs) >= -1e-6))
    return HistoryDecayReport(
        w0=float(ws[0]),
        w_monotone=w_monotone,
        w_envelope=w_envelope,
        c_monotone=c_monotone,
        floor_positive=bool(np.all(cs > 0)),
    )


# ---------------------------------------------------------------------------
# overshoot construction


def kappa_psi(z: float) -> float:
    return math.exp(2.0 * z) * (math.exp(2.0 * z) - 1.0)


def kappa_q(z: float, cert: Certificate) -> float:
    return (cert.k2 + cert.big_m / 2.0) * (z + kappa_psi(z)) ** 2


def kappa_v(z: float, cert: Certificate) -> float:
    q = kappa_q(z, cert)
    return z * z + cert.alpha1 * math.sqrt(q) + cert.alpha2 * q


def overshoot_log_bound(varsigma0: float, e0_norm: float, cert: Certificate) -> float:
    """log of the overshoot gain; -inf at zero initial data."""
    if varsigma0 < 0 or e0_norm < 0:
        raise ValueError("initial magnitudes must be nonnegative")
    arg = varsigma0 + e0_norm
    if arg == 0.0:
        return -math.inf
    v = kappa_v(arg, cert)
    return cert.sigma * cert.a_max + math.log(math.sqrt(v) + v) + max(0.0, v - 1.0)


def check_envelope(
    trace: OracleTrace, cert: Certificate, stride: int = 10
) -> tuple[bool, float]:
    """Check the attractivity envelope along a trace, in log space.

    Returns (never crossed, worst log margin); the margin is the smallest
    value of log(envelope) - log(measured).
    """
    idx = np.arange(0, len(trace.t), stride)
    e_norm = np.hypot(trace.z1[idx] - trace.eta[idx], trace.z2[idx] - cert.d_star)
    # largest |log profile ratio| = max |eta + log(1 + psi)| over the window
    spread = np.zeros(len(idx))
    for rows, block in trace.windows(idx):
        spread[rows] = np.max(np.abs(trace.eta[idx[rows], None] + np.log1p(block)), axis=1)
    measured = spread + e_norm
    log_bound0 = overshoot_log_bound(float(spread[0]), float(e_norm[0]), cert)
    log_env = log_bound0 - 0.25 * cert.l_rate * trace.t[idx]
    margins = log_env - np.log(np.maximum(measured, 1e-300))
    return bool(np.all(margins >= 0.0)), float(np.min(margins))


# ---------------------------------------------------------------------------
# saturation inequality property check


class FactReport(NamedTuple):
    n_samples: int
    n_violations: int


#: samples per block of the saturation check, small enough that each
#: temporary array is served from the heap rather than fresh mappings
FACT_BLOCK = 1 << 12

#: step of :func:`saturation_triples`' 3-D Kronecker sequence: the powers of
#: 1/phi, phi the real root of x^4 = x + 1 (Niederreiter, SIAM 1992)
FACT_STEP = 1.2207440846057596 ** -np.arange(1.0, 4.0)


def saturation_triples(lo: int, hi: int) -> np.ndarray:
    """Rows z, a, b of the check's triples lo..hi-1, a function of k alone.

    Triple k is u = frac((k + 1) FACT_STEP) mapped to z = 50 (2 u0 - 1)^3,
    dense near zero, and a, b = 10^(6 u - 3).
    """
    u = FACT_STEP[:, None] * np.arange(lo + 1.0, hi + 1.0)
    u -= np.floor(u)
    s = 2.0 * u[0] - 1.0
    return np.vstack([50.0 * (s * s * s), 10.0 ** (6.0 * u[1:] - 3.0)])


@functools.cache
def saturation_fact_check(n_samples: int = 1_000_000) -> FactReport:
    """Check z sat_{[-a,b]}(z) >= min(1,a,b) z^2 / (1+|z|) on a Kronecker sequence.

    The triples are :func:`saturation_triples`, taken FACT_BLOCK (4,096, so
    32 kB per float array) at a time.  A pure function of its argument, so
    each check runs once per process.
    """
    n_bad = 0
    for lo in range(0, n_samples, FACT_BLOCK):
        z, a, b = saturation_triples(lo, min(lo + FACT_BLOCK, n_samples))
        sat = np.minimum(b, np.maximum(-a, z))
        lhs = z * sat
        rhs = np.minimum(1.0, np.minimum(a, b)) * z * z / (1.0 + np.abs(z))
        tol = 1e-12 * np.maximum(1.0, np.abs(rhs))
        n_bad += int(np.sum(rhs - lhs > tol))
    return FactReport(n_samples, n_bad)
