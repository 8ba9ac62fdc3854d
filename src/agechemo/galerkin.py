"""Finite-order simulation route built on a spectral trial bank.

The trial functions are the initial profile, the equilibrium profile, and
real/imaginary parts of the slow eigenmodes of the population semigroup.
Those eigenmodes are exact solutions of the renewal characteristic equation

    int_0^A kt(a) e^{-s a} da = 1,

whose nontrivial roots come in complex-conjugate pairs with negative real
parts; the mode shapes are e^{-s a} x*(a).  With the equilibrium direction
and the eigen-directions inside the span, the modal system reproduces the
steady state and the dominant transients exactly, and the dilution input
enters as an exact scalar multiple of the identity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .controller import ControllerGains, ScalarLoop, snapshot_steps
from .errors import (
    DependentBasis,
    Instability,
    NonPositiveOutput,
    RootSearchExhausted,
    ValidationError,
)
from .grid import GridFunction, fd4, refined_rule
from .model import Equilibrium, ModelParams, check_initial_condition
from .trajectories import Trajectory

#: Chebyshev-Lobatto collocation degree of the delay-equation generator
COLLOCATION_N = 64
ROOT_RESIDUAL_TOL = 1e-8
GRAM_COND_LIMIT = 1e12

_DEDUP_DIST = 1e-4
_ALIAS_RESIDUAL_TOL = 5e-2
#: Newton steps per eigenvalue; resolved eigenvalues converge in a few, and
#: spurious high-frequency ones are dropped after this many
_POLISH_ITERS = 10
#: damping below which a Newton step counts as failed and the start is
#: dropped; converging starts never damp below 1/8, while a spurious one
#: would otherwise halve its step thirty times per iterate
_POLISH_MIN_DAMPING = 2.0**-10
#: right edge of the certified box: with k_tilde >= 0 integrating to one, no
#: root has Re s > 0, and s = 0 sits 0.5 inside the edge
_CERT_SIGMA_HI = 0.5
#: left margin below the last kept pair when no further root was found
_CERT_MARGIN = 1.0
#: bisections of the contour sampling before the phase is declared unresolved
_CERT_REFINE_ROUNDS = 24
#: elements per transient block of the quadrature sums (64 kB as complex),
#: small enough to be served from the heap rather than fresh mappings
_CHUNK = 1 << 12


class CertifiedRoots(list):
    """Characteristic roots, with the box in which their count was certified.

    The argument principle found exactly ``len(self)`` roots of the refined
    rule in ``sigma_lo <= Re s <= 0.5``, ``|Im s| <= omega_cap``.
    """

    def __init__(self, roots, sigma_lo: float, omega_cap: float):
        super().__init__(roots)
        self.sigma_lo = sigma_lo
        self.omega_cap = omega_cap


def _char_values(s, wk: np.ndarray, nodes: np.ndarray):
    """int kt e^{-s a} da - 1 at a point s or at many, as chunked sums (wk = w * kt)."""
    pts = np.atleast_1d(s)
    out = np.empty(len(pts), dtype=complex)
    rows = max(1, _CHUNK // len(nodes))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(pts), rows):
            block = np.outer(pts[lo : lo + rows], -nodes)
            out[lo : lo + rows] = np.exp(block, out=block) @ wk
    out -= 1.0
    return out if np.ndim(s) else complex(out[0])


def _collocation_eigenvalues(eq: Equilibrium, params: ModelParams) -> np.ndarray:
    """Eigenvalues of the pseudospectral generator of the delay equation.

    The state psi on [-A, 0] is collocated at Chebyshev-Lobatto points
    theta_j (theta_0 = 0, theta_N = -A).  Rows 1..N differentiate; row 0 is
    the delay equation psi'(0) = kt(0) psi(0) - kt(A) psi(-A) +
    int kt'(a) psi(-a) da, its integral taken on the native grid against the
    barycentric Lagrange basis.  The characteristic function is
    s (1 - int kt e^{-s a}), so the eigenvalues approximate the roots plus a
    second one at s = 0 (Breda, Maset & Vermiglio, SIAM J. Sci. Comput. 27,
    2005).
    """
    n = COLLOCATION_N
    j = np.arange(n + 1)
    x = np.sin(np.pi * (n - 2 * j) / (2 * n))  # cos(j pi / n), exactly symmetric
    ends = np.where((j == 0) | (j == n), 2.0, 1.0)
    c = ends * (-1.0) ** j
    dx = x[:, None] - x[None, :] + np.eye(n + 1)
    d = np.outer(c, 1.0 / c) / dx
    d -= np.diag(d.sum(axis=1))
    gen = (2.0 / params.a_max) * d

    bary = (-1.0) ** j / ends  # barycentric weights of the Lobatto points
    y = 1.0 - 2.0 * params.nodes / params.a_max  # x-coordinate of theta = -a
    wkp = params.weights * eq.k_tilde_prime.values
    kt = eq.k_tilde.values
    row = np.zeros(n + 1)
    row[0], row[n] = kt[0], -kt[-1]
    step = max(1, _CHUNK // (n + 1))
    for lo in range(0, len(y), step):
        diff = y[lo : lo + step, None] - x[None, :]
        hit = diff == 0.0
        terms = bary / np.where(hit, 1.0, diff)
        basis = terms / terms.sum(axis=1, keepdims=True)
        on_node = hit.any(axis=1)
        basis[on_node] = hit[on_node]
        row += wkp[lo : lo + step] @ basis
    gen[0] = row
    return np.linalg.eigvals(gen)


def _polish(s: complex, kt: np.ndarray, nodes: np.ndarray, w: np.ndarray, wa: np.ndarray):
    """Damped Newton from s on the rule (nodes, w); the root, or None.

    One exponential per iterate serves both the residual and the slope
    (wa = w * nodes); gives up after _POLISH_ITERS steps, or once a step
    has to be damped below _POLISH_MIN_DAMPING to reduce |f|.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        v = kt * np.exp(-s * nodes)
        f = complex(w @ v) - 1.0
        for _ in range(_POLISH_ITERS):
            if not np.isfinite(abs(f)):
                return None
            if abs(f) < 1e-13:
                return s
            slope = -complex(wa @ v)
            if slope == 0 or not np.isfinite(abs(slope)):
                return None
            step = f / slope
            lam = 1.0
            while True:
                s_try = s - lam * step
                v = kt * np.exp(-s_try * nodes)
                f_try = complex(w @ v) - 1.0
                if np.isfinite(abs(f_try)) and abs(f_try) < abs(f):
                    break
                lam *= 0.5
                if lam < _POLISH_MIN_DAMPING:
                    return None
            s, f = s_try, f_try
    return s if abs(f) < 1e-13 else None


def _polish_roots(eigs, needed, kt_f, nodes_f, w_f, wk, nodes, omega_cap) -> list[complex]:
    """Distinct roots in 0 < Im s <= omega_cap polished from the eigenvalues.

    Starts run in order of decreasing real part, and stop once needed + 1
    roots are known and the eigenvalues fall below the last of them; a
    converged point is kept unless the native-grid rule rejects it as a
    refinement alias.  Sorted by decreasing real part.
    """
    wa_f = w_f * nodes_f
    found: list[complex] = []
    for z in sorted((z for z in eigs if z.imag > 0), key=lambda z: -z.real):
        if len(found) > needed and z.real < found[needed].real:
            break
        s = _polish(complex(z), kt_f, nodes_f, w_f, wa_f)
        if s is None or s.imag <= 1e-6 or s.imag > omega_cap:
            continue
        if abs(_char_values(s, wk, nodes)) > _ALIAS_RESIDUAL_TOL:
            continue  # not a root of the native-grid kernel: an alias
        if all(abs(s - r) >= _DEDUP_DIST for r in found):
            found.append(s)
            found.sort(key=lambda r: -r.real)
    return found


def _winding_number(wk: np.ndarray, nodes: np.ndarray, sigma_lo: float, omega_cap: float) -> int:
    """Roots of int kt e^{-s a} - 1 inside [sigma_lo, 0.5] x [-omega_cap, omega_cap].

    Argument principle (Delves & Lyness, Math. Comp. 21, 1967) on the
    counter-clockwise boundary.  On a vertical edge F is a DFT in omega,
    taken with one zero-padded real FFT at spacing pi/(4A) or finer; the
    horizontal edges are direct sums, the lower one the conjugate of the
    upper.  Segments whose phase step reaches pi/2 are bisected; raises
    RootSearchExhausted if that does not resolve them.
    """
    h = nodes[1] - nodes[0]
    m_fft = 1 << int(math.ceil(math.log2(8 * (len(nodes) - 1))))
    d_omega = 2 * math.pi / (m_fft * h)
    n_in = int(math.ceil(omega_cap / d_omega))  # samples 0..n_in-1 lie below the cap
    omegas = d_omega * np.arange(n_in)

    def vertical(sigma: float) -> np.ndarray:
        half = np.fft.rfft(wk * np.exp(-sigma * nodes), n=m_fft)[:n_in] - 1.0
        return np.concatenate([half[:0:-1].conj(), half])  # omega ascending

    n_top = int(math.ceil((_CERT_SIGMA_HI - sigma_lo) / d_omega)) + 1
    top_pts = np.linspace(_CERT_SIGMA_HI, sigma_lo, n_top) + 1j * omega_cap
    top = _char_values(top_pts, wk, nodes)
    axis = np.concatenate([-omegas[:0:-1], omegas])
    pts = np.concatenate(
        [
            _CERT_SIGMA_HI + 1j * axis,
            top_pts,
            sigma_lo + 1j * axis[::-1],
            top_pts[::-1].conj(),
        ]
    )
    vals = np.concatenate([vertical(_CERT_SIGMA_HI), top, vertical(sigma_lo)[::-1], top[::-1].conj()])
    for _ in range(_CERT_REFINE_ROUNDS):
        if not np.all(np.isfinite(vals)) or np.any(vals == 0):
            break
        steps = np.angle(np.roll(vals, -1) / vals)
        bad = np.flatnonzero(np.abs(steps) >= 0.5 * math.pi)
        if len(bad) == 0:
            return int(round(steps.sum() / (2 * math.pi)))
        mids = 0.5 * (pts[bad] + pts[(bad + 1) % len(pts)])
        pts = np.insert(pts, bad + 1, mids)
        vals = np.insert(vals, bad + 1, _char_values(mids, wk, nodes))
    raise RootSearchExhausted(
        "argument principle: phase unresolved on the contour at Re s = %.4g" % sigma_lo
    )


def characteristic_roots(eq: Equilibrium, params: ModelParams, count: int) -> list[complex]:
    """Trivial root plus the count/2 - 1 conjugate pairs with largest real parts.

    One eigen-solve of the collocated delay-equation generator gives
    candidates; damped Newton polishes them on a four-fold refined
    quadrature (smooth resampling of the kernel), so the returned roots
    carry continuum accuracy rather than the native grid's
    oscillatory-quadrature shift, and candidates are re-checked on the
    native grid to reject refinement aliases.  The argument principle then
    certifies that no root was missed: the count of roots in the box
    between s = 0 and midway to the next root, |Im s| <= pi/(4h), must
    equal the count returned.  Raises RootSearchExhausted when too few
    pairs are found, a residual check fails, or the count disagrees.
    """
    if count % 2 != 0 or count < 4:
        raise ValueError("count must be even and >= 4")
    kt = eq.k_tilde.values
    nodes = params.nodes
    wk = params.weights * kt
    omega_cap = math.pi / (4 * params.h)

    nodes_f, kt_f, w_f = refined_rule(eq.k_tilde, 4)
    wk_f = w_f * kt_f

    pairs_needed = count // 2 - 1
    eigs = _collocation_eigenvalues(eq, params)
    found = _polish_roots(eigs, pairs_needed, kt_f, nodes_f, w_f, wk, nodes, omega_cap)
    kept = found[:pairs_needed]
    roots: list[complex] = [0.0 + 0.0j]
    for s in kept:
        roots.extend([s, s.conjugate()])
    for r in roots:
        # the trivial root is pinned by the native-grid normalization (that
        # is where the equilibrium dilution rate was solved); nontrivial
        # roots were determined on the refined rule
        residual = _char_values(r, wk, nodes) if r == 0 else _char_values(r, wk_f, nodes_f)
        if abs(residual) >= ROOT_RESIDUAL_TOL:
            raise RootSearchExhausted("root %s failed the residual check" % r)

    last = kept[-1].real if kept else 0.0
    sigma_lo = 0.5 * (last + found[pairs_needed].real) if len(found) > pairs_needed else last - _CERT_MARGIN
    winding = _winding_number(wk_f, nodes_f, sigma_lo, omega_cap)
    if len(kept) < pairs_needed:
        # every eigenvalue was polished; with no other root in the box, the
        # missing pairs lie above the frequency cap the grid resolves
        if winding == len(roots):
            raise ValidationError(
                "[numerics] age_nodes: %d nodes resolve %d of the %d conjugate pairs "
                "needed below the frequency cap pi/(4h) = %.4g; use more age nodes "
                "or fewer modes" % (len(nodes), len(kept), pairs_needed, omega_cap)
            )
        raise RootSearchExhausted("found %d conjugate pairs, need %d" % (len(kept), pairs_needed))
    if winding != len(roots):
        raise RootSearchExhausted(
            "argument principle counts %d roots in Re s >= %.4g, |Im s| <= %.4g; "
            "the search kept %d" % (winding, sigma_lo, omega_cap, len(roots))
        )
    return CertifiedRoots(roots, sigma_lo, omega_cap)


@dataclass(frozen=True)
class GalerkinBasis:
    """Trial bank: x0, x*, then cosine/sine mode shapes per conjugate pair, one per row."""

    trial_matrix: np.ndarray = field(repr=False)
    derivative_matrix: np.ndarray = field(repr=False)


def build_basis(
    x0: GridFunction,
    eq: Equilibrium,
    roots: list[complex],
    n_modes: int,
    params: ModelParams,
) -> GalerkinBasis:
    """Assemble the trial functions and their derivatives at the nodes.

    Mode shapes use the envelope exponent -s (the eigen-shape of the root
    s), which also makes them exactly compatible with the non-local
    boundary condition in the continuum.  x0's derivative is the only one
    obtained by grid differentiation.  Raises InvalidIC for an x0 that
    :func:`check_initial_condition` refuses, as the delay route does.
    """
    if n_modes % 2 != 0 or n_modes < 4:
        raise ValueError("n_modes must be even and >= 4")
    check_initial_condition(x0, params)
    a = params.nodes
    xs = eq.x_star.values
    xs_prime = -(params.mu.values + eq.d_star) * xs
    rows = [x0.values, xs]
    drows = [fd4(x0.values, params.h), xs_prime]
    pairs = [r for r in roots if r.imag > 0]
    if len(pairs) < n_modes // 2 - 1:
        raise RootSearchExhausted("not enough conjugate pairs for n_modes = %d" % n_modes)
    for s in pairs[: n_modes // 2 - 1]:
        q = -s.real  # envelope growth rate
        om = abs(s.imag)
        env = np.exp(q * a)
        c, sn = np.cos(om * a), np.sin(om * a)
        rows.append(c * env * xs)
        drows.append(((q * c - om * sn) * env) * xs + (c * env) * xs_prime)
        rows.append(sn * env * xs)
        drows.append(((q * sn + om * c) * env) * xs + (sn * env) * xs_prime)
    Phi = np.asarray(rows)
    dPhi = np.asarray(drows)

    w = params.weights
    gram = (Phi * w) @ Phi.T
    scale = np.sqrt(np.diag(gram))
    corr = gram / np.outer(scale, scale)
    cond = float(np.linalg.cond(corr))
    if not np.isfinite(cond) or cond > GRAM_COND_LIMIT:
        raise DependentBasis("trial Gram condition number %.3g exceeds %g" % (cond, GRAM_COND_LIMIT))

    return GalerkinBasis(Phi, dPhi)


@dataclass
class GalerkinSystem:
    """Modal system: mass matrix, output vector, initial weights, flow matrix M^-1 N."""

    m_matrix: np.ndarray
    p_vector: np.ndarray
    lam: np.ndarray
    a_matrix: np.ndarray = field(repr=False)


def assemble(basis: GalerkinBasis, params: ModelParams) -> GalerkinSystem:
    """Build M = <phi, phi^T>, N = -<phi, phi' + mu phi>, p = <p, phi>.

    M is factorized once: the modal flow matrix M^-1 N is cached since the
    dilution input enters as a scalar multiple of the identity.
    """
    Phi, dPhi = basis.trial_matrix, basis.derivative_matrix
    w = params.weights
    m = (Phi * w) @ Phi.T
    n_mat = -((Phi * w) @ dPhi.T + (Phi * (w * params.mu.values)) @ Phi.T)
    p_vec = (Phi * w) @ params.p.values
    try:
        np.linalg.cholesky(0.5 * (m + m.T))
    except np.linalg.LinAlgError as exc:
        raise DependentBasis("mass matrix is not positive definite") from exc
    lam0 = np.zeros(len(Phi))
    lam0[0] = 1.0
    return GalerkinSystem(
        m_matrix=m,
        p_vector=p_vec,
        lam=lam0,
        a_matrix=np.linalg.solve(m, n_mat),
    )


def _residual_map(basis: GalerkinBasis, a_matrix: np.ndarray, params: ModelParams) -> np.ndarray:
    """B such that the transport defect of weights lam is lam @ B on the nodes.

    R = (phi')^T lam + phi^T (A - D) lam + (mu + D) phi^T lam, in which the
    applied dilution D cancels, so B = phi' + A^T phi + mu phi.
    """
    phi = basis.trial_matrix
    return basis.derivative_matrix + a_matrix.T @ phi + phi * params.mu.values


@dataclass
class GalerkinTrace:
    """Per-step record of a modal-route run.

    ``lam`` holds the weights at each node.  ``r`` is the L2 norm of the
    transport defect ``lam @ B`` and ``profile_l2`` that of the profile
    ``lam @ Phi``, both as the nodes' quadrature rule gives them; ``r`` is
    declared relative to ``profile_l2`` by ``mean_relative_residual``.
    """

    t: np.ndarray
    y_sim: np.ndarray
    y_ref: np.ndarray
    d: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    r: np.ndarray
    min_profile: np.ndarray
    profile_l2: np.ndarray
    lam: np.ndarray
    snapshots: dict

    CSV_COLUMNS = ("t", "y_sim", "y_ref", "D", "z1", "z2", "r", "min_profile")

    def columns(self) -> list:
        """The arrays named by CSV_COLUMNS, in that order."""
        return [self.t, self.y_sim, self.y_ref, self.d, self.z1, self.z2, self.r, self.min_profile]

    def mean_relative_residual(self) -> float:
        """Time-average of r(t) / ||x_sim[t]||_L2, the declared normalization."""
        return float(np.mean(self.r / self.profile_l2))


_LAM_OVERFLOW = 1e12
#: rows per block of the stage propagation and of the diagnostics; at 401
#: ages a block's profiles take 205 kB
_BLOCK = 64


def _expm(m: np.ndarray) -> np.ndarray:
    """exp(m) by scaling and squaring a Taylor series, in real matmuls.

    m is scaled by 2^-s to a 1-norm of at most 1/2, summed to 16 terms (the
    remainder is below 0.5^17 / 17! < 1e-19), and the sum squared s times
    (Moler & Van Loan, SIAM Review 45, 2003).
    """
    norm = float(np.abs(m).sum(axis=0).max())
    squarings = max(0, math.ceil(math.log2(2.0 * norm))) if norm > 0 else 0
    x = m / 2.0**squarings
    term = out = np.eye(len(m))
    for k in range(1, 17):
        term = (term @ x) / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def _propagate(prop: np.ndarray, lam0: np.ndarray, p_vec: np.ndarray, n_stages: int, mu_nodes: np.ndarray):
    """p^T mu_s for mu_s = prop^s lam0, s < n_stages, with mu_2k written to mu_nodes[k].

    The first block of stages comes from repeated products, each later one
    is the previous one times prop^_BLOCK; every block takes its full product
    with p, so a shorter run's outputs are a longer one's bit for bit.  The
    result ends at the first stage with p^T mu_s <= 0, if there is one.
    """
    blk = np.empty((_BLOCK, len(lam0)))
    blk[0] = lam0
    for j in range(1, _BLOCK):
        blk[j] = prop @ blk[j - 1]
    jump = np.linalg.matrix_power(prop, _BLOCK).T
    y_free = np.empty(n_stages)
    for lo in range(0, n_stages, _BLOCK):
        blk = blk @ jump if lo else blk
        y = y_free[lo : lo + _BLOCK]
        y[:] = (blk @ p_vec)[: len(y)]
        mu_nodes[lo // 2 : lo // 2 + (len(y) + 1) // 2] = blk[: len(y) : 2]
        if y.min() <= 0:
            return y_free[: lo + int(np.argmax(y <= 0)) + 1]
    return y_free


def simulate(
    system: GalerkinSystem,
    basis: GalerkinBasis,
    traj: Trajectory,
    gains: ControllerGains,
    params: ModelParams,
    t_final: float,
    dt: float,
    snapshot_times: tuple[float, ...] = (),
    d_override=None,
) -> GalerkinTrace:
    """Run the modal weights under the output-feedback loop.

    lam' = (A - D) lam gives lam(t) = e^{int (c - D)} mu(t) with the
    input-free mu(t) = e^{(A - c) t} lam(0); c = A[1, 1], as A e_2 = d* e_2
    up to quadrature.  mu is propagated exactly on the stage grid t_0,
    t_0 + dt/2, t_1, ...; delta = log(p^T mu) drives the shared scalar loop
    at output scale m = 1, so eta(0) = log(1 / y_ref(0)), and
    lam = y_ref e^eta mu.  The diagnostics follow in blocks of rows: the
    profiles lam @ Phi give ``min_profile`` and the snapshots, and the norms
    are quadratic forms in the weights, ||lam @ Phi||^2 = lam^T M lam with
    the mass matrix M = (Phi w) Phi^T and r^2 = lam^T R lam with
    R = (B w) B^T for the residual map B (``_residual_map``), each formed
    once.  As y = y_ref e^eta p^T mu, the first stage with y <= 0 does not
    depend on the input: NonPositiveOutput is raised there before the loop
    runs.  Past the sweep's own checks, Instability is raised at the first
    node where a weight is not finite or exceeds 1e12; a profile below zero
    is recorded in ``min_profile``, not raised.
    """
    n, n_steps = len(system.lam), int(round(t_final / dt))
    a_mat = system.a_matrix
    c = float(a_mat[1, 1])
    prop = _expm((a_mat - c * np.eye(n)) * (0.5 * dt))
    lam = np.empty((n_steps + 1, n))  # mu at the nodes, scaled in place into the weights
    y_free = _propagate(prop, system.lam, system.p_vector, 2 * n_steps + 1, lam)
    if y_free[-1] <= 0:
        raise NonPositiveOutput(
            "modal output p^T mu = %g <= 0 at t = %g" % (y_free[-1], 0.5 * dt * (len(y_free) - 1))
        )
    loop = ScalarLoop.of(gains, c, params.d_min, params.d_max)
    ts, hist, d, y_ref, y_sim = loop.sweep(traj, dt, 1.0, gains.z0, np.log(y_free, out=y_free), d_override)
    del y_free  # only per-node arrays stay alive through the blocks

    phi = basis.trial_matrix
    res_map = _residual_map(basis, a_mat, params)
    grams = np.stack([system.m_matrix, (res_map * params.weights) @ res_map.T])
    min_profile = np.empty(n_steps + 1)
    norms = np.empty((2, n_steps + 1))  # lam^T M lam and lam^T R lam, then their roots
    snap = snapshot_steps(snapshot_times, ts, dt)
    snapshots = {}
    buf = np.empty((_BLOCK, phi.shape[1]))  # a block's profiles
    for lo in range(0, n_steps + 1, _BLOCK):
        hi = min(lo + _BLOCK, n_steps + 1)
        blk = lam[lo:hi]
        with np.errstate(over="ignore", invalid="ignore"):
            blk *= (y_ref[lo:hi] * np.exp(hist[0, lo:hi]))[:, None]
            over = ~(np.abs(blk).max(axis=1) <= _LAM_OVERFLOW)  # NaN fails the bound too
        over[0] &= lo > 0  # the initial weights are not checked
        if over.any():
            raise Instability("modal weights overflowed at t = %g" % ts[lo + int(np.argmax(over))])
        prof = np.matmul(blk, phi, out=buf[: hi - lo])
        min_profile[lo:hi] = prof.min(axis=1)
        for i in sorted(snap.keys() & range(lo, hi)):
            snapshots[snap[i]] = GridFunction(prof[i - lo].copy(), params.a_max)
        np.einsum("kij,ij->ki", blk @ grams, blk, out=norms[:, lo:hi])
    profile_l2, r = np.sqrt(np.maximum(norms, 0.0, out=norms), out=norms)

    return GalerkinTrace(
        t=ts, y_sim=y_sim, y_ref=y_ref, d=d, z1=hist[1], z2=hist[2], r=r,
        min_profile=min_profile, profile_l2=profile_l2, lam=lam, snapshots=snapshots,
    )
