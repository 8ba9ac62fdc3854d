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
import warnings
from dataclasses import dataclass, field

import numpy as np

from .controller import ControllerGains, ScalarLoop
from .errors import (
    DependentBasis,
    Instability,
    NonPositiveOutput,
    PositivityViolation,
    RootSearchExhausted,
    ValidationError,
)
from .grid import GridFunction, fd4, hermite_resample, simpson_weights
from .model import Equilibrium, ModelParams
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


def _char_residual(s: complex, k_tilde: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> complex:
    with np.errstate(over="ignore", invalid="ignore"):
        val = complex(weights @ (k_tilde * np.exp(-s * nodes)))
    return val - 1.0


def _char_values(s: np.ndarray, wk: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """int kt e^{-s a} da - 1 at many points s, as chunked sums (wk = w * kt)."""
    out = np.empty(len(s), dtype=complex)
    rows = max(1, _CHUNK // len(nodes))
    for lo in range(0, len(s), rows):
        block = np.outer(s[lo : lo + rows], -nodes)
        out[lo : lo + rows] = np.exp(block, out=block) @ wk
    return out - 1.0


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


def _polish_roots(eigs, needed, kt_f, nodes_f, w_f, kt, nodes, w, omega_cap) -> list[complex]:
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
        if abs(_char_residual(s, kt, nodes, w)) > _ALIAS_RESIDUAL_TOL:
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
    nodes, w = params.nodes, params.weights
    omega_cap = math.pi / (4 * params.h)

    n_fine = 4 * (params.mu.n - 1) + 1
    nodes_f = np.linspace(0.0, params.a_max, n_fine)
    kt_f = hermite_resample(nodes, kt, nodes_f)
    w_f = simpson_weights(n_fine, nodes_f[1] - nodes_f[0])

    pairs_needed = count // 2 - 1
    eigs = _collocation_eigenvalues(eq, params)
    found = _polish_roots(eigs, pairs_needed, kt_f, nodes_f, w_f, kt, nodes, w, omega_cap)
    if len(found) < pairs_needed:
        # every eigenvalue was polished; when the argument principle finds no
        # other root in the box down to a margin below the last one, the
        # missing pairs lie above the frequency cap the grid resolves
        sigma_lo = (found[-1].real if found else 0.0) - _CERT_MARGIN
        if _winding_number(w_f * kt_f, nodes_f, sigma_lo, omega_cap) == 2 * len(found) + 1:
            raise ValidationError(
                "[numerics] age_nodes: %d nodes resolve %d of the %d conjugate pairs "
                "needed below the frequency cap pi/(4h) = %.4g; use more age nodes "
                "or fewer modes" % (len(nodes), len(found), pairs_needed, omega_cap)
            )
        raise RootSearchExhausted(
            "found %d conjugate pairs, need %d" % (len(found), pairs_needed)
        )
    roots: list[complex] = [0.0 + 0.0j]
    for s in found[:pairs_needed]:
        roots.extend([s, s.conjugate()])
    for r in roots:
        # the trivial root is pinned by the native-grid normalization (that
        # is where the equilibrium dilution rate was solved); nontrivial
        # roots were determined on the refined rule
        if r == 0:
            bad = abs(_char_residual(r, kt, nodes, w)) >= ROOT_RESIDUAL_TOL
        else:
            bad = abs(_char_residual(r, kt_f, nodes_f, w_f)) >= ROOT_RESIDUAL_TOL
        if bad:
            raise RootSearchExhausted("root %s failed the residual check" % r)

    last = found[pairs_needed - 1].real
    if len(found) > pairs_needed:
        sigma_lo = 0.5 * (last + found[pairs_needed].real)
    else:
        sigma_lo = last - _CERT_MARGIN
    winding = _winding_number(w_f * kt_f, nodes_f, sigma_lo, omega_cap)
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
    obtained by grid differentiation; its boundary-compatibility defect is
    reported as a warning, not enforced.
    """
    if n_modes % 2 != 0 or n_modes < 4:
        raise ValueError("n_modes must be even and >= 4")
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

    bc_defect = abs(x0.values[0] - float(w @ (params.k.values * x0.values)))
    if bc_defect > 1e-6 * float(np.max(np.abs(x0.values))):
        warnings.warn(
            "initial profile violates the boundary condition by %.3g; "
            "the trial bank keeps it unmodified" % bc_defect,
            stacklevel=2,
        )
    return GalerkinBasis(Phi, dPhi)


@dataclass
class GalerkinSystem:
    """Modal system: mass/stiffness matrices, output vector, initial weights."""

    m_matrix: np.ndarray
    n_matrix: np.ndarray
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
        n_matrix=n_mat,
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
    """Per-step record of a modal-route run."""

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
#: ages a block's profiles or residual nodes take 205 kB
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
    is the previous one times prop^_BLOCK.  The result ends at the first
    stage with p^T mu_s <= 0, if there is one.
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
        np.dot(blk[: len(y)], p_vec, out=y)
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
    from eta(0) = -log y_ref(0), and lam = y_ref e^eta mu.  The diagnostics
    follow in blocks of rows.  Raises what a stepwise loop would have met
    first: NonPositiveOutput at a stage with p^T mu <= 0, and at a node
    Instability when the weights overflow or PositivityViolation when the
    represented profile dips below zero.
    """
    n, n_steps = len(system.lam), int(round(t_final / dt))
    a_mat = system.a_matrix
    c = float(a_mat[1, 1])
    prop = _expm((a_mat - c * np.eye(n)) * (0.5 * dt))
    lam = np.empty((n_steps + 1, n))  # mu at the nodes, scaled in place into the weights
    y_free = _propagate(prop, system.lam, system.p_vector, 2 * n_steps + 1, lam)
    s_bad = len(y_free) - 1 if y_free[-1] <= 0 else None
    n_ok = n_steps if s_bad is None else max(s_bad - 1, 0) // 2
    y_last = float(y_free[-1])

    ts = dt * np.arange(n_steps + 1)
    u0 = (-math.log(float(traj.eval(0.0))), float(gains.z0[0]), float(gains.z0[1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.log(y_free[: 2 * n_ok + 1], out=y_free[: 2 * n_ok + 1])
    loop = ScalarLoop.of(gains, c, params.d_min, params.d_max)
    hist, d = loop.sweep(traj, ts[: n_ok + 1], dt, u0, delta, d_override)
    y_ref = np.asarray(traj.eval(ts), dtype=float)
    with np.errstate(over="ignore"):
        y_sim = y_ref[: n_ok + 1] * np.exp(hist[0] + delta[0::2])
    del delta, y_free  # only per-node arrays stay alive through the blocks

    phi, w = basis.trial_matrix, params.weights
    res_map = _residual_map(basis, a_mat, params)
    min_profile, profile_l2, r = (np.empty(n_ok + 1) for _ in range(3))
    snap_idx = {int(round(s / dt)): float(s) for s in snapshot_times}
    snapshots = {}
    buf = np.empty((_BLOCK, phi.shape[1]))  # holds a block's profiles, then its residual nodes
    for lo in range(0, n_ok + 1, _BLOCK):
        hi = min(lo + _BLOCK, n_ok + 1)
        blk = lam[lo:hi]
        with np.errstate(over="ignore", invalid="ignore"):
            blk *= (y_ref[lo:hi] * np.exp(hist[0, lo:hi]))[:, None]
            over = ~(np.isfinite(blk).all(axis=1) & np.isfinite(hist[:, lo:hi]).all(axis=0))
            over |= np.abs(blk).max(axis=1) > _LAM_OVERFLOW
            over[0] &= lo > 0  # the initial weights are not checked
            prof = np.matmul(blk, phi, out=buf[: hi - lo])
            pmin = prof.min(axis=1)
        bad = np.flatnonzero(over | (pmin < 0))
        if bad.size:
            j = int(bad[0])
            if over[j]:
                raise Instability("modal weights overflowed at t = %g" % ts[lo + j])
            raise PositivityViolation("profile minimum %g < 0 at t = %g" % (pmin[j], ts[lo + j]))
        min_profile[lo:hi] = pmin
        profile_l2[lo:hi] = np.sqrt(np.maximum(np.einsum("ij,ij,j->i", prof, prof, w), 0.0))
        for i in sorted(snap_idx.keys() & range(lo, hi)):
            snapshots[snap_idx[i]] = GridFunction(prof[i - lo].copy(), params.a_max)
        r_nodes = np.matmul(blk, res_map, out=buf[: hi - lo])
        r[lo:hi] = np.sqrt(np.maximum(np.einsum("ij,ij,j->i", r_nodes, r_nodes, w), 0.0))
    if s_bad is not None:
        y_bad = y_ref[n_ok] * np.exp(hist[0, -1]) * y_last
        what = "measured output y = %g" if s_bad == 0 and d_override is None else "modal output %g"
        raise NonPositiveOutput((what + " <= 0 at t = %g") % (y_bad, 0.5 * dt * s_bad))

    return GalerkinTrace(
        t=ts, y_sim=y_sim, y_ref=y_ref, d=d, z1=hist[1], z2=hist[2], r=r,
        min_profile=min_profile, profile_l2=profile_l2, lam=lam, snapshots=snapshots,
    )
