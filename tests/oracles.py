"""Independent numerical oracles used to freeze expected test values.

Deliberately self-contained: these helpers re-implement quadrature and
scanning directly on closed-form integrands so that package results are
checked against a code path that shares nothing with src/agechemo.
``pi_weight``, ``pi_functional``, ``reference_closed_loop``,
``reference_advance_psi``, ``reference_galerkin_loop``,
``reference_contraction_parts``, ``reference_sample_clf`` and
``reference_observer_quadratic`` are the exceptions; their docstrings say
why.
"""
import math

import numpy as np

# trial system closed forms
A_MAX = 2.0
MU = 0.1
K0 = 2.00


def k_shape(a):
    return a * (A_MAX - a)


def k_trial(a):
    return K0 * k_shape(a)


def simpson_highres(f, lo, hi, n=4001):
    """Composite Simpson on a closed form at high resolution."""
    xs = np.linspace(lo, hi, n)
    ys = np.asarray(f(xs), dtype=float)
    h = (hi - lo) / (n - 1)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(w @ ys) * h / 3.0


def lotka_sharpe_highres(d, n=4001):
    return simpson_highres(lambda a: k_trial(a) * np.exp(-(d + MU) * a), 0.0, A_MAX, n) - 1.0


def char_residual_highres(s, d_star, n=4001):
    """High-resolution residual of the renewal characteristic equation."""
    xs = np.linspace(0.0, A_MAX, n)
    kt = k_trial(xs) * np.exp(-(d_star + MU) * xs)
    h = A_MAX / (n - 1)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return complex((w * h / 3.0) @ (kt * np.exp(-s * xs))) - 1.0


def pi_highres(a_eval, d_star, n=4001):
    """pi(a) from its defining integral, evaluated directly."""
    def integrand(s):
        return k_trial(s) * np.exp(d_star * (a_eval - s) + MU * (a_eval - s))

    return simpson_highres(integrand, a_eval, A_MAX, n)


def pi_weight(eq, params):
    """Reproductive-value weight: pi(a) = int_a^A k(s) e^{d*(a-s) + int_s^a mu} ds.

    The tail integral of the normalized kernel divided by the survival
    factor; pi(A) = 0 and pi(0) equals the renewal integral, one.  An
    exception to this module's rule: it takes the tail integral with the
    package's ``tail_integral``, so that the delay route's initial split,
    which weights by that same tail, is checked against Pi to roundoff.
    """
    from agechemo.grid import GridFunction, tail_integral

    tail = tail_integral(eq.k_tilde.values, params.h)
    return GridFunction(tail / params.survival(eq.d_star), params.a_max)


def pi_functional(f, eq, params):
    """Pi(f) = <pi, f> / <pi, x*> on the age grid; linear in f, Pi(x*) = 1."""
    pi = pi_weight(eq, params).values
    w = params.weights
    return float(w @ (pi * f.values)) / float(w @ (pi * eq.x_star.values))


#: amplitude of the mode in ``modal_profile``; with the dominant root of the
#: bundled kernel it keeps the profile positive on [0, A]
MODAL_EPS = 0.0159


def modal_profile(x_star, nodes, s, eps=MODAL_EPS):
    """x0 = x* (1 + eps Re e^{-s a}) at the age nodes: the equilibrium plus the eigenmode of the root s."""
    return x_star * (1.0 + eps * np.real(np.exp(-s * nodes)))


def modal_psi(t, s, m, eps=MODAL_EPS):
    """The delay route's psi(t) from ``modal_profile``, in closed form: (1 + eps Re e^{s t}) / m - 1.

    psi(t) = int kt(a) psi(t - a) da holds for a constant, since kt
    integrates to one, and for e^{s t} wherever int kt e^{-s a} da = 1; the
    split divides x0 / x* by the output scale m, the discrete Pi(x0).
    """
    return (1.0 + eps * np.real(np.exp(s * np.asarray(t)))) / m - 1.0


def grid_scan_extrema(f, lo, hi, n=200_001):
    xs = np.linspace(lo, hi, n)
    ys = np.asarray(f(xs), dtype=float)
    return float(ys.min()), float(ys.max())


def saturate(v, lo, hi):
    if lo >= hi:
        raise ValueError("saturation interval needs lo < hi")
    return min(hi, max(lo, v))


def _reference_coefficients(eq, params, dt):
    """c_j = w_j kt(j dt), j = 0..A/dt, with kt read by Hermite at the buffer ages and sum c = 1 imposed."""
    from agechemo.grid import hermite_eval

    n_hist = int(round(params.a_max / dt))
    ages = dt * np.arange(n_hist + 1)
    w = np.ones(n_hist + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    c = w * hermite_eval(ages, 0.0, params.h, eq.k_tilde.values, eq.k_tilde_prime.values)
    return c / c.sum()


def _reference_slope(eq, params, val, n, q):
    """psi'(t_n) from the delay equation, reading the stored values val at the age nodes (stride q)."""
    kt, ktp = eq.k_tilde.values, eq.k_tilde_prime.values
    window = val[n - q * np.arange(len(kt))]  # psi(t_n - a_i)
    return float(kt[0] * window[0] - kt[-1] * window[-1] + params.weights @ (ktp * window))


def reference_closed_loop(x0, traj, eq, gains, params, t_final, dt, snapshot_times=(), d_override=None):
    """The delay route with psi stepped one recurrence step at a time and every delta read re-interpolated.

    The exception to this module's rule: it reuses the package's initial
    split (``init_delay_state``) and ``grid.hermite_eval``, so that it
    checks the precomputed maps of ``simulate_closed_loop`` against the
    reads they stand for.  Each step solves psi_n (1 - c_0) =
    sum_j c_j psi_{n-j} for the new node, takes its slope from the delay
    equation (as at t = 0), and reads delta at t, t + dt/2 and t + dt by
    Hermite interpolation of the nodes stored so far; (psi, eta, z) advance
    one synchronized step at a time.  Returns the trace arrays, the psi
    nodes and the snapshot profiles in a dict.
    """
    from agechemo.delay import init_delay_state
    from agechemo.errors import LogDomain
    from agechemo.grid import fd4, hermite_eval

    nodes, w, a_max = params.nodes, params.weights, params.a_max
    g = eq.g.values
    q = int(round(params.h / dt))
    n_hist = int(round(a_max / dt))
    n_steps = int(round(t_final / dt))
    c = _reference_coefficients(eq, params, dt)
    start = init_delay_state(x0, eq, params, dt)
    val, der = np.zeros(n_hist + 1 + n_steps), np.zeros(n_hist + 1 + n_steps)
    val[: n_hist + 1] = start.buffer.val
    der[: n_hist + 1] = fd4(val[: n_hist + 1], dt)
    size = n_hist + 1  # nodes stored so far

    def psi_at(tau):
        return hermite_eval(tau, -a_max, dt, val[:size], der[:size])

    def delta_at(tau):
        arg = 1.0 + float(w @ (g * psi_at(tau - nodes)))
        if arg <= 0:
            raise LogDomain("1 + <g, psi window> = %g <= 0 at t = %g" % (arg, tau))
        return math.log(arg)

    def applied(tau, u, dlt):
        if d_override is not None:
            return float(d_override(tau))
        rate = float(traj.rate(tau))
        return saturate(u[2] - rate + gains.gamma * (u[0] + dlt), params.d_min, params.d_max)

    def rhs(tau, u, dlt):
        eta, z1, z2 = u
        rate = float(traj.rate(tau))
        d_app = applied(tau, u, dlt)
        mism = z1 - eta - dlt
        return np.array(
            [eq.d_star - rate - d_app, z2 - rate - d_app - gains.l1 * mism, -gains.l2 * mism]
        )

    der[n_hist] = _reference_slope(eq, params, val, n_hist, q)
    out = {k: np.zeros(n_steps + 1) for k in ("eta", "delta", "z1", "z2", "d", "y")}
    snap_idx = {round(s / dt): round(s / dt) * dt for s in snapshot_times}  # keyed by the node time
    snapshots = {}
    t = 0.0
    u = np.array([math.log(start.m / float(traj.eval(0.0))), gains.z0[0], gains.z0[1]], dtype=float)

    def record(i):
        dlt = delta_at(t)
        out["eta"][i], out["z1"][i], out["z2"][i] = u
        out["delta"][i] = dlt
        out["y"][i] = float(traj.eval(t)) * math.exp(u[0] + dlt)
        out["d"][i] = applied(t, u, dlt)
        if i in snap_idx:
            scale = float(traj.eval(t)) * math.exp(u[0])
            snapshots[snap_idx[i]] = eq.x_star.values * scale * (1.0 + psi_at(t - nodes))

    record(0)
    for i in range(n_steps):
        val[size] = float(c[1:] @ val[size - n_hist : size][::-1]) / (1.0 - c[0])
        der[size] = _reference_slope(eq, params, val, size, q)
        size += 1

        d_t, d_half, d_full = delta_at(t), delta_at(t + 0.5 * dt), delta_at(t + dt)
        out["d"][i] = applied(t, u, d_t)  # the input applied over [t, t + dt)
        q1 = rhs(t, u, d_t)
        q2 = rhs(t + 0.5 * dt, u + 0.5 * dt * q1, d_half)
        q3 = rhs(t + 0.5 * dt, u + 0.5 * dt * q2, d_half)
        q4 = rhs(t + dt, u + dt * q3, d_full)
        u = u + (dt / 6.0) * (q1 + 2 * q2 + 2 * q3 + q4)
        t = t + dt
        record(i + 1)

    out["log_error"] = out["eta"] + out["delta"]
    out["psi"] = val.copy()
    out["snapshots"] = snapshots
    return out


def reference_advance_psi(eq, params, buf, n_steps):
    """psi stepped one step of the renewal recurrence at a time, with the delay equation's slopes.

    An exception to this module's rule: it reads kt at the buffer ages with
    the package's ``grid.hermite_eval``, so that it checks how
    ``delay._advance_psi`` builds and composes the steps.  Each step solves
    psi_n (1 - c_0) = sum_j c_j psi_{n-j} over the newest A/dt stored
    values and takes psi'(t_n) from the delay equation on the age nodes,
    from t = 0 on; the slopes of ``buf`` before t = 0 are kept.  Returns
    the extended (val, der).
    """
    n_hist = int(round(params.a_max / buf.dt))
    q = int(round(params.h / buf.dt))
    c = _reference_coefficients(eq, params, buf.dt)
    val = np.concatenate([buf.val, np.zeros(n_steps)])
    der = np.concatenate([buf.der, np.zeros(n_steps)])
    for n in range(n_hist + 1, len(val)):
        val[n] = float(c[1:] @ val[n - n_hist : n][::-1]) / (1.0 - c[0])
    for n in range(n_hist, len(val)):
        der[n] = _reference_slope(eq, params, val, n, q)
    return val, der


def reference_galerkin_loop(system, basis, traj, gains, params, t_final, dt, snapshot_times=(), d_override=None):
    """The modal route as one coupled RK4 system of the weights and the observer.

    An exception to this module's rule: it reads the package's assembled
    system (A, p, the initial weights) and trial bank, so that it checks
    ``galerkin.simulate``'s factorized propagation against the stepwise
    loop it replaced.  Everything else is written out here: the saturated
    law, the observer right-hand side, one RK4 step of (lam, z1, z2) per
    dt, and the residual and profile diagnostics at every node.  Raises
    NonPositiveOutput or Instability at the first stage or node that meets
    one, and records a negative profile in ``min_profile``.  Returns the
    trace arrays and the snapshot profiles in a dict; ``system`` is left
    unchanged.
    """
    from agechemo.errors import Instability, NonPositiveOutput

    n = len(system.lam)
    n_steps = int(round(t_final / dt))
    a_mat, p_vec = system.a_matrix, system.p_vector
    phi, dphi = basis.trial_matrix, basis.derivative_matrix
    w, mu = params.weights, params.mu.values
    u = np.concatenate([system.lam, np.asarray(gains.z0, dtype=float)])

    def law(tau, y, z2):
        if d_override is not None:
            return float(d_override(tau))
        log_error = math.log(y / float(traj.eval(tau)))
        raw = z2 - float(traj.rate(tau)) + gains.gamma * log_error
        return min(params.d_max, max(params.d_min, raw))

    def rhs(tau, state):
        lam, z1, z2 = state[:n], state[n], state[n + 1]
        y = float(p_vec @ lam)
        if y <= 0:
            raise NonPositiveOutput("modal output %g <= 0 at t = %g" % (y, tau))
        rate = float(traj.rate(tau))
        log_error = math.log(y / float(traj.eval(tau)))
        d_app = law(tau, y, z2)
        dlam = a_mat @ lam - d_app * lam
        dz1 = -gains.l1 * z1 + z2 + gains.l1 * log_error - rate - d_app
        dz2 = -gains.l2 * z1 + gains.l2 * log_error
        return np.concatenate([dlam, [dz1, dz2]])

    ts = dt * np.arange(n_steps + 1)
    out = {k: np.zeros(n_steps + 1) for k in ("y_sim", "d", "z1", "z2", "r", "min_profile", "profile_l2")}
    out["lam"] = np.zeros((n_steps + 1, n))
    snap_idx = {round(s / dt): round(s / dt) * dt for s in snapshot_times}  # keyed by the node time
    snapshots = {}

    def record(i):
        lam, tau = u[:n], ts[i]
        profile = phi.T @ lam
        pmin = float(profile.min())
        y = float(p_vec @ lam)
        if d_override is None and y <= 0:
            raise NonPositiveOutput("measured output y = %g <= 0 at t = %g" % (y, tau))
        d_app = law(tau, y, u[n + 1])
        r_nodes = dphi.T @ lam + (phi.T @ (a_mat @ lam) - d_app * profile) + (mu + d_app) * profile
        out["lam"][i] = lam
        out["y_sim"][i] = y
        out["d"][i] = d_app
        out["z1"][i], out["z2"][i] = u[n], u[n + 1]
        out["r"][i] = math.sqrt(max(float(w @ (r_nodes * r_nodes)), 0.0))
        out["min_profile"][i] = pmin
        out["profile_l2"][i] = math.sqrt(max(float(w @ (profile * profile)), 0.0))
        if i in snap_idx:
            snapshots[snap_idx[i]] = profile

    record(0)
    for i in range(n_steps):
        tau = ts[i]
        k1 = rhs(tau, u)
        k2 = rhs(tau + 0.5 * dt, u + 0.5 * dt * k1)
        k3 = rhs(tau + 0.5 * dt, u + 0.5 * dt * k2)
        k4 = rhs(tau + dt, u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(u)) or float(np.max(np.abs(u[:n]))) > 1e12:
            raise Instability("modal weights overflowed at t = %g" % (tau + dt))
        record(i + 1)

    out["t"] = ts
    out["snapshots"] = snapshots
    return out


def reference_clf_profile(profile, z, traj, eq, cert, params, t, functional=pi_functional):
    """The combined functional (V, Q) from an age profile at time t.

    The profile form: the scale is Pi(x) / y_ref(t), the history norm and
    floor are taken on the ratio x / (x* y_ref) against that scale, and the
    head term is the squared log scale.  It checks the history form along
    an oracle trace (eta and the psi window) against the profile that trace
    reconstructs.  ``functional(x, eq, params)`` gives Pi(x); an oracle
    trace's eta follows the delay route's discrete Pi, which a caller
    passes here to compare the two forms to rounding.
    """
    y_ref = float(traj.eval(t))
    scale = functional(profile, eq, params) / y_ref
    ratio = profile.values / (eq.x_star.values * y_ref)
    w_norm = float(np.max(np.exp(-cert.sigma * params.nodes) * np.abs(ratio - scale)))
    floor = min(scale, float(ratio.min()))
    e1 = float(z[0]) - math.log(scale)
    e2 = float(z[1]) - cert.d_star
    q = e1 * e1 - cert.p1 * e1 * e2 + cert.p2 * e2 * e2 + 0.5 * cert.big_m * (w_norm / floor) ** 2
    v = math.log(scale) ** 2 + cert.alpha1 * math.sqrt(q) + cert.alpha2 * q
    return v, q


def reference_sample_clf(trace, cert, stride=10):
    """The history-form functional along an oracle trace, one sample at a time.

    ``lyapunov.sample_clf`` as the per-sample loop it replaced, in the same
    arithmetic order.  An exception to this module's rule: it reads the
    package's ``window_norms``, so that it checks only the functional's
    evaluation.
    """
    from agechemo.lyapunov import window_norms

    idx = np.arange(0, len(trace.t), stride)
    w_norms, floors = (x.tolist() for x in window_norms(trace, cert.sigma, stride))
    vs = np.zeros(len(idx))
    for j, i in enumerate(idx):
        e1 = trace.z1[i] - trace.eta[i]
        e2 = trace.z2[i] - cert.d_star
        quad = e1 * e1 - cert.p1 * e1 * e2 + cert.p2 * e2 * e2
        ratio = w_norms[j] / floors[j]
        q = quad + 0.5 * cert.big_m * (ratio * ratio)
        vs[j] = trace.eta[i] * trace.eta[i] + cert.alpha1 * math.sqrt(q) + cert.alpha2 * q
    return trace.t[idx], vs


def reference_contraction_parts(k_tilde):
    """(kt, tail, Simpson weights, mean age) of the contraction integral, rebuilt per call.

    An exception to this module's rule: it reuses the package's
    ``cumquad4`` and ``simpson_weights``, so that ``kernel_constants``'s
    values are checked bitwise against the same integral taken in the same
    arithmetic order.
    """
    from agechemo.grid import cumquad4, simpson_weights

    kt = k_tilde.values
    prefix = cumquad4(kt, k_tilde.h)
    w = simpson_weights(k_tilde.n, k_tilde.h)
    return kt, prefix[-1] - prefix, w, float(w @ (k_tilde.nodes * kt))


def reference_contraction_value(k_tilde, lam, sigma=0.0):
    """int_0^A e^{sigma a} |kt - lam tail / mean_age| da on the grid, from ``reference_contraction_parts``."""
    kt, tail, w, mean_age = reference_contraction_parts(k_tilde)
    integrand = np.abs(kt - lam * tail / mean_age)
    weight = np.exp(sigma * k_tilde.nodes) if sigma else 1.0
    return float(w @ (weight * integrand))


def reference_b3_search(k_tilde):
    """Log scan plus 90 golden sections on ``reference_contraction_value``; (lam, value)."""
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 1e2, 400)])
    vals = [reference_contraction_value(k_tilde, lam) for lam in grid]
    i0 = int(np.argmin(vals))
    lo, hi = grid[max(i0 - 1, 0)], grid[min(i0 + 1, len(grid) - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(90):
        c1 = hi - inv_phi * (hi - lo)
        c2 = lo + inv_phi * (hi - lo)
        if reference_contraction_value(k_tilde, c1) < reference_contraction_value(k_tilde, c2):
            hi = c2
        else:
            lo = c1
    lam = 0.5 * (lo + hi)
    return float(lam), reference_contraction_value(k_tilde, lam)


def reference_sigma_search(k_tilde, lam):
    """Doubling bracket, then 60 bisections on ``reference_contraction_value``."""
    lo, hi = 0.0, 1.0
    while reference_contraction_value(k_tilde, lam, hi) < 1.0:
        hi *= 2.0
        if hi > 64.0:
            break
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if reference_contraction_value(k_tilde, lam, mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return lo


def reference_observer_quadratic(l1, l2):
    """The observer form by the search of the whole 200 x 200 grid, one argmax.

    The search that the band search replaced.  An exception to this
    module's rule: it evaluates the package's own cell expressions
    (``quadratic_pair_feasible``, ``_sym2_eigs``) on every cell, so that
    the band search, which evaluates them on fewer cells, is checked
    against it bit for bit.
    """
    from agechemo.errors import NoFeasiblePair
    from agechemo.lyapunov import OQ_GRID, ObserverQuadratic, _sym2_eigs, quadratic_pair_feasible

    p1g = np.geomspace(1e-2, 2.0, OQ_GRID)
    p2g = np.geomspace(1e-2, 4.0, OQ_GRID)
    P1, P2 = np.meshgrid(p1g, p2g, indexing="ij")
    feas = quadratic_pair_feasible(l1, l2, P1, P2)
    k1, k2 = _sym2_eigs(np.ones_like(P1), -P1 / 2.0, P2)
    kt1, kt2 = _sym2_eigs(2.0 * l1 - l2 * P1, l2 * P2 - l1 * P1 / 2.0 - 1.0, P1)
    feas &= (k1 > 0) & (kt1 > 0)
    if not feas.any():
        raise NoFeasiblePair("no (p1, p2) satisfies the shape inequalities for l = (%g, %g)" % (l1, l2))
    beta1 = np.where(feas, kt1 / (4.0 * k2), -np.inf)
    ij = np.unravel_index(int(np.argmax(beta1)), beta1.shape)
    beta1, p1, p2, k1, k2, kt1, kt2 = (float(a[ij]) for a in (beta1, P1, P2, k1, k2, kt1, kt2))
    b2 = ((2 * l1 - l2 * p1) ** 2 + (l1 * p1 - 2 * l2 * p2) ** 2) / (2.0 * kt1)
    return ObserverQuadratic(p1=p1, p2=p2, k1=k1, k2=k2, k1_tilde=kt1, k2_tilde=kt2, beta1=beta1, beta2=b2)


def reference_polish(s, kt, nodes, w, wa, dampings=None):
    """Damped Newton on int kt e^{-s a} - 1 that halves its step down to 1e-9.

    The root polish as it was before the search gave up at a damping of
    2**-10: at most 10 steps, each halving until |f| drops, giving up only
    once the damping reaches 1e-9.  The root, or None.  ``dampings``, when
    given, collects the damping of each accepted step.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        v = kt * np.exp(-s * nodes)
        f = complex(w @ v) - 1.0
        for _ in range(10):
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
                if lam <= 1e-9:
                    return None
            if dampings is not None:
                dampings.append(lam)
            s, f = s_try, f_try
    return s if abs(f) < 1e-13 else None


def reference_sweep(loop, traj, t_node, dt, m, z0, delta, d_override=None, dtype=float, law=None):
    """RK4 of (eta, z1, z2) with the stage values sliced out step by step.

    The scalar loop as one function per stage: the saturated law and the
    observer right-hand side are written out here, and only the loop's
    constants (gamma, l1, l2, d_star, d_min, d_max) are read from ``loop``.
    Takes ``ScalarLoop.sweep``'s arguments and returns its (hist, d); eta
    starts at log(m / y_ref(0)) and z at z0.  ``dtype`` is the type the
    loop computes in from the float stage values (np.longdouble for a
    reference more precise than the sweep), and ``law``, a function of
    ``ScalarLoop.rhs``'s signature, stands in for the one written here.
    """
    n_steps = len(t_node) - 1
    t_half = t_node[:-1] + 0.5 * dt

    def staged(f):
        out = np.empty(2 * n_steps + 1)
        out[0::2] = f(t_node)
        out[1::2] = f(t_half)
        return out.astype(dtype)

    def rhs(eta, z1, z2, rate, dlt, forced):
        log_error = eta + dlt
        if forced is None:
            feedback = z2 + loop.gamma * log_error
            forced = min(loop.d_max, max(loop.d_min, feedback - rate))
        mism = z1 - log_error
        return loop.d_star - rate - forced, z2 - rate - forced - loop.l1 * mism, -loop.l2 * mism, forced

    rhs = rhs if law is None else law
    rate, delta = staged(traj.rate), np.asarray(delta).astype(dtype)
    forced = None
    if d_override is not None:
        forced = staged(lambda ts: [float(d_override(s)) for s in ts.tolist()])
    hist = np.empty((3, n_steps + 1), dtype)
    d = np.empty(n_steps + 1, dtype)
    hist[:, 0] = (math.log(m / float(traj.eval(0.0))), *z0)
    u = hist[:, 0].tolist()
    dt = dtype(dt)
    half, sixth = 0.5 * dt, dt / 6
    for k in range(n_steps):
        s = slice(2 * k, 2 * k + 3)
        (r0, r1, r2), (d0, d1, d2) = rate[s].tolist(), delta[s].tolist()
        f0, f1, f2 = (None,) * 3 if forced is None else forced[s].tolist()
        e, p, q = u
        a1, b1, c1, d[k] = rhs(e, p, q, r0, d0, f0)
        a2, b2, c2, _ = rhs(e + half * a1, p + half * b1, q + half * c1, r1, d1, f1)
        a3, b3, c3, _ = rhs(e + half * a2, p + half * b2, q + half * c2, r1, d1, f1)
        a4, b4, c4, _ = rhs(e + dt * a3, p + dt * b3, q + dt * c3, r2, d2, f2)
        u = (
            e + sixth * (a1 + 2 * a2 + 2 * a3 + a4),
            p + sixth * (b1 + 2 * b2 + 2 * b3 + b4),
            q + sixth * (c1 + 2 * c2 + 2 * c3 + c4),
        )
        hist[:, k + 1] = u
    last = None if forced is None else forced[-1]
    d[-1] = rhs(u[0], u[1], u[2], rate[-1], delta[2 * n_steps], last)[3]
    return hist, d


def _violations(ts, vals, rhs):
    """Samples where the forward difference of vals exceeds rhs plus a second-difference slack."""
    surr = np.diff(vals) / np.diff(ts)
    dd = np.abs(np.diff(vals, 2))
    slack = (float(dd.max()) / (2.0 * (ts[1] - ts[0])) if len(dd) else 0.0) + 1e-10
    return int(np.sum(surr > rhs + slack))


def observer_iss_violations(trace, cert, stride=10):
    """Violation count of dJ/dt <= -2 beta1 J + beta2 delta^2 along an oracle trace."""
    idx = np.arange(0, len(trace.t), stride)
    e1 = trace.z1[idx] - trace.eta[idx]
    e2 = trace.z2[idx] - cert.d_star
    j_vals = e1 * e1 - cert.p1 * e1 * e2 + cert.p2 * e2 * e2
    rhs = -2.0 * cert.beta1 * j_vals[:-1] + cert.beta2 * trace.delta[idx][:-1] ** 2
    return _violations(trace.t[idx], j_vals, rhs)


def eta_decay_violations(trace, cert, stride=10):
    """Violation count of d(eta^2)/dt <= -mu1 eta^2/(1+|eta|) + mu2 |e2 + gamma delta| along an oracle trace."""
    idx = np.arange(0, len(trace.t), stride)
    eta2 = trace.eta[idx] ** 2
    drive = np.abs(trace.z2[idx] - cert.d_star + cert.gamma * trace.delta[idx])[:-1]
    rhs = -cert.mu1 * eta2[:-1] / (1.0 + np.abs(trace.eta[idx][:-1])) + cert.mu2 * drive
    return _violations(trace.t[idx], eta2, rhs)
