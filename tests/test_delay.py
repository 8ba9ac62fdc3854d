import math

import numpy as np
import pytest

from agechemo.delay import (
    PSI_BLOCK,
    WINDOW_BLOCK,
    HistoryBuffer,
    _advance_psi,
    _PsiDynamics,
    _delta_grid,
    init_delay_state,
    simulate_closed_loop,
)
from agechemo.config import build_model, build_trajectory, build_x0, load_config
from agechemo.controller import ControllerGains
from agechemo.errors import HistoryGap, InvalidIC
from agechemo.galerkin import characteristic_roots
from agechemo.grid import GridFunction
from agechemo.model import ModelParams, solve_equilibrium
from agechemo.scenario import run
from agechemo.trajectories import make_constant
from conftest import SCREEN_KERNELS, bundled, bundled_with, motherhood_model, small_config_text
from oracles import (
    modal_profile,
    modal_psi,
    pi_functional,
    pi_highres,
    pi_weight,
    reference_advance_psi,
    reference_closed_loop,
    simpson_highres,
)


def test_pi_weight_endpoints(trial):
    pi = pi_weight(trial["eq"], trial["params"])
    assert pi.values[-1] == 0.0
    assert pi.values[0] == pytest.approx(1.0, abs=1e-6)


def test_pi_weight_against_quadrature_oracle(trial):
    pi = pi_weight(trial["eq"], trial["params"])
    d_star = trial["eq"].d_star
    for a_eval in (0.5, 1.0, 1.5):
        idx = int(round(a_eval / trial["params"].h))
        assert pi.values[idx] == pytest.approx(pi_highres(a_eval, d_star), abs=1e-7)


def test_pi_weight_decreasing_near_max_age(trial):
    pi = pi_weight(trial["eq"], trial["params"])
    tail = pi.values[-20:]
    assert np.all(np.diff(tail) < 0)


def test_pi_functional_linearity(trial):
    eq, params = trial["eq"], trial["params"]
    assert pi_functional(eq.x_star, eq, params) == pytest.approx(1.0, rel=1e-12)
    tripled = eq.x_star.with_values(3.0 * eq.x_star.values)
    assert pi_functional(tripled, eq, params) == pytest.approx(3.0, rel=1e-12)


def test_pi_functional_trial_profile_oracle(trial):
    eq, params, x0 = trial["eq"], trial["params"], trial["x0"]
    pi_nodes = np.array([pi_highres(a, eq.d_star, n=2001) for a in params.nodes])
    w = params.weights
    expected = float(w @ (pi_nodes * x0.values)) / float(w @ (pi_nodes * eq.x_star.values))
    assert pi_functional(x0, eq, params) == pytest.approx(expected, abs=1e-7)


def test_init_exact_tracking_start(trial):
    eq, params = trial["eq"], trial["params"]
    traj = make_constant(1.0)
    state = init_delay_state(eq.x_star, eq, params, params.h)
    assert abs(math.log(state.m / float(traj.eval(0.0)))) < 1e-12
    assert np.max(np.abs(state.buffer.eval(-params.nodes))) < 1e-12


def _settled_constant(state):
    """Q_0 / sum T: the constant psi settles to, Q_0 = sum_{j<N} T_j psi0(-j dt) the recurrence's conserved functional."""
    tail = state.dyn.conserved_weights()
    return float(tail @ state.buffer.val[:0:-1]) / float(tail.sum())


def test_init_weighted_mean_zero(trial):
    # M pins the conserved Q_0 to zero: psi0's T-weighted mean vanishes to rounding
    eq, params, x0 = trial["eq"], trial["params"], trial["x0"]
    state = init_delay_state(x0, eq, params, params.h)
    assert abs(_settled_constant(state)) < 1e-15


def test_init_eta_matches_functional(tmp_path):
    # M, the discrete Pi(x0) of the recurrence, converges to Pi(x0) at second
    # order in h: |M/Pi - 1| is 2.98e-6, 7.45e-7, 1.86e-7 and 4.65e-8 on
    # fig2a at 201..1601 nodes, and 6.2e-8 down to 9.6e-10 on fig3
    for name in ("fig2a.cfg", "fig3.cfg"):
        gaps = []
        for age_nodes in (201, 401, 801, 1601):
            cfg = load_config(bundled_with(tmp_path, name, "age_nodes", str(age_nodes)))
            params = build_model(cfg)
            eq = solve_equilibrium(params)
            x0 = build_x0(cfg, params, eq)
            state = init_delay_state(x0, eq, params, params.h)
            gaps.append(abs(state.m / pi_functional(x0, eq, params) - 1.0))
        assert 0 < gaps[1] < 1e-6, name
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 3.9 < coarse / fine < 4.1, (name, gaps)


@pytest.mark.parametrize(
    "age_nodes, dt_over_h", [(401, 1.0), (401, 0.5), (401, 2.0), (301, 0.75), (301, 0.5), (201, 0.25)]
)
def test_init_split_is_one_normalization(tmp_path, age_nodes, dt_over_h):
    # on every buffer grid h/q, psi0's T-weighted mean vanishes to rounding and
    # the sweep starts from eta0 = log(M / y_ref(0)); a dt that is not h/q
    # (2h, 0.75h) is refused
    cfg = load_config(bundled_with(tmp_path, "fig2a.cfg", "age_nodes", str(age_nodes)))
    params = build_model(cfg)
    eq = solve_equilibrium(params)
    x0, traj = build_x0(cfg, params, eq), build_trajectory(cfg)
    dt = dt_over_h * params.h
    if (1.0 / dt_over_h) % 1:
        with pytest.raises(ValueError, match="^dt must divide the age step h"):
            init_delay_state(x0, eq, params, dt)
        return
    state = init_delay_state(x0, eq, params, dt)
    assert len(state.buffer.val) == round(params.a_max / dt) + 1
    assert abs(_settled_constant(state)) < 1e-15
    assert abs(state.m / pi_functional(x0, eq, params) - 1.0) < 2e-6
    trace = simulate_closed_loop(x0, traj, eq, ControllerGains(cfg.gamma, cfg.l1, cfg.l2, cfg.z0), params, dt, dt)
    assert trace.eta[0] == math.log(state.m / float(traj.eval(0.0)))


def test_init_rejects_inadmissible_profile(trial):
    params, eq = trial["params"], trial["eq"]
    a = params.nodes
    literal = GridFunction(-0.054 * a + np.exp(-1.30 * a), params.a_max)
    with pytest.raises(InvalidIC):
        init_delay_state(literal, eq, params, params.h)


def _modal_psi_error(params, eq, dt, horizon=4.0):
    """max |psi - modal_psi| on [0, horizon] for the route started on ``modal_profile``."""
    s = characteristic_roots(eq, params, 4)[1]  # the dominant root, Im s > 0
    x0 = GridFunction(modal_profile(eq.x_star.values, params.nodes, s), params.a_max)
    state = init_delay_state(x0, eq, params, dt)
    n_steps = int(round(horizon / dt))
    history = _advance_psi(state.dyn, state.buffer, n_steps)
    exact = modal_psi(dt * np.arange(n_steps + 1), s, state.m)
    return float(np.max(np.abs(history.val[-(n_steps + 1) :] - exact)))


def test_psi_follows_the_modal_closed_form(trial):
    # 4.3e-11 on fig2a's grid (1.2e-10 with RK4 on the delay equation)
    assert _modal_psi_error(trial["params"], trial["eq"], trial["cfg"].dt) < 1e-9


def test_modal_closed_form_error_falls_with_the_age_grid(tmp_path, trial):
    # dt follows the age step (q = 1): 4.3e-11 on 401 nodes, 2.7e-12 on 801
    cfg = load_config(bundled_with(tmp_path, "fig2a.cfg", "age_nodes", "801"))
    params = build_model(cfg)
    fine = _modal_psi_error(params, solve_equilibrium(params), cfg.dt)
    assert fine * 10 <= _modal_psi_error(trial["params"], trial["eq"], trial["cfg"].dt)


def test_step_psi_zero_solution(trial):
    eq, params = trial["eq"], trial["params"]
    state = init_delay_state(eq.x_star, eq, params, params.h)
    history = _advance_psi(state.dyn, state.buffer, 100)
    assert len(history.val) == len(state.buffer.val) + 100
    assert np.max(np.abs(history.node_values())) < 1e-14


#: horizons on both sides of the first block edges of ``_advance_psi``
PSI_STEPS = (0, 1, 31, 32, 33, 101)

#: buffer steps h/q at q = 1, 2 and 3, and two steps the route refuses
#: because they are not h/q (fig2a: h = 0.005)
DT_OF = {
    "h/2": lambda h: h / 2,
    "h": lambda h: h,
    "h/3": lambda h: h / 3,
    "2h": lambda h: 2 * h,
    "2/267": lambda h: 2.0 / 267,
}
REFUSED = ("2h", "2/267")


def _assert_matches_stepwise_loop(eq, params, dyn, buf):
    for n_steps in PSI_STEPS:
        history = _advance_psi(dyn, buf, n_steps)
        val, der = reference_advance_psi(eq, params, buf, n_steps)
        assert len(history.val) == len(history.der) == len(val) == len(buf.val) + n_steps
        assert np.max(np.abs(history.val - val)) <= 1e-13, n_steps
        assert np.max(np.abs(history.der - der)) <= 1e-13, n_steps


@pytest.mark.parametrize("case", list(DT_OF))
def test_block_propagator_matches_stepwise_loop(trial, case):
    eq, params, x0 = trial["eq"], trial["params"], trial["x0"]
    dt = DT_OF[case](params.h)
    if case in REFUSED:
        with pytest.raises(ValueError, match="^dt must divide the age step h; got dt=%g, h=0.005$" % dt):
            init_delay_state(x0, eq, params, dt)
        return
    state = init_delay_state(x0, eq, params, dt)
    _assert_matches_stepwise_loop(eq, params, state.dyn, state.buffer)


def test_block_propagator_matches_stepwise_loop_with_boundary_term(tmp_path):
    # the constant kernel of test_simulate_matches_hermite_reference_with_boundary_term
    path = tmp_path / "flat.cfg"
    path.write_text(
        small_config_text(kind_block="kind = transition\ny0 = 1.0\ny_delta = 1.5\nt_delta = 4.0")
        .replace("k = quadratic-motherhood 2.00", "k = constant 1.0")
    )
    cfg = load_config(path)
    params = build_model(cfg)
    eq = solve_equilibrium(params)
    assert eq.k_tilde.values[-1] > 0.1
    for q in (1, 2, 3):
        state = init_delay_state(build_x0(cfg, params, eq), eq, params, params.h / q)
        _assert_matches_stepwise_loop(eq, params, state.dyn, state.buffer)


def test_block_propagator_matches_stepwise_loop_on_a_short_window():
    # N = 10 q stored values: from row N of a block on, every read is of a new value
    eq, params = motherhood_model(11, 0.1, 2.0)
    for q in (1, 2, 3):
        dt = params.h / q
        dyn = _PsiDynamics.build(eq, params, dt)
        assert dyn.n_hist < PSI_BLOCK
        t = np.linspace(-params.a_max, 0.0, dyn.n_hist + 1)
        buf = HistoryBuffer(-params.a_max, dt, 0.2 * np.sin(3.0 * t), 0.6 * np.cos(3.0 * t))
        _assert_matches_stepwise_loop(eq, params, dyn, buf)


def test_psi_is_a_prefix_of_a_longer_run_bitwise(trial):
    # psi on [0, T] and its slopes do not depend on the horizon it was stepped to
    eq, params, x0 = trial["eq"], trial["params"], trial["x0"]
    for q in (1, 2, 3):
        state = init_delay_state(x0, eq, params, params.h / q)
        longest = _advance_psi(state.dyn, state.buffer, 3 * PSI_BLOCK + 5)
        for n_steps in (0, 1, PSI_BLOCK - 1, PSI_BLOCK, PSI_BLOCK + 1, 2 * PSI_BLOCK + 7, 3 * PSI_BLOCK):
            history = _advance_psi(state.dyn, state.buffer, n_steps)
            size = len(history.val)
            assert np.array_equal(history.val, longest.val[:size]), (q, n_steps)
            assert np.array_equal(history.der, longest.der[:size]), (q, n_steps)


def _bundled_model(name):
    cfg = load_config(bundled(name))
    params = build_model(cfg)
    eq = solve_equilibrium(params)
    return cfg, params, eq, build_x0(cfg, params, eq)


@pytest.mark.parametrize("name", ["fig2a.cfg", "fig3.cfg"])
def test_psi_decays_to_rounding(name):
    # with Q_0 = 0 there is no constant for psi to settle to: max |psi| on
    # [28, 30] reads 3.7e-17 and 1.9e-15 (fig2a, fig3) at q = 1, and 7.6e-18
    # and 6.4e-16 at q = 2, where RK4 on the delay equation floored at 6.0e-7
    # and 1.2e-8
    _, params, eq, x0 = _bundled_model(name)
    for q in (1, 2):
        state = init_delay_state(x0, eq, params, params.h / q)
        history = _advance_psi(state.dyn, state.buffer, round(30.0 / state.dyn.dt))
        assert np.max(np.abs(history.val[-state.dyn.n_hist - 1 :])) < 1e-12, q


@pytest.mark.parametrize("name", ["fig2a.cfg", "fig3.cfg"])
def test_recurrence_conserves_q(name):
    # Q_n = sum_{j<N} T_j psi_{n-j} at every 50th node of [0, 30] stays within
    # 1e-14 of sum_j T_j |psi0(-j dt)| of Q_0 (1.3e-15 at most, measured)
    _, params, eq, x0 = _bundled_model(name)
    for q in (1, 2):
        state = init_delay_state(x0, eq, params, params.h / q)
        n = state.dyn.n_hist
        history = _advance_psi(state.dyn, state.buffer, round(30.0 / state.dyn.dt))
        tail = state.dyn.conserved_weights()
        newest = np.arange(n, len(history.val), 50)
        q_n = np.array([tail @ history.val[m - n + 1 : m + 1][::-1] for m in newest])
        scale = float(tail @ np.abs(history.val[n:0:-1]))
        assert np.max(np.abs(q_n - q_n[0])) <= 1e-14 * scale, q


def _kakeya_ratio(dyn):
    """max_j T_{j+1} / T_j over the T_j > 0.

    The recurrence's characteristic polynomial is (z - 1) sum_j T_j z^{N-1-j}.
    The coefficients of the second factor are positive but for trailing zeros
    (roots at z = 0), so by Enestrom-Kakeya every root other than z = 1 lies
    in |z| <= this ratio; below one, the recurrence is stable.
    """
    tail = dyn.conserved_weights()
    tail = tail[tail > 0]
    return float(np.max(tail[1:] / tail[:-1]))


def test_recurrence_is_stable_by_enestrom_kakeya():
    for name in ("fig2a.cfg", "fig2b.cfg", "fig3.cfg", "const.cfg"):
        cfg, params, eq, _ = _bundled_model(name)
        assert _kakeya_ratio(_PsiDynamics.build(eq, params, cfg.dt)) < 1.0, name
    for age_nodes, mu, k0, _ in SCREEN_KERNELS:
        eq, params = motherhood_model(age_nodes, mu, k0)
        dt = params.h / max(1, round(params.h / 0.005))  # the kernel screen's dt, as load_config snaps it
        assert _kakeya_ratio(_PsiDynamics.build(eq, params, dt)) < 1.0, (age_nodes, mu, k0)
    # fig2a: the bound, and the largest root but z = 1 from the companion matrix
    _, params, eq, _ = _bundled_model("fig2a.cfg")
    dyn = _PsiDynamics.build(eq, params, params.h)
    bound = _kakeya_ratio(dyn)
    assert bound == pytest.approx(0.99986877, abs=1e-8)
    tail = dyn.conserved_weights()
    radius = float(np.max(np.abs(np.roots(tail[tail > 0]))))
    assert radius == pytest.approx(0.99066, abs=1e-5) and radius < bound


def test_enestrom_kakeya_does_not_certify_a_kernel_with_a_gap():
    # a kernel that is zero on [0.8, 1.2] leaves T_j flat there: ratio 1
    a = np.linspace(0.0, 2.0, 401)
    mk = lambda v: GridFunction(np.broadcast_to(v, a.shape).astype(float), 2.0)
    k = 2.0 * a * (2.0 - a) * (np.abs(a - 1.0) > 0.2)
    params = ModelParams(mu=mk(0.1), k=mk(k), p=mk(1.0), a_max=2.0, d_min=0.5, d_max=1.5)
    eq = solve_equilibrium(params)
    assert _kakeya_ratio(_PsiDynamics.build(eq, params, params.h)) == 1.0


def _flat_history(buf, c):
    """A history of the same nodes as ``buf`` holding the constant c."""
    return HistoryBuffer(buf.t0, buf.dt, np.full_like(buf.val, c), np.zeros_like(buf.der))


def test_step_psi_constant_fixed_point(trial):
    eq, params = trial["eq"], trial["params"]
    state = init_delay_state(eq.x_star, eq, params, params.h)
    c = 0.37
    flat = _flat_history(state.buffer, c)
    history = _advance_psi(state.dyn, flat, 200)
    # the a_j sum to one, so a constant solves the recurrence
    assert np.max(np.abs(history.val - c)) < 1e-14
    # the history it extends is left as it was
    assert len(flat.val) == len(state.buffer.val) and np.all(flat.val == c) and np.all(flat.der == 0.0)


def test_ide_identity_along_run(fig2a_runs):
    trace = fig2a_runs["oracle"]
    for t in (0.5, 1.0, 2.0):
        assert trace.ide_residual(t) < 1e-6


def test_ide_identity_is_not_read_on_the_recurrence_rule(trial):
    # the check's rule is four times finer than the buffer grid at every q, so
    # it never reads the recurrence back: at t = 0.5 it reads 4.79e-7, 1.2e-7
    # and 3.0e-8 at q = 1, 2 and 4, second order from psi's slope jump at
    # t = 0; a rule four times finer than the age grid read 2.3e-13 at q = 4
    eq, params, gains, x0, traj = (trial[k] for k in ("eq", "params", "gains", "x0", "traj"))
    residuals = [
        simulate_closed_loop(x0, traj, eq, gains, params, 1.0, params.h / q).ide_residual(0.5) for q in (1, 2, 4)
    ]
    assert residuals[0] < 1e-6 and residuals[2] > 1e-8
    assert 3.5 < residuals[0] / residuals[1] < 4.5 and 3.5 < residuals[1] / residuals[2] < 4.5


def test_delta_zero_history(trial):
    eq, params = trial["eq"], trial["params"]
    state = init_delay_state(eq.x_star, eq, params, params.h)
    dlt = _delta_grid(state.dyn, state.buffer)
    assert dlt.shape == (1,) and abs(dlt[0]) < 1e-14


def test_delta_bound_random_windows(trial, trial_cert):
    # |ln(1 + <g, psi>)| <= e^{sigma A} W / C for windows above the floor
    eq, params = trial["eq"], trial["params"]
    sigma = trial_cert.sigma
    rng = np.random.default_rng(11)
    decay = np.exp(-sigma * params.nodes)
    w = params.weights
    for _ in range(200):
        psi = rng.uniform(-0.95, 3.0, params.mu.n)
        val = abs(math.log(1.0 + float(w @ (eq.g.values * psi))))
        w_norm = float(np.max(decay * np.abs(psi)))
        floor = 1.0 + min(0.0, float(psi.min()))
        assert val <= math.exp(sigma * params.a_max) * w_norm / floor + 1e-12


def test_delta_log_domain_on_corrupted_history(trial):
    from agechemo.errors import LogDomain

    eq, params = trial["eq"], trial["params"]
    state = init_delay_state(eq.x_star, eq, params, params.h)
    corrupted = _flat_history(state.buffer, -2.0)  # below the reconstruction floor
    with pytest.raises(LogDomain, match="at t = 0$"):
        _delta_grid(state.dyn, corrupted)


def test_delta_matches_direct_quadrature(trial, fig2a_runs):
    trace = fig2a_runs["oracle"]
    params, eq = trial["params"], trial["eq"]
    i = int(round(1.0 / params.h))
    ((_, block),) = trace.windows(np.array([i]))
    window = block[0]
    n = len(window)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= params.h / 3.0
    expected = math.log(1.0 + float(w @ (eq.g.values * window)))
    assert trace.delta[i] == pytest.approx(expected, abs=1e-12)


def test_closed_loop_fixed_point(trial):
    eq, params, g = trial["eq"], trial["params"], trial["gains"]
    gains = ControllerGains(g.gamma, g.l1, g.l2, (0.0, eq.d_star))
    trace = simulate_closed_loop(eq.x_star, make_constant(1.0), eq, gains, params, 100 * params.h, params.h)
    assert len(trace.t) == 101
    assert np.max(np.abs(trace.eta)) < 1e-12
    assert np.max(np.abs(trace.z1)) < 1e-12
    assert np.max(np.abs(trace.z2 - eq.d_star)) < 1e-12
    assert np.max(np.abs(trace.d - eq.d_star)) < 1e-12


def test_open_loop_equilibrium_input_freezes_eta(trial):
    eq, params, gains, x0 = trial["eq"], trial["params"], trial["gains"], trial["x0"]
    traj = make_constant(1.0)
    trace = simulate_closed_loop(
        x0, traj, eq, gains, params, 1.0, params.h, d_override=lambda t: eq.d_star
    )
    assert np.max(np.abs(trace.eta - trace.eta[0])) < 1e-12


def test_reconstruct_exact_tracking(trial):
    eq, params, gains = trial["eq"], trial["params"], trial["gains"]
    traj = make_constant(2.5)
    x0 = eq.x_star.with_values(2.5 * eq.x_star.values)
    trace = simulate_closed_loop(x0, traj, eq, gains, params, params.h, params.h, (0.0,))
    assert np.allclose(trace.snapshots[0.0].values, 2.5 * eq.x_star.values, rtol=1e-10)
    assert trace.y[0] == pytest.approx(2.5, rel=1e-10)


def test_reconstruct_output_consistency(trial, fig2a_runs):
    # <p, profile> equals the reconstructed output within quadrature tolerance
    eq, params, gains, x0, traj = (
        trial["eq"],
        trial["params"],
        trial["gains"],
        trial["x0"],
        trial["traj"],
    )
    start = simulate_closed_loop(x0, traj, eq, gains, params, params.h, params.h, (0.0,))
    assert 0.0 in start.snapshots
    for trace in (start, fig2a_runs["oracle"]):
        for t_snap, profile in trace.snapshots.items():
            i = int(round(t_snap / params.h))
            y_profile = float(params.weights @ (params.p.values * profile.values))
            assert y_profile == pytest.approx(trace.y[i], rel=1e-10)
            assert np.all(profile.values > 0)


def test_psi_input_independence_bitwise(trial):
    eq, params, gains, x0, traj = (
        trial["eq"],
        trial["params"],
        trial["gains"],
        trial["x0"],
        trial["traj"],
    )
    closed = simulate_closed_loop(x0, traj, eq, gains, params, 1.0, params.h)
    forced = simulate_closed_loop(
        x0, traj, eq, gains, params, 1.0, params.h, d_override=lambda t: 1.3
    )
    assert np.array_equal(closed.buffer.node_values(), forced.buffer.node_values())
    assert not np.array_equal(closed.d, forced.d)


def test_psi_history_independent_of_gains_and_reference_bitwise(trial):
    eq, params, gains, x0, traj = (
        trial["eq"],
        trial["params"],
        trial["gains"],
        trial["x0"],
        trial["traj"],
    )
    other_gains = ControllerGains(3.0, 5.0, 9.0, (0.1, 0.9))
    assert other_gains != gains
    base = simulate_closed_loop(x0, traj, eq, gains, params, 1.0, params.h)
    other = simulate_closed_loop(x0, make_constant(2.0), eq, other_gains, params, 1.0, params.h)
    assert np.array_equal(base.buffer.val, other.buffer.val)
    assert np.array_equal(base.buffer.der, other.buffer.der)
    assert not np.array_equal(base.eta, other.eta)
    assert not np.array_equal(base.d, other.d)


def test_history_gap_raised(trial):
    eq, params = trial["eq"], trial["params"]
    state = init_delay_state(eq.x_star, eq, params, params.h)
    with pytest.raises(HistoryGap):
        state.buffer.eval(-3.0)
    with pytest.raises(HistoryGap):
        state.buffer.eval(1.0)


def test_history_eval_stops_at_newest_node(trial):
    eq, params, gains, x0, traj = (
        trial["eq"],
        trial["params"],
        trial["gains"],
        trial["x0"],
        trial["traj"],
    )
    dt = params.h
    start = init_delay_state(x0, eq, params, dt)
    trace = simulate_closed_loop(x0, traj, eq, gains, params, 0.5, dt)
    for history in (start.buffer, trace.buffer):
        history.eval(history.t_last)  # the newest node itself is stored
        with pytest.raises(HistoryGap):
            history.eval(history.t_last + dt)
        with pytest.raises(HistoryGap):
            history.eval(history.t_last + 0.5 * dt)
    assert trace.buffer.t_last == pytest.approx(trace.t[-1], abs=1e-12)


def test_step_halving_convergence(trial):
    eq, params, gains, x0, traj = (
        trial["eq"],
        trial["params"],
        trial["gains"],
        trial["x0"],
        trial["traj"],
    )
    h = params.h

    def eta_at_two(dt):
        trace = simulate_closed_loop(x0, traj, eq, gains, params, 2.0, dt)
        return trace.eta[-1]

    e_ref = eta_at_two(h / 4)
    err1 = abs(eta_at_two(h) - e_ref)
    err2 = abs(eta_at_two(h / 2) - e_ref)
    assert err1 / max(err2, 1e-16) > 4.0


TRACE_FIELDS = ("eta", "delta", "z1", "z2", "d", "y", "log_error")


@pytest.mark.parametrize("case", [*DT_OF, "h-open-loop"])
def test_simulate_matches_hermite_reference(trial, case):
    eq, params, gains, x0, traj = (
        trial["eq"],
        trial["params"],
        trial["gains"],
        trial["x0"],
        trial["traj"],
    )
    forced = case == "h-open-loop"
    dt = params.h if forced else DT_OF[case](params.h)
    override = (lambda t: 1.0 + 0.2 * math.sin(3.0 * t)) if forced else None
    args = (x0, traj, eq, gains, params, 2.0, dt, (1.0, 2.0), override)
    if case in REFUSED:
        with pytest.raises(ValueError, match="^dt must divide the age step h"):
            simulate_closed_loop(*args)
        return
    trace = simulate_closed_loop(*args)
    ref = reference_closed_loop(*args)
    for name in TRACE_FIELDS:
        np.testing.assert_allclose(getattr(trace, name), ref[name], rtol=0, atol=1e-12, err_msg=name)
    np.testing.assert_allclose(trace.buffer.node_values(), ref["psi"], rtol=0, atol=1e-12)
    assert trace.snapshots.keys() == ref["snapshots"].keys()
    for t_snap, profile in trace.snapshots.items():
        np.testing.assert_allclose(profile.values, ref["snapshots"][t_snap], rtol=0, atol=1e-12)


def test_simulate_matches_hermite_reference_with_boundary_term(tmp_path):
    # kt(A) = 0 for the quadratic kernel; a constant one makes -kt(A) psi(t - A) live
    path = tmp_path / "flat.cfg"
    path.write_text(
        small_config_text(kind_block="kind = transition\ny0 = 1.0\ny_delta = 1.5\nt_delta = 4.0")
        .replace("k = quadratic-motherhood 2.00", "k = constant 1.0")
    )
    cfg = load_config(path)
    params = build_model(cfg)
    eq = solve_equilibrium(params)
    assert eq.k_tilde.values[-1] > 0.1
    traj = build_trajectory(cfg)
    args = (build_x0(cfg, params, eq), traj, eq, ControllerGains(cfg.gamma, cfg.l1, cfg.l2, cfg.z0), params)
    for dt in (params.h, params.h / 2):
        trace = simulate_closed_loop(*args, 2.0, dt)
        ref = reference_closed_loop(*args, 2.0, dt)
        for name in TRACE_FIELDS:
            np.testing.assert_allclose(getattr(trace, name), ref[name], rtol=0, atol=1e-12, err_msg=name)
        np.testing.assert_allclose(trace.buffer.node_values(), ref["psi"], rtol=0, atol=1e-12)


def _stored_windows(trace, q, idx):
    """The windows at trace nodes idx as explicit indices: node k at age node j is val[N + k - q j]."""
    n_hist = q * (len(trace.nodes) - 1)
    return trace.buffer.val[n_hist + idx[:, None] - q * np.arange(len(trace.nodes))]


def test_trace_windows_equal_window_bitwise(fig2a_runs, const_setup, fig3_report):
    # each row is the stored values, bit for bit; Hermite at the same times
    # lands within rounding of them (2.2e-16 on fig2a and const, 1.3e-18 on
    # fig3) but is exact on only a few rows
    for trace in (fig2a_runs["oracle"], const_setup["trace"], fig3_report.traces["oracle"]):
        idx = np.arange(0, len(trace.t), 7)
        covered = []
        for rows, block in trace.windows(idx):
            assert 0 < len(block) <= WINDOW_BLOCK
            assert np.array_equal(block, _stored_windows(trace, 1, idx[rows]))
            hermite = trace.buffer.eval(trace.t[idx[rows], None] - trace.nodes)
            assert np.max(np.abs(block - hermite)) <= 2.3e-16
            covered.extend(range(len(idx))[rows])
        assert covered == list(range(len(idx)))


def test_fig2a_at_two_buffer_steps_per_age_step_reads_windows_at_stride_two(tmp_path):
    # 201 nodes make h = 0.01, so the shipped dt = 0.005 is h/2: a window reads
    # every other stored value, and the run's checks read as they did through Hermite
    cfg = load_config(bundled_with(tmp_path, "fig2a.cfg", "age_nodes", "201"))
    assert cfg.dt == 0.005
    report = run(cfg)
    trace = report.traces["oracle"]
    idx = np.arange(len(trace.t))
    for rows, block in trace.windows(idx):
        assert np.array_equal(block, _stored_windows(trace, 2, idx[rows]))
    assert report.render().split("[checks]\n")[1].split("\n\n")[0].splitlines() == [
        "galerkin_positivity          PASS  min profile 0.147",
        "oracle_ide_identity          PASS  max residual 4.79e-07",
        "oracle_output_consistency    PASS  max gap < 1e-12",
        "history_decay                PASS  W0 0.155, monotone True, envelope True, floor True",
        "clf_decay                    PASS  0 violations / 240 samples (slack 15.8)",
        "route_agreement              PASS  y gap 0.001696 (budget 0.05)",
        "setpoint_reached             PASS  y(t_delta) = 3 vs 3 (rel 7.32e-10)",
    ]
