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
from agechemo.grid import GridFunction, hermite_resample, simpson_weights, tail_integral
from agechemo.model import solve_equilibrium
from agechemo.trajectories import make_constant
from conftest import bundled_with, motherhood_model, small_config_text
from oracles import (
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
    state = init_delay_state(eq.x_star, traj, eq, params, params.h)
    assert abs(state.eta) < 1e-12
    assert np.max(np.abs(state.buffer.eval(-params.nodes))) < 1e-12


def test_init_weighted_mean_zero(trial):
    eq, params, x0, traj = trial["eq"], trial["params"], trial["x0"], trial["traj"]
    state = init_delay_state(x0, traj, eq, params, params.h)
    pi = pi_weight(eq, params)
    psi0 = state.buffer.eval(-params.nodes)
    mean = float(params.weights @ (pi.values * eq.x_star.values * psi0))
    assert abs(mean) < 1e-8


def test_init_eta_matches_functional(trial):
    eq, params, x0, traj = trial["eq"], trial["params"], trial["x0"], trial["traj"]
    state = init_delay_state(x0, traj, eq, params, params.h)
    # y_ref(0) = 1, so eta0 = ln Pi(x0)
    assert state.eta == pytest.approx(math.log(pi_functional(x0, eq, params)), abs=1e-8)


@pytest.mark.parametrize("age_nodes, dt_over_h", [(401, 1.0), (401, 0.5), (401, 2.0), (301, 0.75)])
def test_init_split_is_one_normalization(tmp_path, age_nodes, dt_over_h):
    # psi0's tail-weighted mean on the buffer grid vanishes to roundoff, and
    # eta0 is log Pi(x0) / y_ref(0): exactly at dt = h, where the buffer grid
    # is the age grid, and up to resampling error elsewhere
    cfg = load_config(bundled_with(tmp_path, "fig2a.cfg", "age_nodes", str(age_nodes)))
    params = build_model(cfg)
    eq = solve_equilibrium(params)
    x0, traj = build_x0(cfg, params, eq), build_trajectory(cfg)
    dt = dt_over_h * params.h
    state = init_delay_state(x0, traj, eq, params, dt)
    n_hist = len(state.buffer.val) - 1
    assert n_hist % 2 == 0  # every case here takes the buffer grid's Simpson weights
    ages = np.linspace(0.0, params.a_max, n_hist + 1)
    tail_b = hermite_resample(params.nodes, tail_integral(eq.k_tilde.values, params.h), ages)
    wb = simpson_weights(n_hist + 1, dt)
    mean = float(wb @ (tail_b * state.buffer.val[::-1])) / float(wb @ tail_b)
    assert abs(mean) < 1e-15
    eta_pi = math.log(pi_functional(x0, eq, params) / float(traj.eval(0.0)))
    assert abs(state.eta - eta_pi) < (1e-15 if dt_over_h == 1.0 else 1e-9)


def test_init_rejects_inadmissible_profile(trial):
    params, eq, traj = trial["params"], trial["eq"], trial["traj"]
    a = params.nodes
    literal = GridFunction(-0.054 * a + np.exp(-1.30 * a), params.a_max)
    with pytest.raises(InvalidIC):
        init_delay_state(literal, traj, eq, params, params.h)


def test_step_psi_zero_solution(trial):
    eq, params = trial["eq"], trial["params"]
    state = init_delay_state(eq.x_star, make_constant(1.0), eq, params, params.h)
    history = _advance_psi(state.dyn, state.buffer, 100)
    assert len(history.val) == len(state.buffer.val) + 100
    assert np.max(np.abs(history.node_values())) < 1e-14


#: horizons on both sides of the first block edges of ``_advance_psi``
PSI_STEPS = (0, 1, 31, 32, 33, 101)


def _assert_matches_stepwise_loop(dyn, buf):
    for n_steps in PSI_STEPS:
        history = _advance_psi(dyn, buf, n_steps)
        val, der = reference_advance_psi(dyn, buf, n_steps)
        assert len(history.val) == len(history.der) == len(val) == len(buf.val) + n_steps
        assert np.max(np.abs(history.val - val)) <= 1e-13, n_steps
        assert np.max(np.abs(history.der - der)) <= 1e-13, n_steps


@pytest.mark.parametrize(
    "dt_of", [lambda h: h / 2, lambda h: h, lambda h: 2 * h, lambda h: 2.0 / 267], ids=["h/2", "h", "2h", "2/267"]
)
def test_block_propagator_matches_stepwise_loop(trial, dt_of):
    eq, params, x0, traj = trial["eq"], trial["params"], trial["x0"], trial["traj"]
    state = init_delay_state(x0, traj, eq, params, dt_of(params.h))
    _assert_matches_stepwise_loop(state.dyn, state.buffer)


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
    for dt in (params.h, 2 * params.h):
        state = init_delay_state(build_x0(cfg, params, eq), build_trajectory(cfg), eq, params, dt)
        _assert_matches_stepwise_loop(state.dyn, state.buffer)


def test_block_propagator_matches_stepwise_loop_on_a_short_window():
    # 11 stored nodes: from the 12th row of a block on, every read is of a new node
    eq, params = motherhood_model(21, 0.1, 2.0)
    dt = 2 * params.h
    dyn = _PsiDynamics.build(eq, params, dt)
    assert dyn.n_hist + 1 < PSI_BLOCK
    t = np.linspace(-params.a_max, 0.0, dyn.n_hist + 1)
    buf = HistoryBuffer(-params.a_max, dt, 0.2 * np.sin(3.0 * t), 0.6 * np.cos(3.0 * t))
    _assert_matches_stepwise_loop(dyn, buf)


def test_psi_is_a_prefix_of_a_longer_run_bitwise(trial):
    # psi on [0, T] does not depend on the horizon it was stepped to
    eq, params, x0, traj = trial["eq"], trial["params"], trial["x0"], trial["traj"]
    state = init_delay_state(x0, traj, eq, params, params.h)
    longest = _advance_psi(state.dyn, state.buffer, 3 * PSI_BLOCK + 5)
    for n_steps in (0, 1, PSI_BLOCK - 1, PSI_BLOCK, PSI_BLOCK + 1, 2 * PSI_BLOCK + 7, 3 * PSI_BLOCK):
        history = _advance_psi(state.dyn, state.buffer, n_steps)
        size = len(history.val)
        assert np.array_equal(history.val, longest.val[:size]), n_steps
        assert np.array_equal(history.der, longest.der[:size]), n_steps


def _flat_history(buf, c):
    """A history of the same nodes as ``buf`` holding the constant c."""
    return HistoryBuffer(buf.t0, buf.dt, np.full_like(buf.val, c), np.zeros_like(buf.der))


def test_step_psi_constant_fixed_point(trial):
    eq, params = trial["eq"], trial["params"]
    state = init_delay_state(eq.x_star, make_constant(1.0), eq, params, params.h)
    c = 0.37
    flat = _flat_history(state.buffer, c)
    history = _advance_psi(state.dyn, flat, 200)
    assert abs(history.val[-1] - c) < 1e-6
    # the history it extends is left as it was
    assert len(flat.val) == len(state.buffer.val) and np.all(flat.val == c) and np.all(flat.der == 0.0)


def test_ide_identity_along_run(fig2a_runs):
    trace = fig2a_runs["oracle"]
    for t in (0.5, 1.0, 2.0):
        assert trace.ide_residual(t) < 1e-6


def test_delta_zero_history(trial):
    eq, params = trial["eq"], trial["params"]
    state = init_delay_state(eq.x_star, make_constant(1.0), eq, params, params.h)
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
    state = init_delay_state(eq.x_star, make_constant(1.0), eq, params, params.h)
    corrupted = _flat_history(state.buffer, -2.0)  # below the reconstruction floor
    with pytest.raises(LogDomain, match="at t = 0$"):
        _delta_grid(state.dyn, corrupted)


def test_delta_matches_direct_quadrature(trial, fig2a_runs):
    trace = fig2a_runs["oracle"]
    params, eq = trial["params"], trial["eq"]
    window = trace.window(1.0)
    n = len(window)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= params.h / 3.0
    expected = math.log(1.0 + float(w @ (eq.g.values * window)))
    i = int(round(1.0 / params.h))
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
    state = init_delay_state(eq.x_star, make_constant(1.0), eq, params, params.h)
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
    start = init_delay_state(x0, traj, eq, params, dt)
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


@pytest.mark.parametrize(
    "dt_of, forced",
    [
        (lambda h: h / 2, False),
        (lambda h: h, False),
        (lambda h: 2 * h, False),
        (lambda h: 2.0 / 267, False),
        (lambda h: h, True),
    ],
    ids=["h/2", "h", "2h", "2/267", "h-open-loop"],
)
def test_simulate_matches_hermite_reference(trial, dt_of, forced):
    # dt = 2h reads past the newest node (extrapolated stages); 2/267 makes h/dt non-integer
    eq, params, gains, x0, traj = (
        trial["eq"],
        trial["params"],
        trial["gains"],
        trial["x0"],
        trial["traj"],
    )
    dt = dt_of(params.h)
    override = (lambda t: 1.0 + 0.2 * math.sin(3.0 * t)) if forced else None
    args = (x0, traj, eq, gains, params, 2.0, dt, (1.0, 2.0), override)
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
    for dt in (params.h, 2 * params.h):
        trace = simulate_closed_loop(*args, 2.0, dt)
        ref = reference_closed_loop(*args, 2.0, dt)
        for name in TRACE_FIELDS:
            np.testing.assert_allclose(getattr(trace, name), ref[name], rtol=0, atol=1e-12, err_msg=name)
        np.testing.assert_allclose(trace.buffer.node_values(), ref["psi"], rtol=0, atol=1e-12)


def test_trace_windows_equal_window_bitwise(fig2a_runs):
    trace = fig2a_runs["oracle"]
    idx = np.arange(0, len(trace.t), 7)
    covered = []
    for rows, block in trace.windows(idx):
        assert 0 < len(block) <= WINDOW_BLOCK
        for i, row in zip(idx[rows], block, strict=True):
            assert np.array_equal(row, trace.window(trace.t[i]))
        covered.extend(range(len(idx))[rows])
    assert covered == list(range(len(idx)))
