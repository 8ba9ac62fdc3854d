import math

import numpy as np
import pytest

from agechemo import controller
from agechemo.controller import ControllerGains, ScalarLoop
from agechemo.errors import NonPositiveOutput
from agechemo.galerkin import assemble, simulate
from agechemo.trajectories import make_constant, make_transition
from oracles import reference_sweep


def _applied(loop, y, traj, z2, t):
    """The input the loop's law applies at measured output y and observer state z2."""
    return loop.rhs(math.log(y / float(traj.eval(t))), 0.0, z2, float(traj.rate(t)), 0.0)[3]


def _observer_matrix(gains):
    """The linear part of (z1', z2') in (z1, z2), read off ScalarLoop.rhs (affine in z)."""
    f = lambda z1, z2: np.array(ScalarLoop.of(gains).rhs(0.0, z1, z2, 0.0, 0.0, 0.0)[1:3])
    return np.column_stack([f(1.0, 0.0) - f(0.0, 0.0), f(0.0, 1.0) - f(0.0, 0.0)])


def test_saturate_cases():
    # with no log error and no reference rate the law is z2, clamped to [0.5, 1.5]
    loop = ScalarLoop(2.0, 4.0, 8.0, 0.0, 0.5, 1.5)
    assert loop.rhs(0.0, 0.0, 1.0, 0.0, 0.0)[3] == 1.0
    assert loop.rhs(0.0, 0.0, 2.3, 0.0, 0.0)[3] == 1.5
    assert loop.rhs(0.0, 0.0, -1.0, 0.0, 0.0)[3] == 0.5
    with pytest.raises(ValueError):
        ScalarLoop(2.0, 4.0, 8.0, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("d_min, d_max", [(0.5, 1.5), (0.0, 1.0), (-1.0, -0.0), (-math.inf, math.inf)])
def test_saturation_is_the_builtin_clamp_on_edge_values(d_min, d_max):
    # the clamp must be min(d_max, max(d_min, x)) bit for bit, so compare
    # reprs: NaN and the sign of zero count. With z2 = -0.0 and a log error of
    # -0.0 the law's unclamped value -0.0 - rate is x itself, -0.0 included.
    loop = ScalarLoop(2.0, 4.0, 8.0, 0.0, d_min, d_max)
    edges = [math.nan, -math.inf, math.inf, 0.0, -0.0]
    for bound in (d_min, d_max):
        if math.isfinite(bound):
            edges += [bound, -bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
    for x in edges:
        assert repr(loop.rhs(-0.0, 0.0, -0.0, -x, -0.0)[3]) == repr(min(d_max, max(d_min, x))), x


def test_gain_validation():
    with pytest.raises(ValueError):
        ControllerGains(0.0, 4.0, 8.0)


def test_equilibrium_input(trial):
    # perfect tracking with the correct adaptation state applies exactly d*
    eq = trial["eq"]
    traj = make_constant(1.0)
    loop = ScalarLoop.of(trial["gains"], d_min=0.5, d_max=1.5)
    assert float(traj.rate(0.0)) == 0.0  # no feedforward
    assert _applied(loop, 1.0, traj, eq.d_star, 0.0) == eq.d_star
    assert 0.5 < eq.d_star < 1.5  # not saturated


def test_trial_initial_control(trial):
    # worst-case initial guess z02 = d_min with matched output: the applied
    # input starts at the lower bound
    gains, traj = trial["gains"], trial["traj"]
    loop = ScalarLoop.of(gains, d_min=0.5, d_max=1.5)
    assert gains.z0[1] == 0.5
    assert _applied(loop, float(traj.eval(0.0)), traj, gains.z0[1], 0.0) == 0.5


def test_control_rejects_nonpositive_output(trial, trial_basis):
    # the law reads log(y / y_ref), so a route stops before it feeds the
    # loop an output y <= 0
    params = trial["params"]
    system = assemble(trial_basis, params)
    system.p_vector = -system.p_vector
    with pytest.raises(NonPositiveOutput, match=r"^modal output p\^T mu = \S+ <= 0 at t = 0$"):
        simulate(system, trial_basis, trial["traj"], trial["gains"], params, 1.0, params.h)


def test_saturation_flag(trial):
    gains = trial["gains"]
    traj = make_constant(1.0)
    raw = _applied(ScalarLoop.of(gains), 5.0, traj, 1.0, 0.0)
    assert raw > 1.5
    assert _applied(ScalarLoop.of(gains, d_min=0.5, d_max=1.5), 5.0, traj, 1.0, 0.0) == 1.5


def test_observer_fixed_point(trial):
    eq, gains = trial["eq"], trial["gains"]
    traj = make_constant(1.0)
    loop = ScalarLoop.of(gains, d_star=eq.d_star)
    # D = D* + D_FF and matched output: the observer stands still
    rhs = loop.rhs(0.0, 0.0, eq.d_star, 0.0, 0.0, eq.d_star)
    assert np.allclose(rhs[:3], 0.0, atol=1e-15)
    _, hist, _, _, _ = loop.sweep(traj, 0.01, (0.0, 0.0, eq.d_star), np.zeros(3), lambda t: eq.d_star)
    assert np.allclose(hist[1:, 1], [0.0, eq.d_star], atol=1e-14)


def test_observer_affine_superposition(trial):
    loop = ScalarLoop.of(trial["gains"])
    za, zb = np.array([0.3, -0.7]), np.array([-1.1, 0.4])
    # log error 0.2, reference rate 0.1, applied input 0.9
    f = lambda z: np.array(loop.rhs(0.2, z[0], z[1], 0.1, 0.0, 0.9)[1:3])
    lhs = f(za) + f(zb) - f(np.zeros(2))
    assert np.allclose(lhs, f(za + zb), atol=1e-14)


def test_observer_eigenvalues_trial_gains():
    # l = (4, 8): both eigenvalues sit at real part -2 (a conjugate pair,
    # not a repeated real root)
    gains = ControllerGains(2.0, 4.0, 8.0)
    assert np.array_equal(_observer_matrix(gains), [[-4.0, 1.0], [-8.0, 0.0]])
    eigs = np.linalg.eigvals(_observer_matrix(gains))
    assert np.allclose(sorted(eigs.real), [-2.0, -2.0], atol=1e-12)
    assert np.allclose(sorted(eigs.imag), [-2.0, 2.0], atol=1e-12)


def test_scalar_loop_fourth_order():
    # matched output, no input: (z1, z2)' = observer matrix (z1, z2), eta' = 0
    gains = ControllerGains(2.0, 4.0, 8.0)
    vals, vecs = np.linalg.eig(_observer_matrix(gains))
    exact = (vecs @ np.diag(np.exp(vals)) @ np.linalg.solve(vecs, [1.0, 0.0])).real
    loop = ScalarLoop.of(gains)

    def err(dt):
        n = int(round(1.0 / dt))
        _, hist, _, _, _ = loop.sweep(make_constant(1.0), dt, (0.0, 1.0, 0.0), np.zeros(2 * n + 1), lambda t: 0.0)
        return float(np.max(np.abs(hist[1:, -1] - exact)))

    assert err(0.01) / err(0.005) > 12


def test_model_blindness_identical_output_streams(trial):
    """Two plants with the same log error get the same input and observer flow."""
    gains = trial["gains"]
    # d_star, the plant's growth rate, enters eta' only
    plant_a = ScalarLoop.of(gains, d_star=0.3, d_min=0.5, d_max=1.5)
    plant_b = ScalarLoop.of(gains, d_star=1.7, d_min=0.5, d_max=1.5)
    rng = np.random.default_rng(5)
    for _ in range(50):
        eta, z1, z2, rate, dlt = rng.normal(0.0, 1.0, 5).tolist()
        ra = plant_a.rhs(eta, z1, z2, rate, dlt)
        rb = plant_b.rhs(eta, z1, z2, rate, dlt)
        assert ra[1:] == rb[1:]
        assert ra[0] != rb[0]


def test_hard_input_bounds_random(trial):
    gains = trial["gains"]
    traj = make_transition(1.0, 3.0, 10.0)
    bounded, free = ScalarLoop.of(gains, d_min=0.5, d_max=1.5), ScalarLoop.of(gains)
    rng = np.random.default_rng(7)
    for _ in range(500):
        y = float(10.0 ** rng.uniform(-3, 3))
        z2 = float(rng.normal(0, 10))
        t = float(rng.uniform(0, 20))
        d_applied = _applied(bounded, y, traj, z2, t)
        assert 0.5 <= d_applied <= 1.5
        assert d_applied == min(1.5, max(0.5, _applied(free, y, traj, z2, t)))


def _recorded_sweep(monkeypatch, name):
    """The (loop, args) that the delay route hands ScalarLoop.sweep on a bundled config."""
    from conftest import bundled

    from agechemo import load_config, simulate_closed_loop, solve_equilibrium
    from agechemo.config import build_model, build_trajectory, build_x0

    cfg = load_config(bundled(name + ".cfg"))
    params = build_model(cfg)
    eq = solve_equilibrium(params)
    traj = build_trajectory(cfg)
    gains = ControllerGains(cfg.gamma, cfg.l1, cfg.l2, cfg.z0)
    calls = []
    sweep = ScalarLoop.sweep

    def spy(loop, *args):
        calls.append((loop, args))
        return sweep(loop, *args)

    with monkeypatch.context() as m:
        m.setattr(ScalarLoop, "sweep", spy)
        simulate_closed_loop(build_x0(cfg, params, eq), traj, eq, gains, params, cfg.t_final, cfg.dt)
    (loop, args), = calls
    return loop, args


def _assert_sweep_matches_reference(loop, traj, dt, u0, delta, d_override):
    """sweep equals the stepwise reference fed the clock t_k = k dt, bitwise."""
    t, hist, d, y_ref, y = loop.sweep(traj, dt, u0, delta, d_override)
    assert np.array_equal(t, dt * np.arange(len(delta) // 2 + 1))
    ref_hist, ref_d = reference_sweep(loop, traj, t, dt, u0, delta, d_override)
    assert np.array_equal(hist, ref_hist) and np.array_equal(d, ref_d)
    assert np.array_equal(y_ref, traj.eval(t)) and np.array_equal(y, y_ref * np.exp(hist[0] + delta[0::2]))
    return d


@pytest.mark.parametrize("name, bound", [("fig2a", None), ("fig2b", "d_max"), ("fig3", "d_min")])
def test_sweep_matches_stepwise_reference(monkeypatch, name, bound):
    loop, args = _recorded_sweep(monkeypatch, name)
    d = _assert_sweep_matches_reference(loop, *args)
    if bound is not None:
        # saturation active for a stretch of the run, not only at t = 0
        assert np.sum(d[1:] == getattr(loop, bound)) > 10


def test_sweep_d_override_and_ragged_chunks(monkeypatch):
    loop, (traj, dt, u0, delta, _) = _recorded_sweep(monkeypatch, "fig2a")
    n_steps = len(delta) // 2
    assert n_steps % controller.SWEEP_CHUNK and n_steps % 7
    override = lambda t: 1.0 + 0.3 * np.sin(t)
    for chunk in (controller.SWEEP_CHUNK, 7, n_steps + 5):
        monkeypatch.setattr(controller, "SWEEP_CHUNK", chunk)
        for d_override in (None, override):
            _assert_sweep_matches_reference(loop, traj, dt, u0, delta, d_override)


def test_scalar_loop_checks_bounds_once_built(trial):
    with pytest.raises(ValueError, match="lo < hi"):
        ScalarLoop.of(trial["gains"], d_min=1.5, d_max=0.5)
