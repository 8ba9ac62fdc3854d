import numpy as np
import pytest

from agechemo import controller
from agechemo.controller import (
    ControllerGains,
    ScalarLoop,
    control,
    observer_matrix,
    observer_rhs,
    observer_step,
    saturate,
)
from agechemo.errors import NonPositiveOutput
from agechemo.trajectories import make_constant, make_transition
from oracles import reference_sweep


def test_saturate_cases():
    assert saturate(1.0, 0.5, 1.5) == 1.0
    assert saturate(2.3, 0.5, 1.5) == 1.5
    assert saturate(-1.0, 0.5, 1.5) == 0.5
    with pytest.raises(ValueError):
        saturate(0.0, 1.0, 1.0)


def test_gain_validation():
    with pytest.raises(ValueError):
        ControllerGains(0.0, 4.0, 8.0)


def test_equilibrium_input(trial):
    # perfect tracking with the correct adaptation state applies exactly d*
    eq = trial["eq"]
    gains = trial["gains"]
    traj = make_constant(1.0)
    sample = control(1.0, traj, gains, np.array([0.0, eq.d_star]), 0.0, 0.5, 1.5)
    assert sample.d_applied == eq.d_star
    assert sample.d_ff == 0.0
    assert sample.log_error == 0.0
    assert not sample.saturated


def test_trial_initial_control(trial):
    # worst-case initial guess z02 = d_min with matched output: the applied
    # input starts at the lower bound
    gains, traj = trial["gains"], trial["traj"]
    sample = control(1.0, traj, gains, np.array(gains.z0), 0.0, 0.5, 1.5)
    assert gains.z0[1] == 0.5
    assert sample.d_applied == 0.5


def test_control_rejects_nonpositive_output(trial):
    with pytest.raises(NonPositiveOutput):
        control(0.0, trial["traj"], trial["gains"], np.zeros(2), 0.0, 0.5, 1.5)


def test_saturation_flag(trial):
    gains = trial["gains"]
    traj = make_constant(1.0)
    sample = control(5.0, traj, gains, np.array([0.0, 1.0]), 0.0, 0.5, 1.5)
    assert sample.saturated and sample.d_applied == 1.5


def test_observer_fixed_point(trial):
    eq, gains = trial["eq"], trial["gains"]
    traj = make_constant(1.0)
    z = np.array([0.0, eq.d_star])
    # D = D* + D_FF and matched output: the observer stands still
    rhs = observer_rhs(z, 0.0, 0.0, eq.d_star, gains)
    assert np.allclose(rhs, 0.0, atol=1e-15)
    z_next = observer_step(z, 1.0, traj, eq.d_star, gains, 0.0, 0.01)
    assert np.allclose(z_next, z, atol=1e-14)


def test_observer_affine_superposition(trial):
    gains = trial["gains"]
    za, zb = np.array([0.3, -0.7]), np.array([-1.1, 0.4])
    f = lambda z: observer_rhs(z, 0.2, -0.1, 0.9, gains)
    lhs = f(za) + f(zb) - f(np.zeros(2))
    assert np.allclose(lhs, f(za + zb), atol=1e-14)


def test_observer_eigenvalues_trial_gains():
    # l = (4, 8): both eigenvalues sit at real part -2 (a conjugate pair,
    # not a repeated real root)
    gains = ControllerGains(2.0, 4.0, 8.0)
    eigs = np.linalg.eigvals(observer_matrix(gains))
    assert np.allclose(sorted(eigs.real), [-2.0, -2.0], atol=1e-12)
    assert np.allclose(sorted(eigs.imag), [-2.0, 2.0], atol=1e-12)


def test_scalar_loop_fourth_order():
    # matched output, no input: (z1, z2)' = observer_matrix (z1, z2), eta' = 0
    gains = ControllerGains(2.0, 4.0, 8.0)
    vals, vecs = np.linalg.eig(observer_matrix(gains))
    exact = (vecs @ np.diag(np.exp(vals)) @ np.linalg.solve(vecs, [1.0, 0.0])).real
    loop = ScalarLoop.of(gains)

    def err(dt):
        n = int(round(1.0 / dt))
        t_node = dt * np.arange(n + 1)
        hist, _ = loop.sweep(make_constant(1.0), t_node, dt, (0.0, 1.0, 0.0), np.zeros(2 * n + 1), lambda t: 0.0)
        return float(np.max(np.abs(hist[1:, -1] - exact)))

    assert err(0.01) / err(0.005) > 12


def test_model_blindness_identical_output_streams(trial):
    """Two plants with identical measured outputs get identical controls."""
    gains, traj = trial["gains"], trial["traj"]

    class PlantA:
        scale = 17.3  # internals the controller must never see

        def output(self, t):
            return float(np.exp(0.1 * t))

    class PlantB:
        mortality = 0.42

        def output(self, t):
            return float(np.exp(0.1 * t))

    def drive(plant):
        z = np.array(gains.z0)
        ds = []
        for i in range(50):
            t = 0.05 * i
            sample = control(plant.output(t), traj, gains, z, t, 0.5, 1.5)
            ds.append(sample.d_applied)
            z = observer_step(z, plant.output(t), traj, sample.d_applied, gains, t, 0.05)
        return np.array(ds), z

    da, za = drive(PlantA())
    db, zb = drive(PlantB())
    assert np.array_equal(da, db)
    assert np.array_equal(za, zb)


def test_hard_input_bounds_random(trial):
    gains = trial["gains"]
    traj = make_transition(1.0, 3.0, 10.0)
    rng = np.random.default_rng(7)
    for _ in range(500):
        y = float(10.0 ** rng.uniform(-3, 3))
        z = rng.normal(0, 10, 2)
        t = float(rng.uniform(0, 20))
        sample = control(y, traj, gains, z, t, 0.5, 1.5)
        assert 0.5 <= sample.d_applied <= 1.5
        assert sample.d_applied == saturate(sample.d_ff + sample.d_fb, 0.5, 1.5)


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


@pytest.mark.parametrize("name, bound", [("fig2a", None), ("fig2b", "d_max"), ("fig3", "d_min")])
def test_sweep_matches_stepwise_reference(monkeypatch, name, bound):
    loop, args = _recorded_sweep(monkeypatch, name)
    hist, d = loop.sweep(*args)
    ref_hist, ref_d = reference_sweep(loop, *args)
    assert np.array_equal(hist, ref_hist) and np.array_equal(d, ref_d)
    if bound is not None:
        # saturation active for a stretch of the run, not only at t = 0
        assert np.sum(d[1:] == getattr(loop, bound)) > 10


def test_sweep_d_override_and_ragged_chunks(monkeypatch):
    loop, (traj, t_node, dt, u0, delta, _) = _recorded_sweep(monkeypatch, "fig2a")
    n_steps = len(t_node) - 1
    assert n_steps % controller.SWEEP_CHUNK and n_steps % 7
    override = lambda t: 1.0 + 0.3 * np.sin(t)
    for chunk in (controller.SWEEP_CHUNK, 7, n_steps + 5):
        monkeypatch.setattr(controller, "SWEEP_CHUNK", chunk)
        for d_override in (None, override):
            args = (traj, t_node, dt, u0, delta, d_override)
            hist, d = loop.sweep(*args)
            ref_hist, ref_d = reference_sweep(loop, *args)
            assert np.array_equal(hist, ref_hist) and np.array_equal(d, ref_d)


def test_scalar_loop_checks_bounds_once_built(trial):
    with pytest.raises(ValueError, match="lo < hi"):
        ScalarLoop.of(trial["gains"], d_min=1.5, d_max=0.5)
