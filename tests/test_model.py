import numpy as np
import pytest

from agechemo.config import build_x0, load_config
from agechemo.delay import init_delay_state
from agechemo.errors import DegenerateShape, InvalidIC, NoRoot, ValidationError
from agechemo.galerkin import build_basis
from agechemo.grid import GridFunction
from agechemo.model import (
    ModelParams,
    calibrate_birth_modulus,
    check_initial_condition,
    compatibility_gap,
    lotka_sharpe_residual,
    solve_equilibrium,
)
from conftest import bundled_with
from oracles import K0, MU, lotka_sharpe_highres, simpson_highres


def test_residual_near_zero_at_unit_dilution(trial):
    assert abs(lotka_sharpe_residual(1.0, trial["params"])) < 1e-3


def test_residual_limit_minus_one(trial):
    # the kernel term dies off; the decay is only as sharp as the grid resolves
    assert lotka_sharpe_residual(50.0, trial["params"]) == pytest.approx(-1.0, abs=2e-3)
    assert lotka_sharpe_residual(1e4, trial["params"]) == pytest.approx(-1.0, abs=1e-12)


def test_residual_against_quadrature_oracle(trial):
    expected = lotka_sharpe_highres(0.5)
    got = lotka_sharpe_residual(0.5, trial["params"])
    assert got == pytest.approx(expected, abs=1e-9)
    assert got > 0


def test_residual_strictly_decreasing(trial):
    ds = np.linspace(0.0, 3.0, 31)
    vals = [lotka_sharpe_residual(d, trial["params"]) for d in ds]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_equilibrium_dilution_rate(trial):
    eq = trial["eq"]
    assert eq.d_star == pytest.approx(1.0, abs=0.01)
    assert abs(lotka_sharpe_residual(eq.d_star, trial["params"])) < 1e-10


def test_equilibrium_normalizations(trial):
    eq, params = trial["eq"], trial["params"]
    w = params.weights
    assert float(w @ eq.k_tilde.values) == pytest.approx(1.0, abs=1e-12)
    assert float(w @ (params.p.values * eq.x_star.values)) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(eq.g.values, eq.x_star.values * params.p.values)


def test_equilibrium_profile_against_closed_form(trial):
    # x*(0) = 1 / int_0^A e^{-(d*+mu) s} ds for the unit output weight
    eq = trial["eq"]
    denom = simpson_highres(lambda s: np.exp(-(eq.d_star + MU) * s), 0.0, 2.0)
    assert eq.x_star.values[0] == pytest.approx(1.0 / denom, rel=1e-9)


def test_equilibrium_steady_pde(trial):
    # x*'(a) + (mu + d_star) x*(a) at interior nodes, by central differences
    eq, params = trial["eq"], trial["params"]
    v = eq.x_star.values
    defect = (v[2:] - v[:-2]) / (2 * params.h) + (params.mu.values[1:-1] + eq.d_star) * v[1:-1]
    scale = float(np.max(trial["eq"].x_star.values))
    assert np.max(np.abs(defect)) < 1e-4 * scale


def test_precalibrated_kernel_gives_zero_dilution(trial):
    # scaling k so the renewal integral is one at d = 0 puts the root there
    params = trial["params"]
    w = params.weights
    scale = 1.0 / float(w @ (params.k.values * params.survival(0.0)))
    calib = ModelParams(
        mu=params.mu,
        k=params.k.with_values(scale * params.k.values),
        p=params.p,
        a_max=params.a_max,
        d_min=params.d_min,
        d_max=params.d_max,
    )
    eq0 = solve_equilibrium(calib)
    assert abs(eq0.d_star) < 1e-9


def test_no_root_when_kernel_too_weak(trial):
    params = trial["params"]
    weak = ModelParams(
        mu=params.mu,
        k=params.k.with_values(params.k.values * 1e-3),
        p=params.p,
        a_max=params.a_max,
        d_min=params.d_min,
        d_max=params.d_max,
    )
    with pytest.raises(NoRoot):
        solve_equilibrium(weak)


def test_calibration_matches_trial_value(trial):
    params = trial["params"]
    shape = params.k.with_values(params.k.values / K0)
    c = calibrate_birth_modulus(shape, 1.0, params)
    assert c == pytest.approx(2.00, abs=0.01)
    expected = 1.0 / simpson_highres(lambda a: a * (2.0 - a) * np.exp(-1.1 * a), 0.0, 2.0)
    assert c == pytest.approx(expected, rel=1e-9)


def test_calibration_identity_and_equivariance(trial):
    params, eq = trial["params"], trial["eq"]
    calibrated = params.k.with_values(params.k.values / 1.0)
    # k already satisfies the condition at d_star, so the scale is one
    assert calibrate_birth_modulus(calibrated, eq.d_star, params) == pytest.approx(1.0, rel=1e-10)
    c1 = calibrate_birth_modulus(params.k, 1.0, params)
    c3 = calibrate_birth_modulus(params.k.with_values(3.0 * params.k.values), 1.0, params)
    assert c3 == pytest.approx(c1 / 3.0, rel=1e-12)


def test_calibration_constant_shape_closed_form():
    n = 101
    mk = lambda v: GridFunction(np.full(n, v), 1.0)
    params = ModelParams(mu=mk(0.0), k=mk(1.0), p=mk(1.0), a_max=1.0, d_min=0.1, d_max=2.0)
    c = calibrate_birth_modulus(mk(1.0), 1.0, params)
    assert c == pytest.approx(1.0 / (1.0 - np.exp(-1.0)), rel=1e-9)


def test_calibration_degenerate_shape(trial):
    params = trial["params"]
    zero = params.k.with_values(np.zeros(params.k.n))
    with pytest.raises(DegenerateShape):
        calibrate_birth_modulus(zero, 1.0, params)


def test_initial_condition_repaired_profile(trial):
    # the compatibility-repaired trial profile is admissible and normalized
    x0, params = trial["x0"], trial["params"]
    check_initial_condition(x0, params)
    assert x0.integral() == pytest.approx(1.0, abs=0.01)


def test_initial_condition_equilibrium_profile(trial):
    check_initial_condition(trial["eq"].x_star, trial["params"])


def test_initial_condition_literal_profile_is_inadmissible(trial):
    # the literal -0.054 a + e^{-1.30 a} profile fails on both counts:
    # negative near the maximum age and boundary-incompatible
    params = trial["params"]
    a = params.nodes
    literal = GridFunction(-0.054 * a + np.exp(-1.30 * a), params.a_max)
    assert literal.values.min() < 0
    oracle_mass = simpson_highres(lambda s: -0.054 * s + np.exp(-1.30 * s), 0.0, 2.0)
    assert literal.integral() == pytest.approx(oracle_mass, abs=1e-9)
    assert abs(oracle_mass - 1.0) > 0.3
    with pytest.raises(InvalidIC, match="not positive everywhere"):
        check_initial_condition(literal, params)


def test_initial_condition_flat_profile_mismatch(trial):
    params = trial["params"]
    flat = GridFunction(np.ones(params.mu.n), params.a_max)
    gap = compatibility_gap(flat, params)
    oracle_gap = 1.0 - simpson_highres(lambda a: K0 * a * (2.0 - a), 0.0, 2.0)
    assert gap == pytest.approx(oracle_gap, abs=1e-9)
    with pytest.raises(InvalidIC, match="not boundary-compatible"):
        check_initial_condition(flat, params)


@pytest.mark.parametrize(
    "slope, decay, failed",
    [(-0.054, 1.30, "profile not positive everywhere"), (0.0, 1.0, "profile not boundary-compatible")],
)
def test_initial_condition_one_rule_for_every_reader(tmp_path, trial, trial_roots, slope, decay, failed):
    # both routes refuse the profile with the rule's own text; the config
    # loader names the key in front of it
    params, eq, traj = trial["params"], trial["eq"], trial["traj"]
    x0 = GridFunction(slope * params.nodes + np.exp(-decay * params.nodes), params.a_max)
    with pytest.raises(InvalidIC, match=failed) as rule:
        check_initial_condition(x0, params)
    text = str(rule.value)
    with pytest.raises(InvalidIC) as delay_route:
        init_delay_state(x0, traj, eq, params, params.h)
    with pytest.raises(InvalidIC) as galerkin_route:
        build_basis(x0, eq, trial_roots, 6, params)
    assert str(delay_route.value) == str(galerkin_route.value) == text
    cfg = load_config(bundled_with(tmp_path, "fig2a.cfg", "x0", "linear-exp %r %r" % (slope, decay)))
    with pytest.raises(ValidationError) as loader:
        build_x0(cfg, params, eq)
    assert str(loader.value) == "[model] x0: " + text
