import math

import numpy as np
import pytest

from agechemo import galerkin
from agechemo.config import build_model, build_trajectory, build_x0, load_config
from agechemo.controller import ControllerGains
from agechemo.errors import (
    AgeChemoError,
    DependentBasis,
    Instability,
    NonPositiveOutput,
    PositivityViolation,
    RootSearchExhausted,
)
from agechemo.galerkin import (
    GalerkinBasis,
    assemble,
    build_basis,
    _residual_map,
    characteristic_roots,
    simulate,
)
from agechemo.grid import GridFunction, hermite_resample, simpson_weights
from agechemo.model import ModelParams, solve_equilibrium
from agechemo.trajectories import make_constant
from conftest import SCREEN_KERNELS, bundled, motherhood_model
from oracles import char_residual_highres, reference_galerkin_loop, reference_polish

KNOWN_PAIRS = (-2.02 + 4.41j, -2.50 + 7.62j)


def test_trivial_root_present(trial_roots):
    assert any(abs(r) < 1e-9 for r in trial_roots)


def test_roots_match_known_pairs(trial_roots):
    nontrivial = sorted((r for r in trial_roots if r.imag > 0), key=lambda z: -z.real)
    for got, want in zip(nontrivial, KNOWN_PAIRS):
        assert abs(got.real - want.real) <= 0.02
        assert abs(got.imag - want.imag) <= 0.02


def test_roots_conjugate_closure(trial_roots):
    ups = {r for r in trial_roots if r.imag > 0}
    downs = {r for r in trial_roots if r.imag < 0}
    assert {r.conjugate() for r in ups} == downs


def test_roots_verified_by_independent_quadrature(trial, trial_roots):
    d_star = trial["eq"].d_star
    for r in trial_roots:
        assert abs(char_residual_highres(r, d_star)) < 1e-8


def test_root_count_ten(trial):
    roots = characteristic_roots(trial["eq"], trial["params"], 10)
    assert len(roots) == 9
    assert sum(1 for r in roots if r.imag > 0) == 4


def test_roots_keep_fourth_pair_by_real_part():
    # a kernel-screen draw on which a 360-start Newton grid skipped this pair
    eq, params = motherhood_model(271, 0.111592, 2.277297)
    roots = characteristic_roots(eq, params, 10)
    pairs = [r for r in roots if r.imag > 0]
    assert abs(pairs[3] - (-3.1706 + 13.9686j)) < 1e-3
    assert all(abs(r - (-3.3683 + 17.1292j)) > 1e-3 for r in roots)


def test_roots_certified_box_separates_kept_pairs(trial, trial_roots):
    # sigma_lo lies below every kept pair and above the next root, -2.8198+10.7956j
    assert min(r.real for r in trial_roots) > trial_roots.sigma_lo > -2.8198
    assert trial_roots.omega_cap == pytest.approx(np.pi / (4 * trial["params"].h))


def test_roots_certified_when_no_further_root_below_cap():
    # at 21 nodes only two pairs lie in |Im s| <= pi/(4h), so the box
    # extends a fixed margin below the last kept pair
    eq, params = motherhood_model(21, 0.1, 2.0)
    roots = characteristic_roots(eq, params, 6)
    assert roots.sigma_lo == pytest.approx(roots[3].real - 1.0)
    assert abs(roots[3] - (-2.4933 + 7.6159j)) < 1e-3


@pytest.mark.parametrize("drop", [0, 1, 2])
def test_root_certificate_detects_dropped_root(trial, monkeypatch, drop):
    polish = galerkin._polish_roots

    def lossy(*args):
        found = polish(*args)
        return found[:drop] + found[drop + 1 :]

    monkeypatch.setattr(galerkin, "_polish_roots", lossy)
    with pytest.raises(RootSearchExhausted, match="argument principle counts"):
        characteristic_roots(trial["eq"], trial["params"], 6)


def test_root_certificate_rejects_root_on_contour(trial, trial_roots):
    # a box edge through a root cannot be resolved by refinement
    eq, params = trial["eq"], trial["params"]
    nodes = np.linspace(0.0, params.a_max, 4 * (params.mu.n - 1) + 1)
    wk = simpson_weights(len(nodes), nodes[1] - nodes[0]) * hermite_resample(
        params.nodes, eq.k_tilde.values, nodes
    )
    cap = trial_roots.omega_cap
    assert galerkin._winding_number(wk, nodes, trial_roots[1].real + 1e-3, cap) == 1
    with pytest.raises(RootSearchExhausted, match="phase unresolved"):
        galerkin._winding_number(wk, nodes, trial_roots[1].real, cap)


def _roots_or_error(eq, params, count):
    try:
        roots = characteristic_roots(eq, params, count)
    except AgeChemoError as exc:
        return type(exc), str(exc)
    return list(roots), roots.sigma_lo, roots.omega_cap


def _model(name):
    """(eq, params, root count) of a bundled config, or of SCREEN_KERNELS[i] for "screen<i>"."""
    if name.startswith("screen"):
        n, mu, k0, count = SCREEN_KERNELS[int(name[6:])]
        return (*motherhood_model(n, mu, k0), count)
    cfg = load_config(bundled(name + ".cfg"))
    params = build_model(cfg)
    return solve_equilibrium(params), params, cfg.n_modes


@pytest.mark.parametrize(
    "name", ["fig2a", "fig2b", "fig3", "const"] + ["screen%d" % i for i in range(len(SCREEN_KERNELS))]
)
def test_roots_match_reference_polish_bitwise(monkeypatch, name):
    # giving up at damping 2**-10 drops only starts that the 1e-9 floor
    # also dropped: roots, box and errors keep every bit
    eq, params, count = _model(name)
    got = _roots_or_error(eq, params, count)
    monkeypatch.setattr(galerkin, "_polish", reference_polish)
    assert got == _roots_or_error(eq, params, count)


def _refined_rule(eq, params):
    """(kt, nodes, w, w * nodes) of the four-fold refined rule the polish runs on."""
    nodes = np.linspace(0.0, params.a_max, 4 * (params.mu.n - 1) + 1)
    kt = hermite_resample(params.nodes, eq.k_tilde.values, nodes)
    w = simpson_weights(len(nodes), nodes[1] - nodes[0])
    return kt, nodes, w, w * nodes


def _eigenvalue_near(eq, params, z):
    eigs = galerkin._collocation_eigenvalues(eq, params)
    return complex(eigs[np.argmin(np.abs(eigs - z))])


def test_polish_gives_up_early_on_spurious_start(monkeypatch):
    # the collocation's spurious eigenvalue near -2.95 + 63.35i converges
    # to no root; with the 1e-9 damping floor it cost 184 exponentials
    eq, params = motherhood_model(773, 0.069957, 2.268876)
    rule = _refined_rule(eq, params)
    start = _eigenvalue_near(eq, params, -2.954 + 63.351j)
    exp = np.exp
    counts = []
    for polish in (galerkin._polish, reference_polish):
        calls = []
        monkeypatch.setattr(np, "exp", lambda x: calls.append(None) or exp(x))
        assert polish(start, *rule) is None
        counts.append(len(calls))
    monkeypatch.setattr(np, "exp", exp)
    assert counts[0] <= 40 < counts[1]


def test_polish_keeps_start_damped_to_one_eighth():
    # this start's first Newton step is accepted only at damping 1/8, the
    # smallest any converging start needed on the bundled and screened kernels
    eq, params = motherhood_model(271, 0.111592, 2.277297)
    rule = _refined_rule(eq, params)
    start = _eigenvalue_near(eq, params, -3.2898 + 58.2761j)
    dampings = []
    want = reference_polish(start, *rule, dampings=dampings)
    assert want is not None and min(dampings) == 0.125
    assert galerkin._polish(start, *rule) == want


def test_basis_second_trial_is_equilibrium(trial, trial_basis):
    assert np.array_equal(trial_basis.trial_matrix[1], trial["eq"].x_star.values)


def test_basis_gram_positive_definite(trial, trial_basis):
    w = trial["params"].weights
    gram = (trial_basis.trial_matrix * w) @ trial_basis.trial_matrix.T
    np.linalg.cholesky(gram)


def test_basis_rejects_duplicate_equilibrium(trial, trial_roots):
    with pytest.raises(DependentBasis):
        build_basis(trial["eq"].x_star, trial["eq"], trial_roots, 6, trial["params"])


def test_basis_boundary_compatibility(trial, trial_basis):
    # equilibrium and mode trials satisfy the non-local boundary condition
    # up to quadrature error; the repaired x0 satisfies it by construction
    params = trial["params"]
    w = params.weights
    for row in trial_basis.trial_matrix:
        defect = abs(row[0] - float(w @ (params.k.values * row)))
        assert defect < 1e-6 * float(np.max(np.abs(row)))


def test_basis_warns_on_incompatible_profile(trial, trial_roots):
    params = trial["params"]
    a = params.nodes
    skewed = GridFunction(np.exp(-0.5 * a) + 0.2, params.a_max)
    with pytest.warns(UserWarning, match="boundary condition"):
        build_basis(skewed, trial["eq"], trial_roots, 6, params)


def test_assemble_single_constant_trial():
    n = 101
    mk = lambda v: GridFunction(np.full(n, float(v)), 1.0)
    params = ModelParams(mu=mk(0.0), k=mk(1.0), p=mk(1.0), a_max=1.0, d_min=0.1, d_max=2.0)
    basis = GalerkinBasis(trial_matrix=np.ones((1, n)), derivative_matrix=np.zeros((1, n)))
    system = assemble(basis, params)
    assert system.m_matrix == pytest.approx(np.array([[1.0]]), abs=1e-12)
    assert system.n_matrix == pytest.approx(np.array([[0.0]]), abs=1e-12)


def test_assemble_mass_matrix_symmetric(trial, trial_basis):
    system = assemble(trial_basis, trial["params"])
    assert np.max(np.abs(system.m_matrix - system.m_matrix.T)) < 1e-12


def test_equilibrium_column_identity(trial, trial_basis):
    # the steady state sits in the span: N e2 = d* M e2 exactly on the grid
    system = assemble(trial_basis, trial["params"])
    e2 = np.zeros(6)
    e2[1] = 1.0
    gap = system.n_matrix @ e2 - trial["eq"].d_star * (system.m_matrix @ e2)
    assert np.max(np.abs(gap)) < 1e-12


def test_assembly_against_refined_grid(trial, trial_roots):
    # rebuilding everything at double resolution moves the matrices by the
    # quadrature error only
    from agechemo.config import build_model, build_x0
    import dataclasses

    cfg = dataclasses.replace(trial["cfg"], age_nodes=801)
    params2 = build_model(cfg)
    from agechemo.model import solve_equilibrium

    eq2 = solve_equilibrium(params2)
    x02 = build_x0(cfg, params2, eq2)
    basis2 = build_basis(x02, eq2, trial_roots, 6, params2)
    system2 = assemble(basis2, params2)
    basis1 = build_basis(trial["x0"], trial["eq"], trial_roots, 6, trial["params"])
    system1 = assemble(basis1, trial["params"])
    rel = np.abs(system1.m_matrix - system2.m_matrix) / (1.0 + np.abs(system2.m_matrix))
    assert np.max(rel) < 1e-6


def test_steady_state_exact(trial, trial_basis):
    eq, params, gains = trial["eq"], trial["params"], trial["gains"]
    system = assemble(trial_basis, params)
    system.lam = np.zeros(6)
    system.lam[1] = 1.0
    trace = simulate(
        system,
        trial_basis,
        make_constant(1.0),
        gains,
        params,
        2.0,
        params.h,
        d_override=lambda t: eq.d_star,
    )
    e2 = np.zeros(6)
    e2[1] = 1.0
    assert np.max(np.abs(trace.lam - e2)) < 1e-10


def test_constant_input_scalar_mode(trial, trial_basis):
    eq, params, gains = trial["eq"], trial["params"], trial["gains"]
    system = assemble(trial_basis, params)
    system.lam = np.zeros(6)
    system.lam[1] = 2.0
    trace = simulate(
        system,
        trial_basis,
        make_constant(1.0),
        gains,
        params,
        2.0,
        params.h,
        d_override=lambda t: 0.7,
    )
    expected = trace.y_sim[0] * np.exp((eq.d_star - 0.7) * trace.t)
    assert np.max(np.abs(trace.y_sim / expected - 1.0)) < 1e-8


def test_residual_zero_at_steady_state(trial, trial_basis):
    params = trial["params"]
    system = assemble(trial_basis, params)
    lam = np.zeros(6)
    lam[1] = 3.0
    r_nodes = lam @ _residual_map(trial_basis, system.a_matrix, params)
    assert math.sqrt(float(params.weights @ (r_nodes * r_nodes))) < 1e-10
    assert np.max(np.abs(r_nodes)) < 1e-10


def test_residual_input_independent(trial, trial_basis):
    # R = (phi')^T lam + phi^T (A - D) lam + (mu + D) phi^T lam for any D is lam @ B
    params = trial["params"]
    system = assemble(trial_basis, params)
    phi, dphi = trial_basis.trial_matrix, trial_basis.derivative_matrix
    lam = np.array([0.5, 1.0, 0.1, -0.2, 0.05, 0.02])
    want = lam @ _residual_map(trial_basis, system.a_matrix, params)
    for d in (0.6, 1.4):
        lam_dot = (system.a_matrix - d * np.eye(6)) @ lam
        r_nodes = lam @ dphi + lam_dot @ phi + (params.mu.values + d) * (lam @ phi)
        np.testing.assert_allclose(r_nodes, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def test_galerkin_orthogonality_along_run(trial, trial_basis, fig2a_runs):
    # <phi_i, R[t]> = 0 is the defining property of the projection
    params = trial["params"]
    system = assemble(trial_basis, params)
    trace = fig2a_runs["galerkin"]
    w = params.weights
    res_map = _residual_map(trial_basis, system.a_matrix, params)
    for i in (0, 400, 1200, 2400):
        r_nodes = trace.lam[i] @ res_map
        assert trace.r[i] == pytest.approx(math.sqrt(float(w @ (r_nodes * r_nodes))), rel=1e-12)
        proj = (trial_basis.trial_matrix * w) @ r_nodes
        assert np.max(np.abs(proj)) < 1e-9


def test_transition_run_reaches_setpoint(fig2a_runs):
    trace = fig2a_runs["galerkin"]
    i = int(round(10.0 / (trace.t[1] - trace.t[0])))
    assert trace.y_sim[i] == pytest.approx(3.0, rel=0.02)
    assert np.all((trace.d >= 0.5 - 1e-12) & (trace.d <= 1.5 + 1e-12))
    assert np.all(trace.min_profile >= 0)


def test_instability_raised_on_overflow(trial, trial_basis):
    from agechemo.errors import Instability

    params, gains = trial["params"], trial["gains"]
    system = assemble(trial_basis, params)
    system.lam = np.zeros(6)
    system.lam[1] = 1.0
    with pytest.raises(Instability):
        simulate(
            system,
            trial_basis,
            make_constant(1.0),
            gains,
            params,
            1.0,
            params.h,
            d_override=lambda t: -60.0,
        )


def test_positivity_violation_raised(trial, trial_basis):
    params, gains = trial["params"], trial["gains"]
    system = assemble(trial_basis, params)
    system.lam = np.zeros(6)
    system.lam[2] = 1.0  # a pure oscillatory mode shape changes sign
    with pytest.raises(PositivityViolation):
        simulate(
            system,
            trial_basis,
            make_constant(1.0),
            gains,
            params,
            0.1,
            params.h,
            d_override=lambda t: 1.0,
        )


def _modal_setup(name, n_modes=None):
    cfg = load_config(bundled(name + ".cfg"))
    params = build_model(cfg)
    eq = solve_equilibrium(params)
    x0 = build_x0(cfg, params, eq)
    modes = n_modes or cfg.n_modes
    basis = build_basis(x0, eq, characteristic_roots(eq, params, modes), modes, params)
    gains = ControllerGains(cfg.gamma, cfg.l1, cfg.l2, cfg.z0)
    return cfg, params, build_trajectory(cfg), gains, basis


def _assert_matches_reference(trace, ref, tol=1e-8):
    assert np.max(np.abs(trace.y_sim / ref["y_sim"] - 1.0)) < tol
    for key in ("d", "z1", "z2", "r", "min_profile", "profile_l2", "lam"):
        assert np.max(np.abs(getattr(trace, key) - ref[key])) < tol, key
    assert list(trace.snapshots) == list(ref["snapshots"])
    for t_snap, prof in trace.snapshots.items():
        assert np.max(np.abs(prof.values - ref["snapshots"][t_snap])) < tol, t_snap


@pytest.mark.parametrize(
    "name, n_modes, dt_scale",
    [("fig2a", None, 1.0), ("fig2b", None, 1.0), ("fig3", None, 1.0), ("const", None, 1.0), ("fig2a", 10, 0.5)],
    ids=["fig2a", "fig2b", "fig3", "const", "fig2a-10-modes-half-dt"],
)
def test_simulate_matches_rk4_reference(name, n_modes, dt_scale):
    cfg, params, traj, gains, basis = _modal_setup(name, n_modes)
    args = (basis, traj, gains, params, cfg.t_final, cfg.dt * dt_scale, cfg.snapshot_times)
    ref = reference_galerkin_loop(assemble(basis, params), *args)
    trace = simulate(assemble(basis, params), *args)
    assert len(trace.snapshots) == 2
    _assert_matches_reference(trace, ref)


def test_simulate_matches_rk4_reference_open_loop():
    cfg, params, traj, gains, basis = _modal_setup("fig2a")
    args = (basis, traj, gains, params, 4.0, cfg.dt, (1.0, 3.0))
    override = dict(d_override=lambda t: 0.9 + 0.3 * math.sin(2.0 * t))
    ref = reference_galerkin_loop(assemble(basis, params), *args, **override)
    trace = simulate(assemble(basis, params), *args, **override)
    _assert_matches_reference(trace, ref)
    assert np.array_equal(trace.d, 0.9 + 0.3 * np.sin(2.0 * trace.t))


def _failure(call):
    with pytest.raises(AgeChemoError) as info:
        call()
    return type(info.value), float(str(info.value).rsplit("t = ", 1)[1])


def _failure_parity(make_system, basis, *args, **kwargs):
    """simulate fails as the stepwise loop does: same error type, same time."""
    ref = _failure(lambda: reference_galerkin_loop(make_system(), basis, *args, **kwargs))
    new = _failure(lambda: simulate(make_system(), basis, *args, **kwargs))
    assert new == ref
    return new


def test_failure_parity_positivity_violation():
    # a flow that rotates the equilibrium weight into the first cosine mode
    # turns the profile negative after a while, under feedback
    cfg, params, traj, gains, basis = _modal_setup("fig2a")

    def make_system():
        system = assemble(basis, params)
        system.a_matrix[2, 1] += 0.25
        system.a_matrix[1, 2] -= 0.25
        system.lam = np.zeros(6)
        system.lam[1] = 1.0
        return system

    kind, t = _failure_parity(make_system, basis, make_constant(1.0), gains, params, 4.0, cfg.dt)
    assert kind is PositivityViolation and t == 0.125


@pytest.mark.parametrize(
    "rotation, d_applied, t_fail",
    [(0.0, -60.0, 0.455), (0.25, -226.0, 0.125)],
    ids=["overflow", "overflow-and-negative-profile-at-one-node"],
)
def test_failure_parity_instability(rotation, d_applied, t_fail):
    # in the second case the profile also turns negative at the node where
    # the weights overflow; the stepwise loop checked the overflow first
    cfg, params, traj, gains, basis = _modal_setup("fig2a")

    def make_system():
        system = assemble(basis, params)
        system.a_matrix[2, 1] += rotation
        system.a_matrix[1, 2] -= rotation
        system.lam = np.zeros(6)
        system.lam[1] = 1.0
        return system

    override = dict(d_override=lambda t: d_applied)
    kind, t = _failure_parity(make_system, basis, make_constant(1.0), gains, params, 1.0, cfg.dt, **override)
    assert kind is Instability and t == t_fail


@pytest.mark.parametrize(
    "p_vector, t_fail",
    [([1.0, -1.4], 0.1425), ([1.0, -1.5], 0.135), ([-1.0, 0.0], 0.0)],
    ids=["half-stage", "node", "initial"],
)
def test_failure_parity_nonpositive_output(p_vector, t_fail):
    # an output functional that weighs the x0 trial against x* turns
    # negative once the profile has relaxed towards x*; with the sign of the
    # x0 weight flipped it is negative from the start
    cfg, params, traj, gains, basis = _modal_setup("fig2a")

    def make_system():
        system = assemble(basis, params)
        system.p_vector = np.array(p_vector + [0.0] * 4)
        return system

    kind, t = _failure_parity(make_system, basis, make_constant(1.0), gains, params, 4.0, cfg.dt)
    assert kind is NonPositiveOutput and t == t_fail
