import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agechemo import lyapunov
from agechemo.config import build_model, load_config
from agechemo.delay import init_delay_state, simulate_closed_loop
from agechemo.controller import ControllerGains, ScalarLoop
from agechemo.errors import AgeChemoError, B3Fail, InvalidTrajectory, NoFeasiblePair
from agechemo.lyapunov import (
    Certificate,
    build_certificate,
    check_envelope,
    check_history_decay,
    kappa_v,
    kernel_constants,
    observer_quadratic,
    overshoot_log_bound,
    quadratic_pair_feasible,
    rate_constants,
    sample_clf,
    saturation_fact_check,
    verify_decay,
    window_norms,
)
from agechemo.model import solve_equilibrium
from agechemo.trajectories import make_constant, make_periodic, make_ramp, validate
from conftest import SCREEN_KERNELS, bundled, motherhood_model
from oracles import (
    eta_decay_violations,
    observer_iss_violations,
    reference_b3_search,
    reference_clf_profile,
    reference_contraction_parts,
    reference_contraction_value,
    reference_observer_quadratic,
    reference_sample_clf,
    reference_sigma_search,
)


def test_b3_boundary_value(trial):
    # lambda = 0 reduces to the kernel normalization, exactly one
    assert reference_contraction_value(trial["eq"].k_tilde, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_b3_search_trial_kernel(trial):
    value = kernel_constants(trial["eq"].k_tilde).b3_value
    assert value < 1.0
    # independent dense scan over the same integrand
    grid = np.linspace(0.0, 3.0, 3001)
    dense = min(reference_contraction_value(trial["eq"].k_tilde, g) for g in grid)
    assert value <= dense + 1e-9


def test_b3_grid_refinement_stability(trial):
    import dataclasses

    from agechemo.config import build_model
    from agechemo.model import solve_equilibrium

    v1 = kernel_constants(trial["eq"].k_tilde).b3_value
    cfg = dataclasses.replace(trial["cfg"], age_nodes=801)
    eq2 = solve_equilibrium(build_model(cfg))
    v2 = kernel_constants(eq2.k_tilde).b3_value
    assert abs(v1 - v2) < 1e-4


def test_sigma_bracketing(trial, trial_cert):
    kt = trial["eq"].k_tilde
    lam = trial_cert.lambda_b3
    sigma = kernel_constants(kt).sigma
    assert sigma > 0
    assert reference_contraction_value(kt, lam, sigma) < 1.0
    assert reference_contraction_value(kt, lam, sigma + 1e-4) > 1.0


def test_sigma_integrand_monotone(trial, trial_cert):
    kt = trial["eq"].k_tilde
    lam = trial_cert.lambda_b3
    sigmas = np.linspace(0, 2, 21)
    vals = [reference_contraction_value(kt, lam, s) for s in sigmas]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@pytest.fixture(scope="module", params=[201, 401, 801])
def trial_kernel(request, trial):
    """The trial k_tilde on age grids of 201, 401 and 801 nodes."""
    import dataclasses

    from agechemo.config import build_model
    from agechemo.model import solve_equilibrium

    cfg = dataclasses.replace(trial["cfg"], age_nodes=request.param)
    return solve_equilibrium(build_model(cfg)).k_tilde


def _check_median_and_bisection(k_tilde):
    """kernel_constants against brute force over the breakpoints and the reference searches."""
    sigma, lam, value = kernel_constants(k_tilde)
    kt, tail, _, mean_age = reference_contraction_parts(k_tilde)
    c = tail / mean_age
    breakpoints = kt[c > 0] / c[c > 0]
    assert lam in breakpoints
    # the integral is piecewise linear between breakpoints, so its least
    # value over them is its minimum, and lambda_b3 attains it
    assert value == min(reference_contraction_value(k_tilde, r) for r in breakpoints)
    assert value <= np.nextafter(reference_b3_search(k_tilde)[1], np.inf)
    assert sigma == reference_sigma_search(k_tilde, lam)
    # negative control: a lambda moved off the median gives a larger integral
    for moved in (lam * (1.0 - 1e-6), lam * (1.0 + 1e-6)):
        assert reference_contraction_value(k_tilde, moved) > value
    # the bisection's weighting at sigma = 0 is the minimum compared with
    # one, so sigma = 0 needs no second check
    assert reference_contraction_value(k_tilde, lam) == value


def test_searches_match_reference_driven_searches(trial_kernel):
    _check_median_and_bisection(trial_kernel)


@pytest.mark.parametrize("kernel", range(len(SCREEN_KERNELS)), ids=lambda i: "screen%d" % i)
def test_searches_match_reference_on_screened_kernels(kernel):
    n, mu, k0, _ = SCREEN_KERNELS[kernel]
    _check_median_and_bisection(motherhood_model(n, mu, k0)[0].k_tilde)


def test_b3_search_rejects_non_contracting_kernel(trial):
    # the integral scales with the kernel mass (tail / mean age does not),
    # so a heavier kernel's minimum is that many times the trial minimum
    kt = trial["eq"].k_tilde
    value = kernel_constants(kt).b3_value
    heavy = kt.with_values(kt.values * (2.0 / value))
    with pytest.raises(B3Fail, match="kernel contraction minimum"):
        kernel_constants(heavy)


def _bits(form_or_error):
    """An observer form as the hex of each float, or a NoFeasiblePair as its message."""
    if isinstance(form_or_error, NoFeasiblePair):
        return str(form_or_error)
    return tuple(float(v).hex() for v in form_or_error)


def _form_or_error(search, l1, l2):
    try:
        return search(l1, l2)
    except NoFeasiblePair as exc:
        return exc


#: seeded gains: the kernel screen's ranges, and log-uniform pairs over five
#: decades; 47 of the 203 pairs have no feasible pair (p1, p2)
_OQ_RNG = np.random.default_rng(20261022)
OQ_GAINS = [(4.0, 8.0), (526.67, 923.38), (0.0146, 0.0116)] + [
    (float(a), float(b)) for a, b in zip(_OQ_RNG.uniform(3.0, 5.0, 40), _OQ_RNG.uniform(6.0, 10.0, 40))
] + [tuple(float(v) for v in 10.0 ** _OQ_RNG.uniform(-2.5, 2.5, 2)) for _ in range(160)]


def test_band_search_is_the_whole_grid_search_bitwise():
    # the band holds every cell that passes the shape inequalities, so the
    # form, or the error's message, is the whole grid's to the last bit
    search = observer_quadratic.__wrapped__
    results = [_bits(_form_or_error(search, *gains)) for gains in OQ_GAINS]
    assert results == [_bits(_form_or_error(reference_observer_quadratic, *gains)) for gains in OQ_GAINS]
    n_infeasible = sum(isinstance(r, str) for r in results)
    assert n_infeasible == 47


def test_observer_quadratic_blocks_match_whole_grid(monkeypatch):
    # chunks of the band of any size give the form of one chunk holding the
    # whole band, and of the whole grid; both sides search afresh, past the memo
    search = observer_quadratic.__wrapped__
    gains = [(4.0, 8.0), (3.0, 6.0), (5.0, 10.0), (0.5, 0.5), (30.0, 50.0)]
    whole = [_bits(reference_observer_quadratic(l1, l2)) for l1, l2 in gains]
    for chunk in (7, 200, lyapunov.OQ_CHUNK, 40_000):
        monkeypatch.setattr(lyapunov, "OQ_CHUNK", chunk)
        assert [_bits(search(l1, l2)) for l1, l2 in gains] == whole, chunk


def test_observer_quadratic_memoized():
    # the cached form is a fresh search's, and infeasible gains raise every time
    assert observer_quadratic(4.0, 8.0) is observer_quadratic(4.0, 8.0)
    assert observer_quadratic(4.0, 8.0) == observer_quadratic.__wrapped__(4.0, 8.0)
    for _ in range(2):
        with pytest.raises(NoFeasiblePair):
            observer_quadratic(0.0146, 0.0116)
    # a screen over many gains keeps only the last OQ_MEMO forms
    for i in range(lyapunov.OQ_MEMO + 1):
        observer_quadratic(4.0 + 0.01 * i, 8.0)
    assert observer_quadratic.cache_info().currsize == lyapunov.OQ_MEMO


def test_infeasible_probe_rejected():
    assert not quadratic_pair_feasible(4.0, 8.0, 2.0, 0.5)


_GAINS_AND_PAIR = st.tuples(
    st.floats(0.01, 10.0), st.floats(0.01, 10.0), st.floats(1e-3, 2.0), st.floats(1e-3, 4.0)
)


@settings(derandomize=True, max_examples=200)
@given(st.lists(_GAINS_AND_PAIR, min_size=1, max_size=40))
def test_quadratic_pair_feasible_on_arrays_matches_scalar_verdicts(rows):
    l1, l2, p1, p2 = (np.array(col) for col in zip(*rows))
    verdicts = quadratic_pair_feasible(l1, l2, p1, p2)
    assert verdicts.shape == (len(rows),)
    assert verdicts.tolist() == [bool(quadratic_pair_feasible(*row)) for row in rows]


def test_observer_quadratic_rejects_weak_gains():
    # for l = (0.0146, 0.0116) no grid pair meets both shape inequalities
    with pytest.raises(NoFeasiblePair, match=r"l = \(0.0146, 0.0116\)"):
        observer_quadratic(0.0146, 0.0116)


def test_observer_quadratic_trial_gains():
    oq = observer_quadratic(4.0, 8.0)
    assert quadratic_pair_feasible(4.0, 8.0, oq.p1, oq.p2)
    # re-verify the two inequalities symbolically at the returned pair
    assert oq.p1**2 < 4 * oq.p2
    assert (2 + 4 * oq.p1 - 16 * oq.p2) ** 2 < 32 * oq.p1 - 32 * oq.p1**2
    assert 0 < oq.k1 <= oq.k2
    assert 0 < oq.k1_tilde <= oq.k2_tilde
    # exhaustive independent search cannot do much better on beta1
    best = 0.0
    for p1 in np.linspace(0.01, 1.0, 150):
        for p2 in np.linspace(0.01, 1.0, 150):
            if not quadratic_pair_feasible(4.0, 8.0, p1, p2):
                continue
            P = np.array([[1, -p1 / 2], [-p1 / 2, p2]])
            Pt = np.array([[8 - 8 * p1, 8 * p2 - 2 * p1 - 1], [8 * p2 - 2 * p1 - 1, p1]])
            e1 = np.linalg.eigvalsh(P)
            e2 = np.linalg.eigvalsh(Pt)
            if e1[0] <= 0 or e2[0] <= 0:
                continue
            best = max(best, e2[0] / (4 * e1[1]))
    assert oq.beta1 >= best * 0.98


def test_quadratic_form_eigen_bounds():
    oq = observer_quadratic(4.0, 8.0)
    P = np.array([[1.0, -oq.p1 / 2], [-oq.p1 / 2, oq.p2]])
    rng = np.random.default_rng(3)
    for _ in range(100):
        e = rng.normal(0, 5, 2)
        j = float(e @ P @ e)
        n2 = float(e @ e)
        assert oq.k1 * n2 - 1e-12 <= j <= oq.k2 * n2 + 1e-12


def test_rate_constants_trial_values(trial, trial_cert):
    # mu2 = 8 (d_max - d_min) / gamma = 4 for the trial bounds and gain
    assert trial_cert.mu2 == pytest.approx(4.0, rel=1e-12)
    assert trial_cert.l_rate > 0
    assert trial_cert.l_rate <= trial_cert.mu1


def test_rate_constants_constant_trajectory(trial, trial_cert):
    eq, params, gains = trial["eq"], trial["params"], trial["gains"]
    oq = observer_quadratic(gains.l1, gains.l2)
    validity = validate(make_constant(1.0), eq, params.d_min, params.d_max, horizon=10.0)
    rc = rate_constants(validity, eq, gains, oq, trial_cert.sigma, params)
    expected = min(2.0, gains.gamma) * min(
        1.0, eq.d_star - params.d_min, params.d_max - eq.d_star
    )
    assert rc.mu1 == pytest.approx(expected, rel=1e-9)


def test_rate_constants_invalid_trajectory(trial, trial_cert):
    eq, params, gains = trial["eq"], trial["params"], trial["gains"]
    oq = observer_quadratic(gains.l1, gains.l2)
    validity = validate(make_ramp(0.3, 0.75), eq, params.d_min, params.d_max, horizon=10.0)
    with pytest.raises(InvalidTrajectory):
        rate_constants(validity, eq, gains, oq, trial_cert.sigma, params)


def test_certificate_invariants(trial_cert):
    trial_cert.validate()
    assert trial_cert.big_m * trial_cert.sigma > trial_cert.beta2 * math.exp(
        2 * trial_cert.sigma * trial_cert.a_max
    )
    assert trial_cert.b3_value < 1
    assert trial_cert.alpha1 * min(
        math.sqrt(trial_cert.k1), math.sqrt(trial_cert.big_m / 2)
    ) >= 2



def _part(fn, *args):
    """fn(*args), or the AgeChemoError it raises."""
    try:
        return fn(*args)
    except AgeChemoError as exc:
        return exc


def _hex(fields):
    return {k: float(v).hex() for k, v in fields.items()}


_REFERENCES = st.one_of(
    st.builds(make_constant, st.floats(0.5, 2.0)),
    st.builds(make_ramp, st.floats(0.2, 2.0), st.floats(0.0, 1.0)),
    st.builds(
        lambda y2, frac, omega: make_periodic(y2, frac * y2, omega),
        st.floats(1.0, 2.0), st.floats(0.0, 0.9), st.floats(0.5, 3.0),
    ),
)
#: a gain log-uniform over four decades, wide enough that the overshoot
#: floor, not 1.1 times its bound, decides alpha1 on some draws
_GAIN = st.floats(-1.0, 3.0).map(lambda e: 10.0**e)
#: observer gains; (0.0146, 0.0116) has no feasible (p1, p2)
_OBSERVER_GAINS = st.one_of(st.just((0.0146, 0.0116)), st.tuples(_GAIN, _GAIN))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.sampled_from([101, 201, 401]), st.floats(0.0, 0.4), st.floats(1.4, 3.2),
    st.sampled_from([1.0, 1.0, 1.0, 2.5]), _GAIN, _OBSERVER_GAINS, _REFERENCES,
)
def test_certificate_is_its_three_parts(n, mu, k0, mass, gamma, l12, traj):
    eq, params = motherhood_model(n, mu, k0)
    # the contraction minimum is 0.47-0.58 on these kernels; one draw in
    # four takes 2.5 times the kernel mass, which lifts it past one
    eq = dataclasses.replace(eq, k_tilde=eq.k_tilde.with_values(mass * eq.k_tilde.values))
    gains = ControllerGains(gamma, *l12)
    validity = validate(traj, eq, params.d_min, params.d_max, horizon=8.0)
    kernel = _part(kernel_constants, eq.k_tilde)
    oq = _part(observer_quadratic, *l12)
    failed = [part for part in (kernel, oq) if isinstance(part, Exception)]
    if not failed:
        rc = _part(rate_constants, validity, eq, gains, oq, kernel.sigma, params)
        # the band verdict the caller holds decides InvalidTrajectory
        assert isinstance(rc, InvalidTrajectory) == (not validity.valid)
        failed = [rc] if isinstance(rc, Exception) else []
    if failed:
        # the first failing part's error, in the order kernel, gains, reference
        with pytest.raises(type(failed[0])) as info:
            build_certificate(validity, eq, gains, params)
        assert str(info.value) == str(failed[0])
        return
    cert = build_certificate(validity, eq, gains, params)
    cert.validate()
    for part in (kernel, oq, rc):
        assert _hex({k: getattr(cert, k) for k in part._fields}) == _hex(part._asdict())

def test_clf_zero_at_exact_tracking(trial, trial_cert):
    eq, params, g = trial["eq"], trial["params"], trial["gains"]
    gains = ControllerGains(g.gamma, g.l1, g.l2, (0.0, eq.d_star))
    trace = simulate_closed_loop(eq.x_star, make_constant(1.0), eq, gains, params, 100 * params.h, params.h)
    ts, vs = sample_clf(trace, trial_cert)
    assert len(ts) == 11
    assert np.max(vs) < 1e-20


def test_clf_profile_and_history_forms_agree(trial, trial_cert):
    eq, params, gains, x0, traj = (
        trial["eq"],
        trial["params"],
        trial["gains"],
        trial["x0"],
        trial["traj"],
    )
    trace = simulate_closed_loop(x0, traj, eq, gains, params, params.h, params.h, (0.0,))
    _, vs = sample_clf(trace, trial_cert)
    z = (trace.z1[0], trace.z2[0])

    def route_pi(profile, eq, params):  # the output scale M the route splits x0 by
        return init_delay_state(profile, eq, params, params.h).m

    v_prof, _ = reference_clf_profile(trace.snapshots[0.0], z, traj, eq, trial_cert, params, 0.0, route_pi)
    assert vs[0] == pytest.approx(v_prof, rel=1e-8)


def test_clf_initial_value_regression(trial, trial_cert, fig2a_runs):
    ts, vs = sample_clf(fig2a_runs["oracle"], trial_cert)
    # frozen once from the quadrature oracle chain; guards the whole
    # certificate + functional pipeline against silent drift
    assert vs[0] == pytest.approx(135.26, rel=1e-3)


def test_verify_decay_zero_trace(trial_cert):
    ts = np.linspace(0, 5, 101)
    report = verify_decay(ts, np.zeros(101), trial_cert.l_rate)
    assert report.n_violations == 0 and report.integrated_ok


def test_verify_decay_flags_wrong_rate():
    # falsifiability on a synthetic exactly-exponential trace
    ts = np.linspace(0, 5, 501)
    vs = 4.0 * np.exp(-0.3 * ts)
    ok = verify_decay(ts, vs, 0.25)
    assert ok.n_violations == 0
    bad = verify_decay(ts, vs, 2.0)
    assert bad.n_violations > 0


@pytest.mark.parametrize("poison", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("at", [0, 250, 500], ids=["first", "middle", "last"])
def test_verify_decay_fails_a_non_finite_sample(poison, at):
    # a comparison with NaN is false either way round; the sample must still fail
    ts = np.linspace(0, 5, 501)
    vs = 4.0 * np.exp(-0.3 * ts)
    vs[at] = poison
    report = verify_decay(ts, vs, 0.25)
    assert not report.passed
    assert report.n_violations >= report.n_nonfinite >= 1


def test_saturation_fact_pointwise_cases():
    # z sat_[-a, b](z) >= min(1, a, b) z^2 / (1 + |z|), with the loop's own
    # clamp: gamma = 1 and z2 = rate = 0 make the law log_error = z
    def sides(z, a, b):
        sat = ScalarLoop(1.0, 1.0, 1.0, 0.0, -a, b).rhs(z, 0.0, 0.0, 0.0, 0.0)[3]
        return z * sat, min(1.0, a, b) * z * z / (1.0 + abs(z))

    lhs, rhs = sides(0.0, 1.0, 1.0)
    assert lhs == 0.0 and rhs == 0.0
    lhs, rhs = sides(0.5, 1.0, 1.0)
    assert lhs > rhs  # strict inside the interval
    lhs, rhs = sides(-7.0, 0.2, 3.0)
    assert lhs == -7.0 * -0.2 and lhs >= rhs  # clamped at -a


def test_saturation_fact_randomized():
    report = saturation_fact_check()
    assert report.n_samples == 1_000_000
    assert report.n_violations == 0


def test_saturation_triples_do_not_follow_the_block_size(monkeypatch):
    # triple k is a function of k alone: blocks of 7 draw the triples and
    # give the report that blocks of 4,096 give
    n = 3 * lyapunov.FACT_BLOCK + 5
    draw = lyapunov.saturation_triples
    runs = []
    for block in (lyapunov.FACT_BLOCK, 7):
        drawn = []

        def recorded(lo, hi):
            drawn.append(draw(lo, hi))
            return drawn[-1]

        monkeypatch.setattr(lyapunov, "FACT_BLOCK", block)
        monkeypatch.setattr(lyapunov, "saturation_triples", recorded)
        runs.append((saturation_fact_check.__wrapped__(n), np.concatenate(drawn, axis=1)))
    (whole, triples), (small, small_triples) = runs
    assert small == whole and whole.n_samples == n
    assert np.array_equal(small_triples, triples) and np.array_equal(triples, draw(0, n))


def test_saturation_fact_check_fails_a_false_inequality():
    # negative control: the check's first 100,000 triples reach both clamps
    # and both signs of z, and without the 1/(1+|z|) factor the inequality
    # fails on some of them
    z, a, b = lyapunov.saturation_triples(0, 100_000)
    assert (z < -a).any() and (z > b).any() and (z < 0).any() and (z > 0).any()
    assert z.min() >= -50.0 and z.max() <= 50.0
    assert min(a.min(), b.min()) >= 1e-3 and max(a.max(), b.max()) <= 1e3
    lhs = z * np.minimum(b, np.maximum(-a, z))
    assert saturation_fact_check().n_violations == 0
    assert np.sum(np.minimum(1.0, np.minimum(a, b)) * z * z - lhs > 1e-12 * np.maximum(1.0, z * z)) > 0


def test_saturation_fact_check_draws_in_blocks():
    # one block's samples at a time: the peak stays far below the 1M-sample arrays
    tracemalloc.start()
    try:
        report = saturation_fact_check.__wrapped__()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_violations == 0
    assert peak < 1e6


def test_overshoot_zero_and_monotone(trial_cert):
    assert overshoot_log_bound(0.0, 0.0, trial_cert) == -math.inf
    # small arguments give a finite gain that grows
    b1 = overshoot_log_bound(0.02, 0.02, trial_cert)
    b2 = overshoot_log_bound(0.03, 0.03, trial_cert)
    assert -math.inf < b1 < b2 < 709.0
    l1 = overshoot_log_bound(1.0, 0.0, trial_cert)
    l2 = overshoot_log_bound(2.0, 0.0, trial_cert)
    assert b2 < l1 < l2
    # moderate arguments overflow the closed form e^{log bound}
    assert l2 >= 709.0


def test_kappa_v_strictly_increasing(trial_cert):
    zs = np.linspace(0.01, 2, 50)
    vals = [kappa_v(z, trial_cert) for z in zs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_envelope_never_crossed(trial_cert, fig2a_runs):
    ok, margin = check_envelope(fig2a_runs["oracle"], trial_cert)
    assert ok and margin > 0


def test_history_decay_along_run(trial_cert, fig2a_runs):
    report = check_history_decay(fig2a_runs["oracle"], trial_cert.sigma)
    assert report.passed
    assert report.w0 > 0


def test_fig3_history_decays_under_its_kernel_sigma(fig3_report):
    # fig3's ramp leaves it without a certificate, so a run checks its history
    # under the kernel's own sigma = 0.7371; it passes, the last window's W
    # reading 2.58e-10 (RK4 on the delay equation floored at 1.45e-8 and
    # failed the envelope)
    eq = solve_equilibrium(build_model(load_config(bundled("fig3.cfg"))))
    sigma = kernel_constants(eq.k_tilde).sigma
    assert sigma == pytest.approx(0.7371, abs=1e-4)
    trace = fig3_report.traces["oracle"]
    assert check_history_decay(trace, sigma).passed
    assert window_norms(trace, sigma)[0][-1] < 1e-9


@pytest.mark.parametrize("stride", [10, 20])
@pytest.mark.parametrize("run", ["fig2a", "fig2a_half", "const", "const_half"])
def test_sample_clf_equals_per_sample_loop_bitwise(trial_cert, fig2a_runs, const_setup, run, stride):
    trace, cert = {
        "fig2a": (fig2a_runs["oracle"], trial_cert),
        "fig2a_half": (fig2a_runs["oracle_half"], trial_cert),
        "const": (const_setup["trace"], const_setup["cert"]),
        "const_half": (const_setup["trace_half"], const_setup["cert"]),
    }[run]
    ts, vs = sample_clf(trace, cert, stride)
    ts_ref, vs_ref = reference_sample_clf(trace, cert, stride)
    assert np.array_equal(ts, ts_ref)
    assert np.array_equal(vs, vs_ref)


def test_observer_iss_and_eta_decay(trial_cert, fig2a_runs):
    trace = fig2a_runs["oracle"]
    assert observer_iss_violations(trace, trial_cert) == 0
    assert eta_decay_violations(trace, trial_cert) == 0
