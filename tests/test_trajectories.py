import numpy as np
import pytest

from agechemo.errors import NonPositive
from agechemo.trajectories import (
    make_constant,
    make_periodic,
    make_ramp,
    make_transition,
    validate,
)
from oracles import grid_scan_extrema


def test_transition_blend_coefficients():
    # continuity of the blend forces the coefficient sums
    g = (10.0, -15.0, 6.0)
    assert sum(g) == 1.0
    assert 3 * g[0] + 4 * g[1] + 5 * g[2] == 0.0


def test_transition_endpoint_identities():
    tr = make_transition(1.0, 3.0, 5.0)
    assert float(tr.eval(0.0)) == 1.0
    assert float(tr.eval(5.0)) == 3.0
    assert float(tr.eval(7.0)) == 3.0
    for t in (0.0, 5.0):
        assert float(tr.rate(t)) == 0.0
    # second-derivative continuity at the junction: the rate is C^1 there
    eps = 1e-7
    left = float(tr.rate(5.0 - eps)) / eps
    assert abs(left) < 1e-4


def test_transition_monotone_and_positive():
    tr = make_transition(1.0, 3.0, 5.0)
    ts = np.linspace(0, 6, 1001)
    ys = tr.eval(ts)
    assert np.all(ys > 0)
    assert np.all(np.diff(ys) >= -1e-14)


def test_periodic_reference_parameters_and_minimum():
    tr = make_periodic(0.79, 0.625, 2 * np.pi / 6)
    lo, hi = grid_scan_extrema(tr.eval, 0.0, 6.0)
    assert lo == pytest.approx(0.79 - 0.625, abs=1e-4)
    assert hi == pytest.approx(0.79 + 0.625, abs=1e-4)
    assert lo > 0


def test_periodic_rejects_nonpositive():
    with pytest.raises(NonPositive):
        make_periodic(0.5, 0.6, 1.0)


def test_periodic_zero_amplitude_rate():
    tr = make_periodic(0.79, 0.0, 1.0)
    ts = np.linspace(0, 10, 101)
    assert np.allclose(tr.rate(ts), 0.0)


def test_ramp_rate_values():
    tr = make_ramp(0.3, 0.75)
    assert float(tr.rate(0.0)) == pytest.approx(2.5)
    assert float(tr.rate(1.6)) == pytest.approx(0.5)
    ts = np.linspace(0, 10, 1001)
    rates = tr.rate(ts)
    assert np.all(np.diff(rates) < 0)


def test_ramp_validity_and_entry_time(trial):
    eq, cfg = trial["eq"], trial["cfg"]
    tr = make_ramp(0.3, 0.75)
    rep = validate(tr, eq, cfg.d_min, cfg.d_max, horizon=10.0)
    assert not rep.valid
    assert rep.sup_rate == pytest.approx(2.5, abs=1e-6)
    assert rep.t_crit == pytest.approx(1.6, abs=0.01)


def test_flat_ramp_always_valid(trial):
    eq, cfg = trial["eq"], trial["cfg"]
    tr = make_ramp(0.3, 0.0)
    ts = np.linspace(0, 10, 101)
    assert np.allclose(tr.rate(ts), 0.0)
    rep = validate(tr, eq, cfg.d_min, cfg.d_max, horizon=10.0)
    assert rep.valid


def test_constant_always_valid(trial):
    eq, cfg = trial["eq"], trial["cfg"]
    rep = validate(make_constant(1.0), eq, cfg.d_min, cfg.d_max, horizon=10.0)
    assert rep.valid and rep.t_crit == 0.0


def test_periodic_reference_violates_band(trial):
    # these coefficients push the rate far outside the band; the report
    # states what the scan finds instead of forcing membership
    eq, cfg = trial["eq"], trial["cfg"]
    tr = make_periodic(0.79, 0.625, 2 * np.pi / 6)
    rep = validate(tr, eq, cfg.d_min, cfg.d_max, horizon=12.0)
    assert not rep.valid
    assert rep.sup_rate > eq.d_star - cfg.d_min
    assert rep.inf_rate < eq.d_star - cfg.d_max


def test_transition_sup_rate_grid_refinement(trial):
    eq, cfg = trial["eq"], trial["cfg"]
    tr = make_transition(1.0, 3.0, 10.0)
    coarse = validate(tr, eq, cfg.d_min, cfg.d_max, horizon=12.0)
    fine = validate(tr, eq, cfg.d_min, cfg.d_max, horizon=12.0, probe_points=100_000)
    assert coarse.sup_rate == pytest.approx(fine.sup_rate, abs=1e-5)
    assert coarse.valid and fine.valid


def test_validate_scale_invariance(trial):
    eq, cfg = trial["eq"], trial["cfg"]
    r1 = validate(make_ramp(0.3, 0.75), eq, cfg.d_min, cfg.d_max, horizon=10.0)
    r2 = validate(make_ramp(0.6, 1.5), eq, cfg.d_min, cfg.d_max, horizon=10.0)
    assert r1.inf_rate == pytest.approx(r2.inf_rate, rel=1e-12)
    assert r1.sup_rate == pytest.approx(r2.sup_rate, rel=1e-12)
    assert r1.t_crit == pytest.approx(r2.t_crit, rel=1e-12)
