import numpy as np
import pytest

from agechemo.errors import GridMismatch
from agechemo.grid import (
    GridFunction,
    cumquad4,
    cumtrapz,
    fd4,
    hermite_eval,
    hermite_resample,
    simpson,
    simpson_weights,
)


def test_simpson_exact_for_cubics():
    n = 11
    x = np.linspace(0, 2, n)
    vals = 3 * x**3 - x**2 + 2
    exact = 3 * 16 / 4 - 8 / 3 + 4
    assert simpson(vals, x[1] - x[0]) == pytest.approx(exact, abs=1e-13)


def test_simpson_requires_odd_count():
    with pytest.raises(ValueError):
        simpson_weights(10, 0.1)


def test_cumtrapz_linear_exact():
    x = np.linspace(0, 1, 51)
    out = cumtrapz(2 * x, x[1] - x[0])
    assert np.allclose(out, x**2, atol=1e-14)


def test_cumquad4_fourth_order():
    x = np.linspace(0, 2, 201)
    vals = np.exp(-1.1 * x)
    exact = (1 - np.exp(-1.1 * x)) / 1.1
    err = np.max(np.abs(cumquad4(vals, x[1] - x[0]) - exact))
    assert err < 1e-9
    # halving the step shrinks the error by roughly 2^4
    x2 = np.linspace(0, 2, 401)
    err2 = np.max(np.abs(cumquad4(np.exp(-1.1 * x2), x2[1] - x2[0]) - (1 - np.exp(-1.1 * x2)) / 1.1))
    assert err / err2 > 8


def test_fd4_accuracy():
    x = np.linspace(0, 2, 201)
    d = fd4(np.sin(3 * x), x[1] - x[0])
    assert np.max(np.abs(d - 3 * np.cos(3 * x))) < 1e-5


def test_hermite_resample_smooth():
    x = np.linspace(0, 2, 101)
    q = np.linspace(0, 2, 301)
    out = hermite_resample(x, np.exp(-x), q)
    assert np.max(np.abs(out - np.exp(-q))) < 1e-8


def test_hermite_eval_exact_for_cubics_past_both_ends():
    # exact values and slopes: each segment's cubic is the cubic itself
    x = np.linspace(-1.0, 1.0, 9)
    q = np.linspace(-1.1, 1.1, 57)
    out = hermite_eval(q, x[0], x[1] - x[0], x**3 - 2 * x, 3 * x**2 - 2)
    np.testing.assert_allclose(out, q**3 - 2 * q, rtol=0, atol=1e-13)


def test_gridfunction_eval_exact_at_nodes():
    gf = GridFunction(np.array([1.0, 2.0, 4.0]), 2.0)
    assert gf(0.0) == 1.0 and gf(1.0) == 2.0 and gf(2.0) == 4.0
    assert gf(0.5) == pytest.approx(1.5)


def test_gridfunction_validation():
    with pytest.raises(ValueError):
        GridFunction(np.array([1.0]), 2.0)
    with pytest.raises(ValueError):
        GridFunction(np.array([1.0, 2.0]), -1.0)


def test_gridfunction_inner_mismatch():
    a = GridFunction(np.ones(11), 2.0)
    b = GridFunction(np.ones(21), 2.0)
    with pytest.raises(GridMismatch):
        a.inner(b)

