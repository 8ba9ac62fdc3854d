"""Uniform age-grid functions and quadrature.

All integral operators in the toolkit share one convention: functions on
[0, A] are sampled on a uniform grid with an odd node count and integrated
with composite Simpson weights.  Smooth profiles are resampled between
nodes with cubic Hermite interpolation.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights for ``n`` uniform nodes (n odd)."""
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson rule needs an odd node count >= 3, got %d" % n)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def simpson(values: np.ndarray, h: float) -> float:
    return float(simpson_weights(len(values), h) @ np.asarray(values, dtype=float))


# One-interval integration weights of the cubic through four consecutive
# nodes: interior intervals use the centered stencil, the first/last use
# one-sided stencils (mirrored).
_CUM4_INNER = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0
_CUM4_FIRST = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0


def cumquad4(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order cumulative integral on a uniform grid, zero at node 0; needs >= 4 nodes."""
    v = np.asarray(values, dtype=float)
    n = len(v)
    if n < 4:
        raise ValueError("cumquad4 needs >= 4 nodes, got %d" % n)
    inc = np.empty(n - 1)
    inc[0] = _CUM4_FIRST @ v[:4]
    inc[-1] = _CUM4_FIRST @ v[-1:-5:-1]
    core = np.stack([v[0:n - 3], v[1:n - 2], v[2:n - 1], v[3:n]])
    inc[1:-1] = _CUM4_INNER @ core
    out = np.zeros(n)
    out[1:] = np.cumsum(inc) * h
    return out


def tail_integral(values: np.ndarray, h: float) -> np.ndarray:
    """int_a^A of the sampled function at each node a, from :func:`cumquad4`; zero at the last."""
    prefix = cumquad4(values, h)
    return prefix[-1] - prefix


def fd4(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order finite-difference derivative on a uniform grid."""
    v = np.asarray(values, dtype=float)
    n = len(v)
    if n < 5:
        return np.gradient(v, h)
    d = np.empty(n)
    d[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
    d[0] = (-25 * v[0] + 48 * v[1] - 36 * v[2] + 16 * v[3] - 3 * v[4]) / (12 * h)
    d[1] = (-3 * v[0] - 10 * v[1] + 18 * v[2] - 6 * v[3] + v[4]) / (12 * h)
    d[-1] = (25 * v[-1] - 48 * v[-2] + 36 * v[-3] - 16 * v[-4] + 3 * v[-5]) / (12 * h)
    d[-2] = (3 * v[-1] + 10 * v[-2] - 18 * v[-3] + 6 * v[-4] - v[-5]) / (12 * h)
    return d


def hermite_basis(t):
    """Cubic Hermite basis (h00, h10, h01, h11) at segment offsets ``t``.

    On the segment [x_i, x_i + h] the interpolant is
    h00 v_i + h10 h d_i + h01 v_{i+1} + h11 h d_{i+1}.
    """
    return (
        (1 + 2 * t) * (1 - t) ** 2,
        t * (1 - t) ** 2,
        t * t * (3 - 2 * t),
        t * t * (t - 1),
    )


def hermite_eval(t, t0: float, h: float, val: np.ndarray, der: np.ndarray):
    """Cubic Hermite interpolant of (val, der) at nodes t0 + i h, at times ``t``.

    Queries outside the nodes extrapolate the first or last segment's cubic.
    """
    u = (np.asarray(t, dtype=float) - t0) / h
    i = np.clip(np.floor(u).astype(int), 0, len(val) - 2)
    h00, h10, h01, h11 = hermite_basis(u - i)
    return h00 * val[i] + h10 * h * der[i] + h01 * val[i + 1] + h11 * h * der[i + 1]


def hermite_resample(nodes: np.ndarray, values: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Cubic Hermite resampling of smooth uniform-grid data.

    Node slopes come from :func:`fd4`; used where piecewise-linear
    evaluation would inject O(h^2) kinks into smooth profiles.
    """
    h = nodes[1] - nodes[0]
    return hermite_eval(query, nodes[0], h, values, fd4(values, h))


def refined_rule(f: GridFunction, factor: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nodes, values, Simpson weights) of ``f`` resampled by :func:`hermite_resample` on a ``factor``-fold finer grid."""
    n_fine = factor * (f.n - 1) + 1
    nodes_f = np.linspace(0.0, f.a_max, n_fine)
    return nodes_f, hermite_resample(f.nodes, f.values, nodes_f), simpson_weights(n_fine, nodes_f[1] - nodes_f[0])


@dataclass(frozen=True)
class GridFunction:
    """Values of a function on [0, A] at the nodes of a uniform grid."""

    values: np.ndarray
    a_max: float
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) < 2:
            raise ValueError("GridFunction needs a 1-d array with >= 2 nodes")
        if not self.a_max > 0:
            raise ValueError("a_max must be positive")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "nodes", np.linspace(0.0, self.a_max, len(v)))

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def h(self) -> float:
        return self.a_max / (self.n - 1)

    def integral(self) -> float:
        return simpson(self.values, self.h)

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(values, self.a_max)

