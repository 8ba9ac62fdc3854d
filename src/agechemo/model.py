"""Population model data and equilibrium analysis.

Holds the age-structured chemostat parameters (mortality, birth modulus,
output weight, age horizon, dilution bounds), solves for the unique
equilibrium dilution rate and the normalized equilibrium age profile, and
checks admissibility of initial profiles.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateShape, InvalidIC, NoRoot
from .grid import GridFunction, cumquad4, fd4, simpson_weights

#: |x0(0) - <k, x0>| tolerance, relative to max|x0|.  Exact equality is the
#: mathematical requirement; floating point needs a band.
COMPAT_RTOL = 1e-6

_D_UPPER_CAP = 1e6


@dataclass(frozen=True)
class ModelParams:
    """Plant parameters on one uniform age grid (odd node count >= 5); a ``ValueError`` names the field at fault."""

    mu: GridFunction
    k: GridFunction
    p: GridFunction
    a_max: float
    d_min: float
    d_max: float
    cum_mu: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.mu.n
        if n < 5 or n % 2 == 0:
            raise ValueError("mu: must have an odd node count >= 5, got %d" % n)
        for name in ("mu", "k", "p"):
            gf: GridFunction = getattr(self, name)
            if gf.a_max != self.a_max or gf.n != n:
                lims = (name, n, self.a_max, gf.n, gf.a_max)
                raise ValueError("%s: must be %d nodes on a_max = %g, got %d on %g" % lims)
            if not np.all(gf.values >= 0):  # NaN fails too
                raise ValueError("%s: must be nonnegative, got %g" % (name, gf.values.min()))
            if name != "mu" and gf.integral() <= 0:
                raise ValueError("%s: must not be identically zero" % name)
        if not self.d_min >= 0:
            raise ValueError("d_min: must be >= 0, got %g" % self.d_min)
        if not self.d_max > self.d_min:
            raise ValueError("d_max: must be > d_min = %g, got %g" % (self.d_min, self.d_max))
        # cumulative mortality (fourth order), precomputed once and reused by every module
        object.__setattr__(self, "cum_mu", cumquad4(self.mu.values, self.mu.h))

    @property
    def nodes(self) -> np.ndarray:
        return self.mu.nodes

    @property
    def h(self) -> float:
        return self.mu.h

    @property
    def weights(self) -> np.ndarray:
        return simpson_weights(self.mu.n, self.h)

    def survival(self, d: float) -> np.ndarray:
        """exp(-d a - int_0^a mu) at the nodes."""
        return np.exp(-d * self.nodes - self.cum_mu)


@dataclass(frozen=True)
class Equilibrium:
    """Equilibrium dilution rate and the derived kernels.

    ``x_star`` is normalized so that <p, x_star> = 1; ``k_tilde`` integrates
    to one; ``g`` is the output-weighted profile p * x_star.
    """

    d_star: float
    x_star: GridFunction
    g: GridFunction
    k_tilde: GridFunction
    k_tilde_prime: GridFunction


def lotka_sharpe_residual(d: float, params: ModelParams) -> float:
    """int_0^A k(a) exp(-d a - int_0^a mu) da - 1; strictly decreasing in d."""
    w = params.weights
    return float(w @ (params.k.values * params.survival(d))) - 1.0


def solve_equilibrium(params: ModelParams) -> Equilibrium:
    """Solve the renewal condition for d_star and build the equilibrium kernels.

    The residual R(d) = sum_j w_j k_j exp(-d a_j - int_0^a_j mu) - 1 is a sum
    of decreasing exponentials with weights w_j k_j >= 0, so it is convex and
    decreasing, and Newton's method from d = 0 rises monotonically to the
    root.  Each iterate takes R and its slope from one survival exponential,
    until R < 1e-14 or rounding stops the rise.  Raises NoRoot if R(0) <
    -1e-12 (no nonnegative dilution sustains the population) or if the next
    iterate would pass d = 1e6 (R stays positive, as when (h/3) k(0) > 1).
    The slope k' in k_tilde_prime is :func:`grid.fd4`'s, exact for the named k forms.
    """
    w, d = params.weights, 0.0
    while True:
        ks = params.k.values * params.survival(d)
        r = float(w @ ks) - 1.0
        if d == 0.0 and r < -1e-12:  # roundoff band: a pre-calibrated kernel may land at -eps
            raise NoRoot("residual(0) = %g < 0; no equilibrium dilution rate" % r)
        slope = float(w @ (params.nodes * ks))  # -R'(d) >= 0
        if not r < slope * (_D_UPPER_CAP - d):  # a flat R (slope 0) included
            raise NoRoot("no root below d = %g" % _D_UPPER_CAP)
        if r < 1e-14 or d + r / slope == d:
            break
        d += r / slope
    survival = params.survival(d)
    norm = float(w @ (params.p.values * survival))
    x_star = survival / norm
    k_tilde = params.k.values * survival
    kp = fd4(params.k.values, params.h)
    k_tilde_prime = (kp - (d + params.mu.values) * params.k.values) * survival
    mk = lambda v: GridFunction(v, params.a_max)
    return Equilibrium(
        d_star=d,
        x_star=mk(x_star),
        g=mk(x_star * params.p.values),
        k_tilde=mk(k_tilde),
        k_tilde_prime=mk(k_tilde_prime),
    )


def calibrate_birth_modulus(shape: GridFunction, d_star_target: float, params: ModelParams) -> float:
    """Scale c so that c * shape satisfies the renewal condition at d_star_target."""
    if np.any(shape.values < 0):
        raise DegenerateShape("shape must be nonnegative")
    w = params.weights
    integral = float(w @ (shape.values * params.survival(d_star_target)))
    if integral <= 1e-300:
        raise DegenerateShape("shape integrates to zero against the survival kernel")
    return 1.0 / integral


def check_initial_condition(x0: GridFunction, params: ModelParams) -> None:
    """Admissibility of an initial profile: positive and boundary compatible.

    Compatibility means x0(0) = <k, x0> within COMPAT_RTOL * max|x0|.
    Raises InvalidIC naming the failed condition; this is the one rule
    both simulation routes and the config loader apply.
    """
    v = x0.values
    if not np.all(v > 0):
        raise InvalidIC("profile not positive everywhere (min %g)" % v.min())
    gap = abs(compatibility_gap(x0, params))
    if gap > COMPAT_RTOL * float(np.max(np.abs(v))):
        raise InvalidIC("profile not boundary-compatible (gap %g)" % gap)


def compatibility_gap(x0: GridFunction, params: ModelParams) -> float:
    """Signed defect x0(0) - <k, x0> of the non-local boundary condition."""
    w = params.weights
    return float(x0.values[0] - w @ (params.k.values * x0.values))
