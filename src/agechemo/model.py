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
from .grid import GridFunction, cumtrapz, simpson_weights

#: |x0(0) - <k, x0>| tolerance, relative to max|x0|.  Exact equality is the
#: mathematical requirement; floating point needs a band.
COMPAT_RTOL = 1e-6

_D_UPPER_CAP = 1e6


@dataclass(frozen=True)
class ModelParams:
    """Plant parameters on a shared uniform age grid.

    ``k_prime`` optionally carries the analytic derivative of the birth
    modulus at the nodes (set by the config loader for named closed forms);
    consumers fall back to grid differentiation when it is None.
    """

    mu: GridFunction
    k: GridFunction
    p: GridFunction
    a_max: float
    d_min: float
    d_max: float
    k_prime: GridFunction | None = None
    cum_mu: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("mu", "k", "p"):
            gf: GridFunction = getattr(self, name)
            if gf.a_max != self.a_max or gf.n != self.mu.n:
                raise ValueError("%s grid does not match a_max=%g" % (name, self.a_max))
            if np.any(gf.values < 0):
                raise ValueError("%s must be nonnegative" % name)
        if self.k.integral() <= 0 or self.p.integral() <= 0:
            raise ValueError("k and p must not be identically zero")
        if not (0 <= self.d_min < self.d_max):
            raise ValueError("need 0 <= d_min < d_max")
        # cumulative mortality, precomputed once and reused by every module
        object.__setattr__(self, "cum_mu", cumtrapz(self.mu.values, self.mu.h))

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


def _residual_slope(d: float, params: ModelParams) -> float:
    w = params.weights
    return float(w @ (-params.nodes * params.k.values * params.survival(d)))


def solve_equilibrium(params: ModelParams) -> Equilibrium:
    """Solve the renewal condition for d_star and build the equilibrium kernels.

    Bracket by doubling, bisect to 1e-6, polish with Newton to ~1e-12.
    Raises NoRoot when the residual at d = 0 is already negative (the birth
    kernel cannot sustain the population at any nonnegative dilution).
    """
    r0 = lotka_sharpe_residual(0.0, params)
    if r0 < -1e-12:  # roundoff band: a pre-calibrated kernel may land at -eps
        raise NoRoot("residual(0) = %g < 0; no equilibrium dilution rate" % r0)
    d_hi = 1.0
    while lotka_sharpe_residual(d_hi, params) > 0:
        d_hi *= 2.0
        if d_hi > _D_UPPER_CAP:
            raise NoRoot("no sign change below d = %g" % _D_UPPER_CAP)
    lo, hi = 0.0, d_hi
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if lotka_sharpe_residual(mid, params) > 0:
            lo = mid
        else:
            hi = mid
    d = 0.5 * (lo + hi)
    for _ in range(60):
        r = lotka_sharpe_residual(d, params)
        if abs(r) < 1e-14:
            break
        d -= r / _residual_slope(d, params)
    survival = params.survival(d)
    w = params.weights
    norm = float(w @ (params.p.values * survival))
    x_star = survival / norm
    k_tilde = params.k.values * survival
    if params.k_prime is not None:
        kp = params.k_prime.values
    else:
        from .grid import fd4

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
