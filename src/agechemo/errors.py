"""Exception hierarchy for the toolkit."""


class AgeChemoError(Exception):
    """Base class for all toolkit errors."""


class NoRoot(AgeChemoError):
    """The Lotka-Sharpe residual has no sign change on the search interval."""


class DegenerateShape(AgeChemoError):
    """Birth-modulus shape integrates to zero against the survival kernel."""


class NonPositive(AgeChemoError):
    """A quantity that must be positive is not."""


class NonPositiveOutput(AgeChemoError):
    """Measured output y <= 0; signals a simulator positivity violation."""


class InvalidIC(AgeChemoError):
    """Initial profile violates positivity or boundary compatibility."""


class HistoryGap(AgeChemoError):
    """Requested time is outside the stored history window."""


class LogDomain(AgeChemoError):
    """Argument of a logarithm is non-positive."""


class RootSearchExhausted(AgeChemoError):
    """Fewer characteristic roots found than requested."""


class DependentBasis(AgeChemoError):
    """Trial functions are numerically linearly dependent."""


class Instability(AgeChemoError):
    """Modal weights overflowed during integration."""


class B3Fail(AgeChemoError):
    """No kernel-contraction constant exists; certificate construction impossible."""


class NoFeasiblePair(AgeChemoError):
    """No (p1, p2) satisfying the quadratic-form inequalities was found."""


class InvalidTrajectory(AgeChemoError):
    """Reference trajectory violates the validity band; no decay rate exists."""


class ParseError(AgeChemoError):
    """Config file is missing or not well-formed."""


class ValidationError(AgeChemoError):
    """Config contents violate the schema; message names the key path."""


class GridMismatch(AgeChemoError):
    """Two traces or grid functions do not share a sampling grid."""
