"""Exception types shared across the package.

Every error raised by kcone derives from KconeError so callers can catch
the whole family at once. Names state the violated condition.
"""


class KconeError(Exception):
    """Base class for all kcone errors."""


class BadParameter(KconeError):
    """A scalar or structural argument is outside its documented range."""


class DimensionMismatch(KconeError):
    """Vector or matrix shapes are inconsistent."""


# ---- cone construction and linear algebra ----

class NotSymmetric(KconeError):
    """Matrix fails the relative symmetry test."""


class NearSingular(KconeError):
    """Eigenvalue magnitude ratio below the singularity cutoff."""


class DegenerateRank(KconeError):
    """Quadratic form has no negative directions, or no positive ones."""


class NoConvergence(KconeError):
    """Iteration cap reached without meeting the convergence test."""


class IdenticalPoints(KconeError):
    """Two points coincide within the distinctness cutoff."""


# ---- certificates ----

class DomainViolation(KconeError):
    """A point lies outside the field's declared domain."""


class EmptyDomain(KconeError):
    """Domain has no volume (some upper bound does not exceed the lower)."""


class AllPairsDegenerate(KconeError):
    """Every sampled pair collapsed below the distinctness cutoff."""


class NonFiniteDerivative(KconeError):
    """A finite-difference derivative estimate came out nan or inf."""


# ---- integration ----

class IntegrationFailure(KconeError):
    """Generic integration breakdown."""


class StepUnderflow(IntegrationFailure):
    """Adaptive step fell below the resolvable fraction of the horizon."""


class NonFiniteState(IntegrationFailure):
    """State or right-hand side became nan or inf at an accepted node."""


class NodeBudgetExceeded(IntegrationFailure):
    """A run would store more nodes than the integrator's budget allows."""


class DomainExit(KconeError):
    """Trajectory left the declared domain where that is not permitted."""


# ---- expression parsing ----

class ExpressionSyntaxError(KconeError):
    """Malformed expression text; position is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class UnknownIdentifier(ExpressionSyntaxError):
    """Name is neither a variable, a parameter, nor a known function."""


class ArityMismatch(ExpressionSyntaxError):
    """Function called with the wrong number of arguments."""


# ---- limit sets ----

class TrajectoryTooShort(KconeError):
    """Trajectory does not cover the requested analysis window."""


class TooFewPoints(KconeError):
    """Point set too small for the requested analysis."""


class RankNotTwo(KconeError):
    """Operation requires a rank-2 cone."""


class NotConverged(KconeError):
    """Limit-set estimate failed its convergence test."""


# ---- scenario / reporting ----

class SchemaError(KconeError):
    """Scenario or report JSON violates the published schema."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{message} (at JSON pointer '{pointer or '/'}')")
        self.pointer = pointer


class IoError(KconeError):
    """File could not be read, parsed, or written."""
