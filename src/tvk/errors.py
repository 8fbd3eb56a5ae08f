"""Exception hierarchy shared by all modules."""


class TvkError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(TvkError):
    pass


class DegenerateSimplex(TvkError):
    """Simplex vertices are affinely dependent."""


class TrianglesIntersect(TvkError):
    """Triangle boundary curves meet; linking is undefined."""


class GeneralPositionViolated(TvkError):
    """Input (or input plus witness) has d+1 points on a common hyperplane."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


class PerturbationFailed(TvkError):
    """Bounded perturbation retries did not reach general position."""


class SizeOutOfRange(TvkError):
    """Point count violates an operation's size precondition or desk-scale gate."""


class BudgetExceeded(TvkError):
    """Fixing loop needed more steps than the user-specified budget."""

    def __init__(self, message, partition=None, trace=None):
        super().__init__(message)
        self.partition = partition
        self.trace = trace


class InternalError(TvkError):
    """An internal invariant failed: a bug, never a property of the input."""
