"""Exception types shared across the toolkit."""


class GviError(Exception):
    """Base class for all toolkit errors."""


class NumericDomainError(GviError):
    """An operator or map produced non-finite output.

    Attributes
    ----------
    component : str
        Name of the offending component, e.g. ``"T"``, ``"g"``, ``"iterate"``.
    """

    def __init__(self, component, message=None):
        self.component = component
        super().__init__(message or f"component {component!r} produced non-finite values")


class CapabilityError(GviError):
    """A required optional capability (g_inverse, jacobian, ...) is missing."""


class UnsupportedSetError(GviError):
    """The operation requires a different convex-set variant."""


class InfeasibleSetError(GviError):
    """The described set is empty (hyperplane misses the base set)."""


class DivergenceError(GviError):
    """Iterates blew past the divergence threshold.

    Attributes
    ----------
    last_iterate : ndarray
        The final iterate before the detector fired.
    """

    def __init__(self, last_iterate, message=None):
        self.last_iterate = last_iterate
        super().__init__(message or "iterate norm exceeded the divergence threshold 1e12")


class InnerLoopError(GviError):
    """An inner fixed-point loop failed to reach its tolerance.

    Attributes
    ----------
    variant : str
        Tag of the scheme whose inner loop failed.
    """

    def __init__(self, variant, message=None):
        self.variant = variant
        super().__init__(message or f"inner fixed-point loop for {variant!r} did not converge")


class LineSearchError(GviError):
    """The Armijo line search exceeded its maximum power."""


class StallError(GviError):
    """Backtracking failed to find sufficient decrease within the halving limit."""


class OracleContractError(GviError):
    """An auxiliary-subproblem oracle returned an infeasible point."""


class GridError(GviError):
    """Grid size violates a divisibility requirement."""


class AssemblyError(GviError):
    """The assembled linear system is singular or otherwise unsolvable."""


class ProblemSpecError(GviError):
    """Unknown benchmark problem id or malformed configuration."""
