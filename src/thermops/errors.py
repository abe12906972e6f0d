"""Exception hierarchy shared by all thermops modules."""


class ThermopsError(Exception):
    """Base class for all library errors."""


class InvalidInputError(ThermopsError):
    """Malformed or out-of-domain input (bad beta, negative probabilities, ...)."""


class DimensionMismatchError(InvalidInputError):
    """Operands have incompatible dimensions."""


class OrderingError(ThermopsError):
    """A majorisation / thermo-majorisation precondition does not hold."""


class ApproximationError(ThermopsError):
    """An approximation too coarse for the request: a rational approximation
    of the thermal vector, or a map whose floating-point residual exceeds the
    tolerance.

    Carries the achieved `approx_error` (the approximation's error or the
    map's residual).
    """

    def __init__(self, message, approx_error=None):
        super().__init__(message)
        self.approx_error = approx_error


class ResolutionError(ThermopsError):
    """Discretisation too coarse (frequency clusters merging, bath too small)."""


class UnreachableError(ThermopsError):
    """Requested target state is outside the reachable set."""


class UnboundedRateError(ThermopsError):
    """Asymptotic conversion rate diverges (uniform target)."""
