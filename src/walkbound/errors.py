"""Exception types shared across the package."""


class WalkboundError(Exception):
    """Base class for every error this package raises deliberately."""


class DimensionMismatchError(WalkboundError):
    """Operands have incompatible shapes."""


class NonFiniteEntryError(WalkboundError):
    """A matrix entry is NaN or infinite."""


class WalkScaleError(WalkboundError):
    """Walk weights of A / 2^e passed 1e300 at too high an order, or a
    result does not fit in float64 in the input's units."""


class ConvergenceError(WalkboundError):
    """An iterative solver ran out of iterations.

    The best iterate seen so far, when one exists, is attached as ``best``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class PreconditionError(WalkboundError):
    """Input violates a documented precondition of the operation."""


class NotScalarError(PreconditionError):
    """The operation needs a scalar matrix (one common phase on the support)."""


class GeneratorError(WalkboundError):
    """A generator spec cannot be realized as stated."""


class InputFormatError(WalkboundError):
    """A matrix file could not be parsed."""
