"""Exception types shared across the package."""


class QemcmcError(Exception):
    """Base class for all package-specific errors."""


class MismatchedDimensions(QemcmcError):
    """Operands act on configuration spaces of different sizes."""


class NegativeProbability(QemcmcError):
    """A kernel combination produced an entry below the negativity tolerance."""


class AsymmetricKernel(QemcmcError):
    """A symmetric proposal kernel was required but the certificate failed."""


class NotStochastic(QemcmcError):
    """A proposal kernel's columns do not sum to one."""


class NegativeDiagonal(QemcmcError):
    """Transition-matrix assembly produced a negative rejection mass."""


class NotReversible(QemcmcError):
    """Detailed balance does not hold to the required tolerance."""


class EigensolverFailure(QemcmcError):
    """The dense symmetric eigensolver did not converge."""


class NoConvergence(QemcmcError):
    """An iterative search hit its cap: Krylov propagation could not reach
    its residual target, or the mixing-time search its total-variation
    target (gap numerically zero)."""


class MeasureTooLarge(QemcmcError):
    """Bottleneck set has stationary measure above one half."""


class BudgetExceeded(QemcmcError):
    """A dense route would allocate a 2^N-indexed array past the one size
    rule: more than 2^24 float64 entries."""
