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


class ImpreciseGap(QemcmcError):
    """A gap's own rounding-error estimate exceeds sqrt(eps) of it: fewer
    than half of its digits would be significant."""


class NoConvergence(QemcmcError):
    """The mixing-time search hit its step cap before its total-variation
    target (gap numerically zero)."""


class MeasureTooLarge(QemcmcError):
    """Bottleneck set has stationary measure above one half."""


class BudgetExceeded(QemcmcError):
    """An array would break the one size rule: more than 2^24 float64
    entries."""
