"""Exception hierarchy shared by every module in the package.

All library errors derive from :class:`RsmLqrError` so callers can catch one
type at an API boundary.  Most also derive from :class:`ValueError` because
they signal unusable input rather than internal state corruption.
"""


class RsmLqrError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(RsmLqrError, ValueError):
    """A matrix is non-square where squareness is required, or operand
    dimensions are incompatible."""


class InvalidMatrixError(RsmLqrError, ValueError):
    """Matrix content is unusable: wrong number of dimensions, empty where
    entries are required, or non-finite entries."""


class NotSymmetricError(RsmLqrError, ValueError):
    """A matrix required to be symmetric is asymmetric beyond tolerance."""


class NotPSDError(RsmLqrError, ValueError):
    """A matrix required to be positive semidefinite has an eigenvalue
    below the negative tolerance."""


class NotPDError(RsmLqrError, ValueError):
    """A matrix required to be positive definite is singular or indefinite
    at the working tolerance."""


class NotHurwitzError(RsmLqrError, ValueError):
    """A matrix required to be Hurwitz has an eigenvalue with nonnegative
    real part."""


class NotStabilizableError(RsmLqrError, ValueError):
    """No stabilizing Riccati solution exists: the stable invariant subspace
    of the Hamiltonian is degenerate, typically because (A, B) is not
    stabilizable or the optimal closed loop touches the imaginary axis."""


class SingularMatrixError(RsmLqrError, ValueError):
    """A linear solve hit an exactly singular matrix."""


class PatternError(RsmLqrError, ValueError):
    """A composition pattern is malformed: a pair is not two integers, an
    index is out of range or a state is shared more than once."""


class InvalidArgumentError(RsmLqrError, ValueError):
    """A scalar argument, such as a tolerance or a horizon, is out of range."""


class SchemaError(RsmLqrError, ValueError):
    """A problem file violates the input schema.  The message names the
    offending JSON path and the first violated constraint."""


class NumericalFailureError(RsmLqrError, ArithmeticError):
    """A numerical routine could not reach its accuracy contract."""


class InconsistencyError(RsmLqrError, AssertionError):
    """Two checks that must agree disagreed.  This is a hard failure: it
    means either an implementation bug or a genuinely broken invariant, and
    is never downgraded to a warning."""


class DetectabilityWarning(UserWarning):
    """The pair (A, sqrt(Q)) failed the detectability test; the computed
    Riccati solution may not be the unique stabilizing one."""
