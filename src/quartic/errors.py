"""Exception types shared across the package."""


class QuarticError(Exception):
    """Base class for package-specific failures."""


class UnsignedElement(QuarticError):
    """gamma/delta decomposition requested for a mixed-sign element."""


class NonIntegralInput(QuarticError):
    """An operation restricted to integer coefficients got a fraction."""


class InternalMismatch(QuarticError):
    """Two independent computations of the same quantity disagree."""


class SingularMatrix(QuarticError):
    """Inverse of a matrix with determinant zero."""


class NotUnimodular(QuarticError):
    """Operation requires determinant one."""


class WrongSubring(QuarticError):
    """Matrix entries do not lie in the subring the operation expects."""


class ScalarMatrix(QuarticError):
    """Eigenvector machinery is meaningless for scalar matrices."""


class ParabolicNotSupported(QuarticError):
    """Double-eigenvalue input to the eigensolver."""


class DimensionMismatch(QuarticError):
    """Projective points of different ambient dimension."""


class HypothesisViolated(QuarticError):
    """Ping-pong preconditions fail (fixed-point sets intersect)."""


class NotHyperbolicLike(QuarticError):
    """Ping-pong input has no dominant eigenvalue pair."""


class DepthTooLarge(QuarticError):
    """Word-enumeration depth beyond the depth cap."""


class SearchOverflow(QuarticError):
    """Exponent search exceeded its hard cap."""


class UndecidedComparison(QuarticError):
    """A chordal-distance enclosure reached its precision cap (4096 bits)
    without a nonnegative numerator over a positive denominator."""


class UsageError(Exception):
    """Bad command-line usage: a malformed argument or an out-of-range
    setting.  The command exits 2 with its message."""
