"""Exception types used across the package.

Every exception derives from BlockLanczosError so callers can catch the
package's failures with one clause. Exceptions that interrupt an iterative
process carry whatever partial state is useful for a post-mortem.
"""


class BlockLanczosError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(BlockLanczosError):
    """Operands have inconsistent dimensions or block structure."""


class NonFiniteOperator(BlockLanczosError):
    """An operator or an input block has NaN or infinite entries (or a
    norm that overflows)."""


class NotSymmetric(BlockLanczosError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotPositiveDefinite(BlockLanczosError):
    """A block CG operator has no Cholesky factor (it is not SPD)."""


class RankDeficient(BlockLanczosError):
    """QR of a block vector met a diagonal entry too small to trust."""


class RankDeficientStart(BlockLanczosError):
    """The starting block has (numerically) dependent columns."""


class ConvergenceFailure(BlockLanczosError):
    """An underlying eigensolver or factorization did not converge."""


class SingularInnerSolve(BlockLanczosError):
    """A small Gram system inside a block CG step is numerically singular."""


class OverlappingIntervals(BlockLanczosError):
    """Blur width is too large for the gaps of the base spectrum."""


class InnerBreakdown(BlockLanczosError):
    """The inner exact Lanczos run ended too early to build a test matrix."""


class ParseError(BlockLanczosError):
    """Malformed Matrix Market input.

    Carries the 1-based line number where parsing failed.
    """

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = "line %d: %s" % (line_number, message)
        super().__init__(message)
        self.line_number = line_number


class UnsupportedField(BlockLanczosError):
    """Matrix Market field or symmetry this reader does not handle."""


class EmptySelection(BlockLanczosError):
    """No Ritz pair exceeded the selection threshold."""


class NearDependentRitzVectors(BlockLanczosError):
    """Selected Ritz vectors are too close to dependence to orthonormalize."""


class CapReached(BlockLanczosError):
    """The continuation process did not close within the step cap."""


class AssumptionUnsatisfiable(BlockLanczosError):
    """A certificate hypothesis cannot be met by the data at hand."""
