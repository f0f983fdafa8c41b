"""Exception hierarchy with stable machine-readable tags.

Every error carries a ``tag`` class attribute.  The command line prints the
tag on stderr so scripts can branch on it without parsing prose, and maps the
hierarchy onto exit codes: usage and I/O problems exit 3, inputs that are not
a compound of the requested shape exit 1, and numerical failures inside the
recovery pipeline exit 2.
"""


class CompoundKitError(Exception):
    tag = "error"


class InvalidArgumentError(CompoundKitError, ValueError):
    """Caller passed an argument outside a function's contract."""

    tag = "invalid-argument"


class MatrixIOError(CompoundKitError):
    """A matrix file could not be read or written."""

    tag = "io-error"


class DegenerateInputError(InvalidArgumentError):
    """Input is exactly degenerate (e.g. a zero vector) where a nonzero one is required."""

    tag = "degenerate-input"


class NotCompoundDecomposableError(CompoundKitError):
    """No matrix of the requested shape has the given compound."""

    tag = "not-compound-decomposable"


class VerificationFailedError(NotCompoundDecomposableError):
    """A recovered candidate failed the final reconstruction check."""

    tag = "verification-failed"


class NumericalFailureError(CompoundKitError):
    """A pipeline stage could not complete at the configured tolerances."""

    tag = "numerical-failure"


class SingularInputError(NumericalFailureError):
    """An invertible matrix was required but the input is numerically singular."""

    tag = "singular-input"


class PreprocessingFailedError(NumericalFailureError):
    """No random change of basis produced well-separated singular values."""

    tag = "preprocessing-failed"


class DecompositionFailedError(NumericalFailureError):
    """The input did not decompose into the expected one-dimensional directions.

    Raised when wedge decomposition finds no such directions, and when the
    compounds of the recovered frames do not diagonalize the input.
    """

    tag = "decomposition-failed"


class OrderingFailedError(NumericalFailureError):
    """Squared compound singular values came out non-positive."""

    tag = "ordering-failed"


class AlignmentFailedError(NumericalFailureError):
    """SVD factor columns could not be matched to compound columns up to sign."""

    tag = "alignment-failed"


class SignAdjustmentFailedError(NumericalFailureError):
    """The parity system for column sign flips has no solution."""

    tag = "sign-adjustment-failed"


class InconsistentCompoundValuesError(NumericalFailureError):
    """Diagonal values are not consistent with any k-fold product structure."""

    tag = "inconsistent-compound-values"


class RankDeficientSystemError(NumericalFailureError):
    """A linear system expected to have full column rank does not."""

    tag = "rank-deficient-system"
