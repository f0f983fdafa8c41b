"""Exception hierarchy with stable machine-readable tags.

Every error carries a ``tag`` and an ``exit_code`` class attribute.  The
command line prints the tag on stderr so scripts can branch on it without
parsing prose, and exits with the code: usage and I/O problems exit 3, inputs
that are not a compound of the requested shape exit 1, and numerical failures
inside the recovery pipeline, like any other error, exit 2.
"""

__all__ = [
    "AlignmentFailedError",
    "CompoundKitError",
    "DecompositionFailedError",
    "DegenerateInputError",
    "InconsistentCompoundValuesError",
    "InvalidArgumentError",
    "MatrixIOError",
    "NotCompoundDecomposableError",
    "NumericalFailureError",
    "OrderingFailedError",
    "PreprocessingFailedError",
    "RankDeficientSystemError",
    "SignAdjustmentFailedError",
    "SingularInputError",
    "VerificationFailedError",
]


class CompoundKitError(Exception):
    tag = "error"
    exit_code = 2


class InvalidArgumentError(CompoundKitError, ValueError):
    """Caller passed an argument outside a function's contract."""

    tag = "invalid-argument"
    exit_code = 3


class MatrixIOError(CompoundKitError):
    """A matrix file could not be read or written."""

    tag = "io-error"
    exit_code = 3


class DegenerateInputError(InvalidArgumentError):
    """Input is exactly degenerate (e.g. a zero vector) where a nonzero one is required."""

    tag = "degenerate-input"


class NotCompoundDecomposableError(CompoundKitError):
    """No matrix of the requested shape has the given compound.

    Raised under this tag only on a rank count: the rank of M is no
    binom(r, k).  The other certificate, a candidate that fails to
    reproduce M, is its subclass :class:`VerificationFailedError`.
    """

    tag = "not-compound-decomposable"
    exit_code = 1


class VerificationFailedError(NotCompoundDecomposableError):
    """A candidate failed the reconstruction check: its compound misses M.

    Every reconstruction check raises this, whatever the candidate: the
    unique answer of ``inverse_compound``, a rank-one family's
    representative (``inverse_compound`` and ``rank_one_inverse``), the
    result of ``closed_form_inverse_nminus1`` and the A given to
    ``compound-kit verify``.  Above rank one the preimage is unique up to
    sign, and at rank one the family is all of it, so a candidate that
    misses M is evidence that M has none: ``inverse_compound`` raises this
    at the refusal of either kind of rung-1 candidate, with no SVD route
    after it, under every policy whose ``gap_rtol`` is at least the
    default's.  For ``compound-kit verify`` it says only that the given A
    is no preimage.
    """

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

    Raised only by the reference route's ``wedge_decompose``, when it finds
    no such directions.  The pipeline's design stages raise nothing: a zero
    design product, or two that span the same directions, gives a candidate
    that ``verify`` refuses as :class:`VerificationFailedError`.
    """

    tag = "decomposition-failed"


class OrderingFailedError(NumericalFailureError):
    """Squared compound singular values came out non-positive."""

    tag = "ordering-failed"


class AlignmentFailedError(NumericalFailureError):
    """SVD factor columns could not be matched to compound columns up to sign."""

    tag = "alignment-failed"


class SignAdjustmentFailedError(NumericalFailureError):
    """The parity system for column sign flips has no solution (reference route only).

    The pipeline takes the particular solution instead, and its final check
    refuses the answer of an M whose signs no compound gives.
    """

    tag = "sign-adjustment-failed"


class InconsistentCompoundValuesError(NumericalFailureError):
    """Diagonal values are not consistent with any k-fold product structure."""

    tag = "inconsistent-compound-values"


class RankDeficientSystemError(NumericalFailureError):
    """A linear system expected to have full column rank does not."""

    tag = "rank-deficient-system"
