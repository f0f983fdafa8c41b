"""Multiplicative compound matrices and inverse-compound recovery.

The k-th multiplicative compound of a matrix collects all of its k x k
minors.  This package computes compounds, wedge products, and adjugate
identities, and solves the inverse problem: given a matrix known to be a
k-th compound, reconstruct its source, which is unique up to sign whenever
the compound has rank above one.
"""

__version__ = "0.1.0"

from .combinat import (
    IndexTuple,
    SubsetIncidence,
    binom,
    incidence_matrix,
    indexof_tuple,
    lex_tuples,
    unrank_tuple,
)
from .errors import (
    AlignmentFailedError,
    CompoundKitError,
    DecompositionFailedError,
    DegenerateInputError,
    InconsistentCompoundValuesError,
    InvalidArgumentError,
    MatrixIOError,
    NotCompoundDecomposableError,
    NumericalFailureError,
    OrderingFailedError,
    PreprocessingFailedError,
    RankDeficientSystemError,
    SignAdjustmentFailedError,
    SingularInputError,
    VerificationFailedError,
)
from .exterior import (
    DecomposabilityResult,
    SignReversalPair,
    WedgeMatrix,
    adjugate,
    adjugate_via_compound,
    compound,
    is_decomposable,
    sign_reversal_pair,
    wedge,
    wedge_matrix,
)
from .matio import parse_matrix, render_matrix, write_matrix
from .numerics import (
    DEFAULT_POLICY,
    LeastSquaresSolution,
    ReducedSvd,
    TolerancePolicy,
    gf2_solve,
    gf2_solver,
    kernel_basis,
    least_squares,
    reduced_svd,
    subspace_intersection,
)
from .recovery import (
    RankDeficientFamily,
    RankOneFamily,
    RecoveryOutcome,
    RecoveryReport,
    RecoveryResult,
    UniqueUpToSign,
    closed_form_inverse_nminus1,
    family_contains,
    infer_base_rank,
    inverse_compound,
    preprocess_distinct,
    rank_one_inverse,
    reconstruction_residual,
    recover_singular_values,
)
from .reference import (
    AlignedFactors,
    align_and_sign_adjust,
    order_compound_singular_values,
    wedge_decompose,
)

__all__ = [
    "__version__",
    # combinat
    "IndexTuple",
    "SubsetIncidence",
    "binom",
    "incidence_matrix",
    "indexof_tuple",
    "lex_tuples",
    "unrank_tuple",
    # errors
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
    # exterior
    "DecomposabilityResult",
    "SignReversalPair",
    "WedgeMatrix",
    "adjugate",
    "adjugate_via_compound",
    "compound",
    "is_decomposable",
    "sign_reversal_pair",
    "wedge",
    "wedge_matrix",
    # matio
    "parse_matrix",
    "render_matrix",
    "write_matrix",
    # numerics
    "DEFAULT_POLICY",
    "LeastSquaresSolution",
    "ReducedSvd",
    "TolerancePolicy",
    "gf2_solve",
    "gf2_solver",
    "kernel_basis",
    "least_squares",
    "reduced_svd",
    "subspace_intersection",
    # recovery
    "RankDeficientFamily",
    "RankOneFamily",
    "RecoveryOutcome",
    "RecoveryReport",
    "RecoveryResult",
    "UniqueUpToSign",
    "closed_form_inverse_nminus1",
    "family_contains",
    "infer_base_rank",
    "inverse_compound",
    "preprocess_distinct",
    "rank_one_inverse",
    "reconstruction_residual",
    "recover_singular_values",
    # reference
    "AlignedFactors",
    "align_and_sign_adjust",
    "order_compound_singular_values",
    "wedge_decompose",
]
