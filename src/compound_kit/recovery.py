"""Inverse-compound recovery.

Given M equal to the k-th multiplicative compound of some unknown n x m
matrix A, :func:`inverse_compound` recovers A.  The answer's shape depends on
the rank of M:

* rank(M) > 1: A is determined up to a global sign, and the sign is only
  ambiguous when k is even.
* rank(M) = 1: every preimage has rank exactly k and the preimages form the
  family ``{U @ Sigma @ T @ V.T : det(T) = 1}`` returned as
  :class:`RankOneFamily`.
* M = 0: the preimages are exactly the matrices of rank below k.

The pipeline for the unique case (rank(M) > 1) is the contraction route:

1. ``svd``: compact SVD ``M = L diag(s) R^T``; its rank binom(r, k) gives the
   source rank r, and M is divided by ``s_1`` (the answer is rescaled by
   ``s_1^(1/k)`` at the end, so no stage sees extreme magnitudes).
2. ``preprocess``: each side's source frame comes from one signed
   (k-1)-contraction of the SVD factor (:func:`_contraction_frame`); its r
   singular values must be pairwise distinct, which holds exactly when the
   source singular values are.  When they are not (``M = I``, orthogonal or
   repeated-sigma sources) M is replaced by ``compound(Q, k) @ M`` for a
   random Q (:func:`preprocess_distinct`).
3. ``frames``: the right frame by the same contraction, then the structural
   check that ``compound(U, k)^T M compound(V, k)`` is diagonal.
4. ``singular_values``: the log-magnitudes of that diagonal give sigma
   through the subset-incidence least squares, and its signs give the column
   flips of V through a parity system over GF(2).
5. ``compose`` and ``verify``: ``A = U diag(sigma) V^T`` (undoing Q and the
   scale), and a final check that ``compound(A, k)`` reproduces M.

The paper's own route, which wedge-decomposes every column of the SVD
factors (:func:`wedge_decompose`) and aligns the directions against them
(:func:`align_and_sign_adjust`, :func:`order_compound_singular_values`), is
kept as the reference the contraction route is tested against.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .combinat import binom, incidence_matrix
from .errors import (
    AlignmentFailedError,
    DecompositionFailedError,
    InconsistentCompoundValuesError,
    InvalidArgumentError,
    NotCompoundDecomposableError,
    OrderingFailedError,
    PreprocessingFailedError,
    SignAdjustmentFailedError,
    SingularInputError,
    VerificationFailedError,
)
from .exterior import _contraction_table, _tuple_array, compound, wedge_matrix
from .numerics import (
    DEFAULT_POLICY,
    ReducedSvd,
    TolerancePolicy,
    _as_float_matrix,
    gf2_solve,
    kernel_basis,
    least_squares,
    reduced_svd,
    subspace_intersection,
)

__all__ = [
    "UniqueUpToSign",
    "RankOneFamily",
    "RankDeficientFamily",
    "RecoveryOutcome",
    "RecoveryReport",
    "RecoveryResult",
    "infer_base_rank",
    "preprocess_distinct",
    "wedge_decompose",
    "order_compound_singular_values",
    "recover_singular_values",
    "align_and_sign_adjust",
    "inverse_compound",
    "rank_one_inverse",
    "family_contains",
    "closed_form_inverse_nminus1",
]


@dataclass(frozen=True)
class UniqueUpToSign:
    """Recovered matrix; ``-A`` is an equally valid answer exactly when k is even."""

    A: np.ndarray
    sign_ambiguous: bool


@dataclass(frozen=True)
class RankOneFamily:
    """The preimage family ``{U @ Sigma @ T @ V.T : det(T) = 1}`` of a rank-one compound.

    ``U`` (n x k) and ``V`` (m x k) have orthonormal columns and ``Sigma`` is
    a positive k x k diagonal.  ``representative()`` is the member with T = I.
    """

    U: np.ndarray
    Sigma: np.ndarray
    V: np.ndarray

    def representative(self) -> np.ndarray:
        return self.U @ self.Sigma @ self.V.T


@dataclass(frozen=True)
class RankDeficientFamily:
    """Preimages of the zero compound: all matrices of rank below k."""

    n: int
    m: int
    k: int

    def representative(self) -> np.ndarray:
        return np.zeros((self.n, self.m))


RecoveryOutcome = Union[UniqueUpToSign, RankOneFamily, RankDeficientFamily]


@dataclass
class RecoveryReport:
    """Diagnostics for one recovery run.

    ``inferred_r`` is the rank of the recovered matrix (for the rank-one and
    zero families it reports k, the family grade).  ``stage_timings`` maps
    stage names to seconds.
    """

    inferred_r: int = 0
    preprocessing_used: bool = False
    resample_count: int = 0
    reconstruction_residual: float = 0.0
    singular_value_residual: float = 0.0
    stage_timings: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class RecoveryResult:
    outcome: RecoveryOutcome
    report: RecoveryReport


@contextmanager
def _stage(report: RecoveryReport, name: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        report.stage_timings[name] = time.perf_counter() - start


def infer_base_rank(rank_m: int, k: int) -> int:
    """The unique r with binom(r, k) equal to the compound rank, or an error.

    Compound rank is always a binomial binom(r, k) of the source rank r; a
    rank that is not of that form certifies that no preimage exists.
    """
    if rank_m < 1 or k < 1:
        raise InvalidArgumentError(f"need positive rank and k, got rank={rank_m}, k={k}")
    r = k
    while math.comb(r, k) < rank_m:
        r += 1
    if math.comb(r, k) != rank_m:
        raise NotCompoundDecomposableError(
            f"rank {rank_m} is not binom(r, {k}) for any r; input is not a k-compound"
        )
    return r


class PreprocessResult(NamedTuple):
    """Outcome of :func:`preprocess_distinct`.

    ``svd`` is the compact SVD of ``M_tilde``.  ``frame`` (n x r) holds the
    left singular vectors of the source of ``M_tilde``, ordered by decreasing
    singular value and with arbitrary signs; it is None when M has rank at
    most one, where there is nothing to separate.
    """

    Q: np.ndarray
    M_tilde: np.ndarray
    used: bool
    resamples: int
    svd: ReducedSvd
    frame: np.ndarray | None


def preprocess_distinct(
    M,
    n: int,
    k: int,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> PreprocessResult:
    """Left-multiply M by a random compound until the source singular values separate.

    The contraction route needs the r singular values of the source to be
    pairwise distinct.  They are tested through the r contraction singular
    values of the left SVD factor (:func:`_contraction_frame`), which are
    distinct exactly when the source values are: consecutive relative gaps
    must reach ``gap_rtol``.  When they do not, M is replaced by
    ``compound(Q, k) @ M``, the compound of ``Q @ A``, for random square Q.
    Q = I and ``used=False`` when no resampling was needed.
    """
    M = _as_float_matrix(M, "M")
    if M.shape[0] != binom(n, k):
        raise InvalidArgumentError(
            f"M has {M.shape[0]} rows, expected binom({n}, {k}) = {binom(n, k)}"
        )
    svd = reduced_svd(M, policy)
    if svd.rank <= 1:
        return PreprocessResult(np.eye(n), M, False, 0, svd, None)
    r = infer_base_rank(svd.rank, k)
    frame, values = _contraction_frame(svd.left, svd.sigma, n, k, r)
    if _min_gap(values) >= policy.gap_rtol:
        return PreprocessResult(np.eye(n), M, False, 0, svd, frame)

    rng = policy.rng()
    best_gap = _min_gap(values)
    for attempt in range(1, policy.max_resample + 1):
        Q = rng.standard_normal((n, n))
        q_sigma = np.linalg.svd(Q, compute_uv=False)
        if q_sigma[-1] <= policy.rank_rtol * q_sigma[0] * n:
            continue  # essentially singular draw; try again
        M_tilde = compound(Q, k) @ M
        svd_t = reduced_svd(M_tilde, policy)
        if svd_t.rank != svd.rank:
            continue  # rank drifted through the cutoff; not a usable draw
        frame, values = _contraction_frame(svd_t.left, svd_t.sigma, n, k, r)
        gap = _min_gap(values)
        if gap >= policy.gap_rtol:
            return PreprocessResult(Q, M_tilde, True, attempt, svd_t, frame)
        best_gap = max(best_gap, gap)
    raise PreprocessingFailedError(
        f"no draw separated the source singular values in {policy.max_resample} attempts "
        f"(best relative gap {best_gap:.3e} < {policy.gap_rtol:.3e})"
    )


def _min_gap(values: np.ndarray) -> float:
    """Smallest consecutive gap of at least two decreasing values, relative to the largest."""
    return float(np.min(values[:-1] - values[1:]) / values[0])


def _contraction_frame(
    factor: np.ndarray, sigma: np.ndarray, n: int, k: int, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """One side's source frame from a compact SVD factor of its compound.

    For ``M = compound(A, k) = L diag(s) R^T`` and ``A = U Sigma V^T``, the
    rows of ``F = L diag(sqrt(s))`` are unfolded into the n-row matrix
    ``E[a, (S, p)] = eps(a, S) F[S + {a}, p]`` over the (k-1)-tuples S (see
    :func:`compound_kit.exterior._contraction_table`).  Then
    ``E E^T = U diag(lam) U^T`` with ``lam_i = sigma_i e_{k-1}(sigma_j : j != i)``,
    and ``lam_i - lam_j = (sigma_i - sigma_j) e_{k-1}(the other sigma)``, so
    the top r left singular vectors of E are U's columns in decreasing sigma
    order, each up to sign.

    The weight ``sqrt(s)`` rather than ``s`` makes the gaps between the lam
    grow with the other singular values rather than with their squares,
    which is what separates the frames of ill-conditioned sources.  E's
    singular values come from the triangular factor of a QR of ``E^T``: the
    conditioning is that of E, not of ``E E^T``, and E's right singular
    vectors are never formed.

    Returns the frame (n x r) and the r leading singular values of E,
    ``sqrt(lam)``, in decreasing order.
    """
    rows, signs = _contraction_table(n, k)
    E = (factor * np.sqrt(sigma))[rows]
    E *= signs[:, :, None]
    R = np.linalg.qr(E.reshape(n, -1).T, mode="r")
    _, values, Wt = np.linalg.svd(R, full_matrices=False)
    return Wt[:r].T, values[:r]


def wedge_decompose(
    Z, n: int, r: int, k: int, policy: TolerancePolicy = DEFAULT_POLICY
) -> np.ndarray:
    """Factor wedge coordinates into their rank-one direction matrix.

    Parameters
    ----------
    Z : array_like
        Shape (binom(n, k), binom(r, k)); each column holds the coordinates
        of a wedge of k vectors drawn from one unknown r-dimensional frame
        u_1, ..., u_r in R^n, with every k-subset represented.
    n, r, k : int
        Ambient dimension, frame size, and wedge grade, with k < r <= n.

    Returns
    -------
    numpy.ndarray
        Shape (n, r); columns are unit vectors spanning the individual
        directions span(u_i), in discovery order (no particular order or
        sign is promised).

    Notes
    -----
    Each column's wedge-matrix kernel recovers the k-dimensional span of its
    factors.  When k is at most ceil(r/2), pairwise intersections of those
    spans already isolate single directions.  Otherwise the spans are
    repeatedly contracted: intersecting two s-dimensional spans drawn from an
    r-frame yields spans of dimension 2s - r, and the contraction is iterated
    until pairwise intersections can reach dimension one.  For k = 1 the
    kernels are the directions themselves.
    """
    Z = _as_float_matrix(Z, "Z")
    if not 1 <= k < r or r > n:
        raise InvalidArgumentError(f"need 1 <= k < r <= n, got k={k}, r={r}, n={n}")
    if Z.shape != (binom(n, k), binom(r, k)):
        raise InvalidArgumentError(
            f"Z has shape {Z.shape}, expected ({binom(n, k)}, {binom(r, k)})"
        )

    subspaces = []
    for idx, col in enumerate(Z.T):
        if not np.any(col):
            raise DecompositionFailedError(f"column {idx} is exactly zero")
        basis = kernel_basis(wedge_matrix(col, n, k).data, policy)
        if basis.shape[1] != k:
            raise DecompositionFailedError(
                f"column {idx} has kernel dimension {basis.shape[1]}, expected {k}; "
                "column is not a decomposable k-vector"
            )
        subspaces.append(basis)

    if k == 1:
        # kernels are already lines; intersecting distinct lines would give nothing
        directions: list[np.ndarray] = []
        for basis in subspaces:
            _collect_direction(directions, basis[:, 0], policy)
    else:
        pool = subspaces
        s = k
        while s > math.ceil(r / 2):
            target = 2 * s - r
            contracted: list[np.ndarray] = []
            for i in range(len(pool)):
                for j in range(i + 1, len(pool)):
                    meet = subspace_intersection(pool[i], pool[j], policy)
                    if meet.shape[1] == target and not _span_seen(contracted, meet, policy):
                        contracted.append(meet)
            if not contracted:
                raise DecompositionFailedError(
                    f"no intersections of dimension {target} found while contracting"
                )
            pool = contracted
            s = target
        directions = []
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                meet = subspace_intersection(pool[i], pool[j], policy)
                if meet.shape[1] == 1:
                    _collect_direction(directions, meet[:, 0], policy)

    if len(directions) != r:
        raise DecompositionFailedError(
            f"found {len(directions)} direction(s), expected {r}"
        )
    return np.column_stack(directions)


def _collect_direction(directions: list[np.ndarray], u: np.ndarray, policy: TolerancePolicy) -> None:
    for v in directions:
        if min(np.linalg.norm(u - v), np.linalg.norm(u + v)) <= policy.sign_atol:
            return
    directions.append(u)


def _span_seen(spans: list[np.ndarray], B: np.ndarray, policy: TolerancePolicy) -> bool:
    for C in spans:
        if np.linalg.norm(B - C @ (C.T @ B)) <= policy.sign_atol * math.sqrt(B.shape[1]):
            return True
    return False


def order_compound_singular_values(
    M, V_hat, k: int, policy: TolerancePolicy = DEFAULT_POLICY
) -> np.ndarray:
    """Compound singular values of M in the column order of ``V_hat``.

    For M with right singular vectors spanned by compound(V_hat, k), the
    matrix ``(M M^T C)^T C`` with ``C = compound(V_hat, k)`` is diagonal with
    the squared compound singular values on the diagonal, each attached to
    the compound column it scales.  This pins which singular value goes with
    which column, independent of magnitude order.
    """
    M = _as_float_matrix(M, "M")
    V_hat = _as_float_matrix(V_hat, "V_hat")
    C = compound(V_hat, k)
    if C.shape[0] != M.shape[0]:
        raise InvalidArgumentError(
            f"M has {M.shape[0]} rows but compound(V_hat, k) has {C.shape[0]} rows"
        )
    squared = np.diag((M @ (M.T @ C)).T @ C).copy()
    if np.any(squared <= 0):
        raise OrderingFailedError(
            f"squared compound singular values must be positive, got min {squared.min():.3e}"
        )
    return np.sqrt(squared)


def recover_singular_values(
    d, r: int, k: int, policy: TolerancePolicy = DEFAULT_POLICY
) -> np.ndarray:
    """Individual singular values from their k-fold products.

    ``d`` holds the compound singular values in lexicographic k-tuple order:
    d_I = prod_{i in I} sigma_i.  Taking logs turns this into the linear
    system ``L x = log d`` with L the subset-incidence matrix, which has full
    column rank; the residual certifies that d really is a product vector.
    """
    d = np.asarray(d, dtype=float).ravel()
    if not 1 <= k < r:
        raise InvalidArgumentError(f"need 1 <= k < r, got k={k}, r={r}")
    if d.size != binom(r, k):
        raise InvalidArgumentError(
            f"d has length {d.size}, expected binom({r}, {k}) = {binom(r, k)}"
        )
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        raise InvalidArgumentError("compound singular values must be positive and finite")
    L = incidence_matrix(r, k).entries.astype(float)
    y = np.log(d)
    fit = least_squares(L, y)
    scale = max(1.0, float(np.linalg.norm(y)))
    if not fit.residual <= policy.residual_rtol * scale:
        raise InconsistentCompoundValuesError(
            f"log-linear residual {fit.residual:.3e} exceeds "
            f"{policy.residual_rtol:.1e} * {scale:.3e}; values are not k-fold products"
        )
    return np.exp(fit.solution)


class AlignedFactors(NamedTuple):
    V_tilde: np.ndarray
    W_tilde: np.ndarray


def align_and_sign_adjust(
    V_hat,
    W_hat,
    L,
    R,
    sigma_compound,
    k: int,
    policy: TolerancePolicy = DEFAULT_POLICY,
    *,
    exhaustive_sign_search: bool = False,
) -> AlignedFactors:
    """Order the decomposed factors and fix column signs against the SVD of M.

    Parameters
    ----------
    V_hat, W_hat : array_like
        Direction matrices from :func:`wedge_decompose` for the row and
        column side, shape (n, r) and (m, r), columns in arbitrary order and
        sign.
    L, R, sigma_compound : array_like
        Compact SVD of the (preprocessed) compound, ``M = L diag(s) R^T``
        with s decreasing.
    k : int
        Compound grade.
    exhaustive_sign_search : bool, optional
        Solve the final sign system by scanning all 2^r sign patterns
        instead of GF(2) elimination.  Exponential; kept as a
        cross-checking oracle, never used by default.

    Returns
    -------
    AlignedFactors
        ``V_tilde`` and ``W_tilde`` with columns ordered by decreasing
        recovered singular value and signed so that
        ``compound(V_tilde, k) == L`` columnwise and
        ``V_tilde diag(sigma) W_tilde^T`` reproduces the compound's source
        up to one global sign.

    Notes
    -----
    Ordering: each side's singular values are recovered independently, the
    columns are sorted by decreasing value, and the lex-ordered k-fold
    products of the sorted values then match ``sigma_compound`` by sorted
    position.  Signs: each column of L must equal a column of
    compound(V_tilde, k) up to sign within ``sign_atol``; flipped columns of
    R mark the k-subsets whose sign product must change on the W side, and a
    parity system over GF(2) converts those subset constraints into
    per-column flips of W.
    """
    V_hat = _as_float_matrix(V_hat, "V_hat")
    W_hat = _as_float_matrix(W_hat, "W_hat")
    L = _as_float_matrix(L, "L")
    R = _as_float_matrix(R, "R")
    s = np.asarray(sigma_compound, dtype=float).ravel()
    r = V_hat.shape[1]
    if W_hat.shape[1] != r:
        raise InvalidArgumentError(
            f"V_hat has {r} columns but W_hat has {W_hat.shape[1]}"
        )
    if not 1 <= k < r:
        raise InvalidArgumentError(f"need 1 <= k < r, got k={k}, r={r}")
    rho = binom(r, k)
    if s.size != rho or L.shape[1] != rho or R.shape[1] != rho:
        raise InvalidArgumentError(
            f"expected binom({r}, {k}) = {rho} compound columns, got "
            f"{s.size} values, L with {L.shape[1]}, R with {R.shape[1]}"
        )

    M_tilde = L @ (s[:, None] * R.T)
    sig_left = recover_singular_values(
        order_compound_singular_values(M_tilde, V_hat, k, policy), r, k, policy
    )
    sig_right = recover_singular_values(
        order_compound_singular_values(M_tilde.T, W_hat, k, policy), r, k, policy
    )
    V_sorted = V_hat[:, np.argsort(-sig_left, kind="stable")]
    W_sorted = W_hat[:, np.argsort(-sig_right, kind="stable")]
    sig = np.sort(sig_left)[::-1]

    # lex-position of each SVD column: products of sorted values, largest first
    products = np.prod(sig[_tuple_array(r, k)], axis=1)
    svd_to_lex = np.argsort(-products, kind="stable")
    L_lex = np.empty_like(L)
    R_lex = np.empty_like(R)
    L_lex[:, svd_to_lex] = L
    R_lex[:, svd_to_lex] = R

    flips = _column_sign_matches(L_lex, compound(V_sorted, k), policy, side="left")
    R_adj = R_lex.copy()
    R_adj[:, flips] *= -1.0
    parity = _column_sign_matches(R_adj, compound(W_sorted, k), policy, side="right")

    b = parity.astype(np.uint8)
    incidence = incidence_matrix(r, k).entries
    if exhaustive_sign_search:
        x = _exhaustive_sign_vector(incidence, b)
    else:
        x = gf2_solve(incidence, b)
    if x is None:
        raise SignAdjustmentFailedError("column sign parity system has no solution")
    W_tilde = W_sorted * np.where(x.astype(bool), -1.0, 1.0)[None, :]
    return AlignedFactors(V_tilde=V_sorted, W_tilde=W_tilde)


def _column_sign_matches(
    target: np.ndarray, candidate: np.ndarray, policy: TolerancePolicy, side: str
) -> np.ndarray:
    """Per-column flags: True where -candidate matches target, False where +candidate does."""
    flips = np.zeros(target.shape[1], dtype=bool)
    for j in range(target.shape[1]):
        plus = np.linalg.norm(target[:, j] - candidate[:, j])
        minus = np.linalg.norm(target[:, j] + candidate[:, j])
        if min(plus, minus) > policy.sign_atol:
            raise AlignmentFailedError(
                f"{side} column {j} matches no sign of its compound column "
                f"(distances {plus:.3e} / {minus:.3e} > {policy.sign_atol:.1e})"
            )
        flips[j] = minus < plus
    return flips


def _exhaustive_sign_vector(incidence: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    r = incidence.shape[1]
    for bits in range(2**r):
        x = np.fromiter(((bits >> i) & 1 for i in range(r)), dtype=np.uint8, count=r)
        if np.array_equal((incidence @ x) % 2, b % 2):
            return x
    return None


def inverse_compound(
    M,
    n: int,
    m: int,
    k: int,
    policy: TolerancePolicy = DEFAULT_POLICY,
    *,
    canonical_sign: bool = False,
) -> RecoveryResult:
    """Recover A with compound(A, k) = M, dispatching on the rank of M.

    Parameters
    ----------
    M : array_like
        Candidate compound, shape (binom(n, k), binom(m, k)).
    n, m, k : int
        Source shape and grade, 1 <= k <= min(n, m).
    policy : TolerancePolicy
        All tolerances and the random seed.
    canonical_sign : bool, optional
        For an even-k unique answer, flip the global sign so the first
        nonzero entry in column-major order is positive.

    Returns
    -------
    RecoveryResult
        ``outcome`` is :class:`UniqueUpToSign`, :class:`RankOneFamily`, or
        :class:`RankDeficientFamily`; ``report`` carries rank, residuals,
        resample count, and stage timings.  The reconstruction residual
        ``|compound(A, k) - M| / |M|`` is checked against
        ``policy.residual_rtol`` before returning.

    Raises
    ------
    NotCompoundDecomposableError
        If the rank of M is not a binomial binom(r, k), if r would exceed
        the requested shape, or if the final check fails
        (:class:`VerificationFailedError`).
    NumericalFailureError
        If a pipeline stage fails at the configured tolerances; in
        particular :class:`DecompositionFailedError` when M is not diagonal
        in the compounds of the recovered frames, which is what an input
        that no compound is close to fails first.
    """
    M = _as_float_matrix(M, "M")
    if not 1 <= k <= min(n, m):
        raise InvalidArgumentError(f"need 1 <= k <= min(n, m) = {min(n, m)}, got k={k}")
    expected = (binom(n, k), binom(m, k))
    if M.shape != expected:
        raise InvalidArgumentError(f"M has shape {M.shape}, expected {expected}")

    report = RecoveryReport()
    with _stage(report, "svd"):
        svd = reduced_svd(M, policy)
    rho = svd.rank

    if rho == 0:
        report.inferred_r = k
        outcome: RecoveryOutcome = RankDeficientFamily(n=n, m=m, k=k)
        candidate = outcome.representative()
    elif rho == 1:
        with _stage(report, "rank_one"):
            outcome = rank_one_inverse(M, n, m, k, policy)
        report.inferred_r = k
        candidate = outcome.representative()
    else:
        r = infer_base_rank(rho, k)
        if r > min(n, m):
            raise NotCompoundDecomposableError(
                f"inferred source rank {r} exceeds min(n, m) = {min(n, m)}"
            )
        report.inferred_r = r
        scale = float(svd.sigma[0])
        with _stage(report, "preprocess"):
            pre = preprocess_distinct(M / scale, n, k, policy)
        report.preprocessing_used = pre.used
        report.resample_count = pre.resamples
        with _stage(report, "frames"):
            U = pre.frame
            V, _ = _contraction_frame(pre.svd.right, pre.svd.sigma, m, k, r)
            core = compound(U, k).T @ pre.M_tilde @ compound(V, k)
            d = np.diag(core).copy()
            off_diagonal = float(np.linalg.norm(core - np.diag(d)))
            limit = policy.residual_rtol * float(np.linalg.norm(pre.M_tilde))
            if not off_diagonal <= limit:
                raise DecompositionFailedError(
                    f"off-diagonal mass {off_diagonal:.3e} of compound(U, k)^T M compound(V, k) "
                    f"exceeds {policy.residual_rtol:.1e} * |M| = {limit:.3e}"
                )
        with _stage(report, "singular_values"):
            sigma = recover_singular_values(np.abs(d), r, k, policy)
            incidence = incidence_matrix(r, k).entries
            report.singular_value_residual = float(
                np.linalg.norm(incidence @ np.log(sigma) - np.log(np.abs(d)))
            )
            flips = gf2_solve(incidence, (d < 0).astype(np.uint8))
            if flips is None:
                raise SignAdjustmentFailedError("column sign parity system has no solution")
        with _stage(report, "compose"):
            V = V * np.where(flips.astype(bool), -1.0, 1.0)
            A = U @ (sigma[:, None] * V.T)
            if pre.used:
                A = np.linalg.solve(pre.Q, A)
            A *= scale ** (1.0 / k)
        if canonical_sign and k % 2 == 0:
            A = _canonicalize_sign(A, policy)
        outcome = UniqueUpToSign(A=A, sign_ambiguous=(k % 2 == 0))
        candidate = A

    with _stage(report, "verify"):
        report.reconstruction_residual = reconstruction_residual(candidate, M, k)
    if not report.reconstruction_residual <= policy.residual_rtol:
        raise VerificationFailedError(
            f"reconstruction residual {report.reconstruction_residual:.3e} exceeds "
            f"{policy.residual_rtol:.1e}"
        )
    return RecoveryResult(outcome=outcome, report=report)


def reconstruction_residual(A, M, k: int) -> float:
    """Relative residual |compound(A, k) - M|_F / |M|_F (absolute when M = 0).

    Both terms are divided by max|M| before the norms are taken, so the
    squares inside the norms neither overflow nor underflow at extreme
    scales of M.
    """
    M = _as_float_matrix(M, "M")
    peak = float(np.max(np.abs(M))) if M.size else 0.0
    if peak == 0.0:
        return float(np.linalg.norm(compound(A, k) - M))
    diff = float(np.linalg.norm((compound(A, k) - M) / peak))
    return diff / float(np.linalg.norm(M / peak))


def _canonicalize_sign(A: np.ndarray, policy: TolerancePolicy) -> np.ndarray:
    flat = A.ravel(order="F")
    peak = float(np.max(np.abs(flat)))
    if peak == 0.0:
        return A
    nonzero = np.nonzero(np.abs(flat) > policy.rank_rtol * peak)[0]
    if nonzero.size and flat[nonzero[0]] < 0:
        return -A
    return A


def rank_one_inverse(
    M, n: int, m: int, k: int, policy: TolerancePolicy = DEFAULT_POLICY
) -> RankOneFamily:
    """Explicit preimage family of a rank-one compound.

    A rank-one M factors as ``sigma * u @ v.T`` with unit u, v; both u and v
    must be decomposable k-vectors, their wedge-matrix kernels give the
    orthonormal factors U and V, and spreading ``sigma^(1/k)`` across a
    diagonal produces one preimage.  All preimages differ by an inner
    determinant-one factor T.
    """
    M = _as_float_matrix(M, "M")
    expected = (binom(n, k), binom(m, k))
    if M.shape != expected:
        raise InvalidArgumentError(f"M has shape {M.shape}, expected {expected}")
    svd = reduced_svd(M, policy)
    if svd.rank != 1:
        raise InvalidArgumentError(f"numerical rank is {svd.rank}, expected 1")
    sigma = float(svd.sigma[0])
    U, alpha = _decomposable_frame(svd.left[:, 0], n, k, policy, side="left")
    V, beta = _decomposable_frame(svd.right[:, 0], m, k, policy, side="right")
    Sigma = (alpha * sigma * beta) ** (1.0 / k) * np.eye(k)
    family = RankOneFamily(U=U, Sigma=Sigma, V=V)
    residual = reconstruction_residual(family.representative(), M, k)
    if not residual <= policy.residual_rtol:
        raise NotCompoundDecomposableError(
            f"rank-one reconstruction residual {residual:.3e} exceeds "
            f"{policy.residual_rtol:.1e}"
        )
    return family


def _decomposable_frame(
    u: np.ndarray, n: int, k: int, policy: TolerancePolicy, side: str
) -> tuple[np.ndarray, float]:
    """Orthonormal U with compound(U, k) = u / alpha for a unit decomposable u, alpha > 0."""
    if k == n:
        # single coordinate; absorb its sign into the first basis column
        frame = np.eye(n)
        if u[0] < 0:
            frame[:, 0] = -frame[:, 0]
        return frame, float(abs(u[0]))
    basis = kernel_basis(wedge_matrix(u, n, k).data, policy)
    if basis.shape[1] != k:
        raise NotCompoundDecomposableError(
            f"{side} singular vector is not decomposable "
            f"(kernel dimension {basis.shape[1]}, expected {k})"
        )
    w = compound(basis, k).ravel()
    alpha = float(u @ w)
    if alpha < 0:
        basis = basis.copy()
        basis[:, 0] = -basis[:, 0]
        alpha = -alpha
    return basis, alpha


def family_contains(B, family: RankOneFamily, policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Whether B lies in the rank-one preimage family.

    Projects B into the family's frame, T = Sigma^-1 U^T B V, and accepts
    when the frame reproduces B and det(T) is one, both at
    ``policy.residual_rtol``.
    """
    B = _as_float_matrix(B, "B")
    U, Sigma, V = family.U, family.Sigma, family.V
    if B.shape != (U.shape[0], V.shape[0]):
        raise InvalidArgumentError(
            f"B has shape {B.shape}, expected ({U.shape[0]}, {V.shape[0]})"
        )
    T = np.diag(1.0 / np.diag(Sigma)) @ U.T @ B @ V
    reconstructed = U @ Sigma @ T @ V.T
    scale = max(1.0, float(np.linalg.norm(B)))
    if not float(np.linalg.norm(B - reconstructed)) <= policy.residual_rtol * scale:
        return False
    return abs(float(np.linalg.det(T)) - 1.0) <= policy.residual_rtol


def closed_form_inverse_nminus1(M, policy: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Closed-form preimage for k = n - 1 and invertible n x n input.

    For square M of full rank, ``B = |det M|^(-(n-2)/(n-1)) * compound(M, n-1)``
    satisfies compound(B, n-1) = M whenever any preimage exists; the final
    reconstruction check rejects inputs that are not (n-1)-compounds.  The
    formula is applied to ``M / sigma_1`` and its result scaled by
    ``sigma_1^(1/(n-1))``, so ``det`` neither overflows nor underflows at
    extreme scales of M.
    """
    M = _as_float_matrix(M, "M")
    n, m = M.shape
    if n != m or n < 2:
        raise InvalidArgumentError(f"matrix must be square with n >= 2, got shape {M.shape}")
    svd = reduced_svd(M, policy)
    if svd.rank < n:
        raise SingularInputError("closed form needs numerically invertible input")
    scale = float(svd.sigma[0])
    unit = M / scale
    det = float(np.linalg.det(unit))
    B = scale ** (1 / (n - 1)) * abs(det) ** (-(n - 2) / (n - 1)) * compound(unit, n - 1)
    residual = reconstruction_residual(B, M, n - 1)
    if not residual <= policy.residual_rtol:
        raise NotCompoundDecomposableError(
            f"closed-form reconstruction residual {residual:.3e} exceeds "
            f"{policy.residual_rtol:.1e}"
        )
    return B
