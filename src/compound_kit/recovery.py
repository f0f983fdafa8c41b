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

Every nonzero M takes one of two rungs.  They differ only in what they
contract: each finds its left frame and the rank r from a signed
(k-1)-contraction (:func:`_contraction_frame`), and both then run the same
stages after the rank (:func:`_recover`).

1. Rung 1, the contraction of M itself (routes ``contraction`` and
   ``rank-one``).  An exactly zero M is the zero family at once.  Otherwise
   M is divided by ``max|M|`` (the answer is rescaled by ``max|M|^(1/k)`` at
   the end, so no stage sees extreme magnitudes).  The left frame is the
   top r left singular vectors of the contraction of M, and r is the rank
   of that contraction.  Rank r = k means rank one, and the family comes
   from the same two contractions (:func:`_rank_one_family`).  The side
   with the smaller unfolding is contracted first (M or M^T, a choice made
   from the shape alone).

2. Rung 2, the SVD route (route ``svd``).  It runs only when rung 1
   cannot certify an answer: r < k, r > min(n, m), or any failed check of
   rung 1.  Its time is then reported as ``contraction_attempt``.  The
   ``svd`` stage takes the compact SVD ``M = L diag(s) R^T``; its rank
   binom(r, k) gives r, and M is divided by ``s_1``.  Rank one calls the
   rank-one family again, which rung 1 has already refused, so this only
   gives the refusal its tag.  Otherwise the left frame is contracted from
   the weighted factor ``L diag(sqrt(s))``, which separates ill-conditioned
   sources better, and a failed check is the refusal, under its own tag.

The stages after the rank, for r > k:

* ``preprocess``: the r contraction singular values must be pairwise
  distinct, which holds exactly when the source singular values are.  When
  they are not (``M = I``, orthogonal or repeated-sigma sources) M is
  replaced by ``compound(Q, k) @ M`` for a random Q (:func:`_resample`, the
  loop of :func:`preprocess_distinct`).  Rung 1 takes one draw, which
  contracts the new M directly; rung 2 takes up to ``max_resample``, each
  with its own SVD.
* ``frames``: the right frame V is the top r of the contraction of rung 1's
  narrow ``F = M^T compound(U, k)`` or of rung 2's ``R diag(sqrt(s))``.
  Then ``F^T compound(V, k) = compound(U, k)^T M compound(V, k)`` must be
  diagonal.
* ``singular_values``: the log-magnitudes of that diagonal give sigma
  through the subset-incidence least squares, and its signs give the
  column flips of V through a parity system over GF(2).  Both systems are
  solved with factorizations cached per ``(r, k)``.
* ``compose`` and ``verify``: ``A = U diag(sigma) V^T`` (undoing Q and the
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
from functools import lru_cache
from typing import NamedTuple, Union

import numpy as np

from .combinat import binom, incidence_matrix
from .errors import (
    AlignmentFailedError,
    CompoundKitError,
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
    gf2_solver,
    kernel_basis,
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
    zero families it reports k, the family grade).  ``route`` names the path
    that produced the answer: ``contraction`` (rung 1), ``svd`` (rung 2),
    ``rank-one`` or ``zero``.  ``stage_timings`` maps stage names to
    seconds, summed over the times a stage is entered; when rung 1 hands
    over, its whole time is ``contraction_attempt``.
    """

    route: str = ""
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
        elapsed = time.perf_counter() - start
        report.stage_timings[name] = report.stage_timings.get(name, 0.0) + elapsed


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
    """Outcome of :func:`preprocess_distinct`."""

    Q: np.ndarray
    M_tilde: np.ndarray
    used: bool
    resamples: int


def preprocess_distinct(
    M,
    n: int,
    k: int,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> PreprocessResult:
    """Left-multiply M by a random compound until the source singular values separate.

    The contraction route needs the r singular values of the source to be
    pairwise distinct.  They are tested through the r contraction singular
    values of the weighted left SVD factor (:func:`_contraction_frame`),
    which are distinct exactly when the source values are: consecutive
    relative gaps must reach ``gap_rtol``.  When they do not, M is replaced
    by ``compound(Q, k) @ M``, the compound of ``Q @ A``, for random square
    Q.  Q = I and ``used=False`` when no resampling was needed.  This is the
    preprocessing of the SVD route (rung 2) of :func:`inverse_compound`,
    the same loop with the same draws.
    """
    M = _as_float_matrix(M, "M")
    if M.shape[0] != binom(n, k):
        raise InvalidArgumentError(
            f"M has {M.shape[0]} rows, expected binom({n}, {k}) = {binom(n, k)}"
        )
    svd = reduced_svd(M, policy)
    if svd.rank <= 1:
        return PreprocessResult(np.eye(n), M, False, 0)
    draw = _weighted_draw(n, k, infer_base_rank(svd.rank, k), policy)
    Q, M_tilde, resamples, _ = _resample(M, draw(M, svd), n, k, policy, draw, policy.max_resample)
    return PreprocessResult(Q, M_tilde, resamples > 0, resamples)


def _weighted_draw(n: int, k: int, r: int, policy: TolerancePolicy):
    """The draw of rung 2 of :func:`inverse_compound` and of :func:`preprocess_distinct`.

    ``draw(M_tilde, svd=None)`` takes the compact SVD
    ``M_tilde = L diag(s) R^T`` (or uses ``svd``, when given) and returns
    ``(U, values, right)``: the top r left frame and singular values of the
    contraction of ``L diag(sqrt(s))``, and the right factor
    ``R diag(sqrt(s))``.  It returns None when the SVD's rank is not
    binom(r, k), a draw whose rank drifted through the cutoff.
    """

    def draw(M_tilde: np.ndarray, svd: ReducedSvd | None = None):
        if svd is None:
            svd = reduced_svd(M_tilde, policy)
        if svd.rank != math.comb(r, k):
            return None
        weight = np.sqrt(svd.sigma)
        frame, values = _contraction_frame(svd.left * weight, n, k)
        return frame[:, :r], values[:r], svd.right * weight

    return draw


def _resample(
    M: np.ndarray, first: tuple, n: int, k: int, policy: TolerancePolicy, draw, draws: int
):
    """The resampling loop of both rungs of :func:`inverse_compound`.

    ``first`` is ``draw``'s ``(U, values, right)`` for M itself, with
    ``values`` the r leading contraction singular values.  While their
    relative gap is below ``gap_rtol``, M is replaced by
    ``compound(Q, k) @ M`` for random n x n Q drawn from ``policy.rng()``,
    skipping essentially singular draws, and ``draw(M_tilde)`` gives the
    same triple for it, or None when the draw is not usable.  Rung 1 draws
    by contracting ``M_tilde`` itself, rung 2 and
    :func:`preprocess_distinct` by :func:`_weighted_draw`.

    Returns ``(Q, M_tilde, resamples, found)``, with Q the identity and
    ``resamples`` 0 when M needed no draw; raises
    :class:`PreprocessingFailedError` after ``draws`` draws.
    """
    best_gap = _min_gap(first[1])
    if best_gap >= policy.gap_rtol:
        return np.eye(n), M, 0, first

    rng = policy.rng()
    for attempt in range(1, draws + 1):
        Q = rng.standard_normal((n, n))
        q_sigma = np.linalg.svd(Q, compute_uv=False)
        if q_sigma[-1] <= policy.rank_rtol * q_sigma[0] * n:
            continue  # essentially singular draw; try again
        M_tilde = compound(Q, k) @ M
        found = draw(M_tilde)
        if found is None:
            continue
        gap = _min_gap(found[1])
        if gap >= policy.gap_rtol:
            return Q, M_tilde, attempt, found
        best_gap = max(best_gap, gap)
    raise PreprocessingFailedError(
        f"no draw separated the source singular values in {draws} attempts "
        f"(best relative gap {best_gap:.3e} < {policy.gap_rtol:.3e})"
    )


def _min_gap(values: np.ndarray) -> float:
    """Smallest consecutive gap of at least two decreasing values, relative to the largest."""
    return float(np.min(values[:-1] - values[1:]) / values[0])


def _contraction_rank(values: np.ndarray, n: int, policy: TolerancePolicy) -> int:
    """Number of contraction singular values above the rank cutoff of an n-row unfolding."""
    return int(np.count_nonzero(values > policy.rank_rtol * values[0] * n))


#: Rows of ``E^T`` per block of the QR in :func:`_contraction_frame`; at
#: n = 10 a block holds 160 KiB, which stays in cache.
_QR_BLOCK_ROWS = 2048


@lru_cache(maxsize=None)
def _signed_unfolding_index(n: int, k: int) -> np.ndarray:
    """Gather index of the signed unfolding into ``[F; -F; 0]``, shape (n, binom(n, k-1)).

    For F with binom(n, k) rows, ``concatenate((F, -F, zeros))`` taken at
    ``index[a, S]`` is the row ``eps(a, S) F[S + {a}]``, and 0 where a is in
    S (see :func:`compound_kit.exterior._contraction_table`).  The array is
    shared but stays writeable: ``np.take`` copies a read-only index on
    every call.
    """
    rows, signs = _contraction_table(n, k)
    total = binom(n, k)
    return np.where(signs > 0, rows, np.where(signs < 0, rows + total, 2 * total))


def _contraction_frame(F: np.ndarray, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The left singular vectors and values of the signed (k-1)-unfolding of F.

    F has binom(n, k) rows.  Its rows are unfolded into the n-row matrix
    ``E[a, (S, p)] = eps(a, S) F[S + {a}, p]`` over the (k-1)-tuples S.  For
    ``F F^T = compound(G, k)`` with ``G = U diag(g) U^T`` this gives
    ``E E^T = U diag(lam) U^T`` with ``lam_i = g_i e_{k-1}(g_j : j != i)``,
    and ``lam_i - lam_j = (g_i - g_j) e_{k-1}(the other g)``.  So for a
    source ``A = U Sigma V^T`` of rank r > k the top r left singular vectors
    of E are U's columns in decreasing sigma order, each up to sign, and E
    has rank exactly r.  For r = k (rank-one M) every ``lam_i`` is
    ``e_k(g)``: E has k equal singular values, and its top k left singular
    vectors are some orthonormal basis of span(U), not U itself.

    The two rungs of :func:`inverse_compound` differ only in the F they
    contract, on each side; every stage after that is shared
    (:func:`_recover`).  Rung 1 contracts M itself,
    ``F F^T = M M^T = compound(A A^T, k)``, so ``g = sigma^2``; it needs no
    SVD of M, and the right side contracts the narrow
    ``M^T compound(U, k) = compound(V Sigma, k)``, with the same g.  Rung 2
    contracts ``F = L diag(sqrt(s))`` from the SVD ``M = L diag(s) R^T``,
    and ``R diag(sqrt(s))`` on the right, so ``F F^T = compound(U Sigma U^T, k)``
    and ``g = sigma``.  The gaps between the lam then grow with the other
    singular values rather than with their squares, which is what still
    separates the frames of ill-conditioned sources whose squared gaps fall
    below ``gap_rtol``; that is why rung 2 keeps the ``sqrt(s)`` weight.

    E's singular values come from the triangular factor of a QR of ``E^T``:
    the conditioning is that of E, not of ``E E^T``, and E's right singular
    vectors are never formed.  ``E^T`` is tall (52,920 x 10 at n = 10,
    k = 5), so it is never held whole.  It is built from blocks of F's
    columns, about ``_QR_BLOCK_ROWS`` rows at a time, each by one gather
    that also applies the signs (:func:`_signed_unfolding_index`).  The
    triangular factors of the blocks are stacked and factored once more,
    the tall-skinny QR of Demmel, Grigori, Hoemmen and Langou (SIAM J. Sci.
    Comput., 2012).  Every step is orthogonal and the row order does not
    change ``R^T R = E E^T``, so this gives the same ``R`` up to row signs,
    hence the same singular values and frame up to column signs.  With a
    single block it is one plain QR.

    Returns all left singular vectors of E as columns (n x q) and its q
    singular values in decreasing order, q = min(n, rows of E^T).
    """
    index = _signed_unfolding_index(n, k)
    width = max(1, _QR_BLOCK_ROWS // index.shape[1])
    blocks = []
    for start in range(0, F.shape[1], width):
        block = F[:, start : start + width]
        signed = np.concatenate((block, -block, np.zeros((1, block.shape[1]))))
        # E's columns (S, p) for this block, held as E itself so that E^T is
        # the Fortran-ordered array LAPACK reads without a transposing copy
        E = signed.take(index, axis=0).reshape(n, -1)
        blocks.append(np.linalg.qr(E.T, mode="r"))
    R = blocks[0] if len(blocks) == 1 else np.linalg.qr(np.vstack(blocks), mode="r")
    _, values, Wt = np.linalg.svd(R, full_matrices=False)
    return Wt.T, values


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
    return _log_linear_solve(d, r, k, policy)[0]


def _log_linear_solve(
    d, r: int, k: int, policy: TolerancePolicy
) -> tuple[np.ndarray, float]:
    """:func:`recover_singular_values` and its log-linear residual ``|L x - log d|``."""
    d = np.asarray(d, dtype=float).ravel()
    if not 1 <= k < r:
        raise InvalidArgumentError(f"need 1 <= k < r, got k={k}, r={r}")
    if d.size != binom(r, k):
        raise InvalidArgumentError(
            f"d has length {d.size}, expected binom({r}, {k}) = {binom(r, k)}"
        )
    if np.any(d <= 0) or not np.all(np.isfinite(d)):
        raise InvalidArgumentError("compound singular values must be positive and finite")
    solver = _incidence_solver(r, k)
    y = np.log(d)
    x = solver.pinv @ y
    residual = float(np.linalg.norm(solver.L @ x - y))
    scale = max(1.0, float(np.linalg.norm(y)))
    if not residual <= policy.residual_rtol * scale:
        raise InconsistentCompoundValuesError(
            f"log-linear residual {residual:.3e} exceeds "
            f"{policy.residual_rtol:.1e} * {scale:.3e}; values are not k-fold products"
        )
    return np.exp(x), residual


class _IncidenceSolver(NamedTuple):
    """Read-only solvers of the subset-incidence systems for one ``(r, k)``.

    ``L`` is the float incidence matrix (:func:`incidence_matrix`),
    ``pinv`` its pseudo-inverse (the least-squares solution of ``L x = y``
    is ``pinv @ y``), and ``parity`` the GF(2) solve matrix of
    :func:`gf2_solver` (``x = (parity @ b) & 1`` solves ``L x = b`` mod 2
    whenever a solution exists).
    """

    L: np.ndarray
    pinv: np.ndarray
    parity: np.ndarray

    def parity_solution(self, b: np.ndarray) -> np.ndarray:
        """The GF(2) solution of ``L x = b``; raises when b is inconsistent."""
        x = (self.parity @ b) & 1
        if not np.array_equal((self.L @ x) % 2, b):
            raise SignAdjustmentFailedError("column sign parity system has no solution")
        return x


@lru_cache(maxsize=None)
def _incidence_solver(r: int, k: int) -> _IncidenceSolver:
    """The incidence solvers for ``(r, k)``, built once per process."""
    entries = incidence_matrix(r, k).entries
    L = entries.astype(float)
    solver = _IncidenceSolver(L=L, pinv=np.linalg.pinv(L), parity=gf2_solver(entries))
    for array in solver:
        array.setflags(write=False)
    return solver


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
    if not np.any(M):
        # every matrix of rank below k has the zero compound
        report.route = "zero"
        report.inferred_r = k
        return RecoveryResult(outcome=RankDeficientFamily(n=n, m=m, k=k), report=report)
    start = time.perf_counter()
    outcome = _contraction_rung(M, n, m, k, policy, report)
    if outcome is None:
        elapsed = time.perf_counter() - start
        report = RecoveryReport(stage_timings={"contraction_attempt": elapsed})
        outcome = _svd_rung(M, n, m, k, policy, report)
    if canonical_sign and isinstance(outcome, UniqueUpToSign) and outcome.sign_ambiguous:
        # compound(-A, k) = compound(A, k) exactly at even k, so the
        # verified residual holds for the flipped answer too
        outcome = UniqueUpToSign(A=_canonicalize_sign(outcome.A, policy), sign_ambiguous=True)
    return RecoveryResult(outcome=outcome, report=report)


def _contraction_rung(
    M: np.ndarray,
    n: int,
    m: int,
    k: int,
    policy: TolerancePolicy,
    report: RecoveryReport,
) -> UniqueUpToSign | RankOneFamily | None:
    """Rung 1 of :func:`inverse_compound`: the verified answer, or None to hand over.

    Every refusal of a check here hands the input to the SVD route, which
    decides it under its own tags; ``report`` is then discarded.
    """
    # contract the smaller of the unfoldings of M and M^T = compound(A^T, k)
    left = n * math.comb(n, k - 1) * math.comb(m, k)
    right = m * math.comb(m, k - 1) * math.comb(n, k)
    try:
        if right < left:
            found = _contract(M.T, m, n, k, policy, report)
            if isinstance(found, RankOneFamily):
                found = RankOneFamily(U=found.V, Sigma=found.Sigma, V=found.U)
            elif found is not None:
                found = found.T
        else:
            found = _contract(M, n, m, k, policy, report)
        if found is None or isinstance(found, RankOneFamily):
            return found
        _verify(found, M, k, policy, report)
    except CompoundKitError:
        return None
    report.route = "contraction"
    return UniqueUpToSign(A=found, sign_ambiguous=(k % 2 == 0))


def _contract(
    M: np.ndarray, n: int, m: int, k: int, policy: TolerancePolicy, report: RecoveryReport
) -> np.ndarray | RankOneFamily | None:
    """A from contractions of M itself before verification, or the verified rank-one family.

    Returns None when the contraction rank r is out of range, and raises
    the tagged error of any check that fails.
    """
    scale = max(float(M.max()), -float(M.min()))
    with _stage(report, "preprocess"):
        unit = M / scale
        frame, values = _contraction_frame(unit, n, k)
        r = _contraction_rank(values, n, policy)
    if r == k:
        return _rank_one_family(M, n, m, k, policy, report, frame[:, :k])
    if not k < r <= min(n, m):
        return None  # no source of this shape: the SVD route decides

    def draw(M_tilde: np.ndarray):
        frame, values = _contraction_frame(M_tilde, n, k)
        # a draw whose rank drifted through the cutoff is not usable
        usable = _contraction_rank(values, n, policy) == r
        return (frame[:, :r], values[:r], None) if usable else None

    first = (frame[:, :r], values[:r], None)
    # one draw makes a repeated spectrum generic; a gap still too small
    # after it is structural (ill-conditioning), and the sqrt(s) weight of
    # the SVD route separates it better than more draws would
    return _recover(unit, scale, first, draw, 1, n, m, k, r, policy, report)


def _svd_rung(
    M: np.ndarray,
    n: int,
    m: int,
    k: int,
    policy: TolerancePolicy,
    report: RecoveryReport,
) -> RecoveryOutcome:
    """Rung 2 of :func:`inverse_compound`, the SVD route.

    One SVD of M, then the contraction of its weighted factors; every failed
    check raises its tagged error.
    """
    with _stage(report, "svd"):
        svd = reduced_svd(M, policy)
    rho = svd.rank
    if rho == 1:
        return _rank_one_family(M, n, m, k, policy, report)
    if rho == 0:
        report.route = "zero"
        report.inferred_r = k
        outcome: RecoveryOutcome = RankDeficientFamily(n=n, m=m, k=k)
        candidate = outcome.representative()
    else:
        report.route = "svd"
        r = infer_base_rank(rho, k)
        if r > min(n, m):
            raise NotCompoundDecomposableError(
                f"inferred source rank {r} exceeds min(n, m) = {min(n, m)}"
            )
        scale = float(svd.sigma[0])
        with _stage(report, "preprocess"):
            unit = M / scale
            draw = _weighted_draw(n, k, r, policy)
            # the rank cutoff is relative, so the scaled SVD keeps the same rank
            first = draw(unit, ReducedSvd(svd.left, svd.sigma / scale, svd.right))
        A = _recover(unit, scale, first, draw, policy.max_resample, n, m, k, r, policy, report)
        outcome = UniqueUpToSign(A=A, sign_ambiguous=(k % 2 == 0))
        candidate = A

    _verify(candidate, M, k, policy, report)
    return outcome


def _recover(
    unit: np.ndarray, scale: float, first: tuple, draw, draws: int,
    n: int, m: int, k: int, r: int, policy: TolerancePolicy, report: RecoveryReport,
) -> np.ndarray:
    """The stages after the rank, shared by both rungs: A before verification.

    ``unit`` is M divided by ``scale`` and ``first`` is ``draw``'s
    ``(U, values, right)`` for it.  :func:`_resample` separates the r
    values with up to ``draws`` draws.  The right frame V is the top r of
    the contraction of ``right``, or, when ``right`` is None (rung 1), of
    the narrow ``F = M_tilde^T compound(U, k) = compound(V Sigma, k)`` up
    to column signs.  ``F^T compound(V, k)`` must be diagonal
    (:func:`_diagonal`), and :func:`_compose` gives A from it.
    """
    with _stage(report, "preprocess"):
        Q, M_tilde, resamples, (U, _, right) = _resample(unit, first, n, k, policy, draw, draws)
    report.inferred_r = r
    report.preprocessing_used = resamples > 0
    report.resample_count = resamples
    with _stage(report, "frames"):
        F = M_tilde.T @ compound(U, k)
        V = _contraction_frame(F if right is None else right, m, k)[0][:, :r]
        d = _diagonal(F.T @ compound(V, k), M_tilde, policy)
    return _compose(U, V, d, Q if resamples else None, scale, r, k, policy, report)


def _diagonal(core: np.ndarray, M_tilde: np.ndarray, policy: TolerancePolicy) -> np.ndarray:
    """The diagonal of ``core = compound(U, k)^T M_tilde compound(V, k)``.

    Raises :class:`DecompositionFailedError` when the core is not diagonal
    to within ``residual_rtol * |M_tilde|``.
    """
    d = np.diag(core).copy()
    off_diagonal = float(np.linalg.norm(core - np.diag(d)))
    limit = policy.residual_rtol * float(np.linalg.norm(M_tilde))
    if not off_diagonal <= limit:
        raise DecompositionFailedError(
            f"off-diagonal mass {off_diagonal:.3e} of compound(U, k)^T M compound(V, k) "
            f"exceeds {policy.residual_rtol:.1e} * |M| = {limit:.3e}"
        )
    return d


def _compose(
    U: np.ndarray,
    V: np.ndarray,
    d: np.ndarray,
    Q: np.ndarray | None,
    scale: float,
    r: int,
    k: int,
    policy: TolerancePolicy,
    report: RecoveryReport,
) -> np.ndarray:
    """The stages ``singular_values`` and ``compose``: A from both frames and the diagonal d.

    Q is the draw to undo, or None, and ``scale`` the divisor of M.
    """
    with _stage(report, "singular_values"):
        sigma, report.singular_value_residual = _log_linear_solve(np.abs(d), r, k, policy)
        flips = _incidence_solver(r, k).parity_solution((d < 0).astype(np.uint8))
    with _stage(report, "compose"):
        V = V * np.where(flips.astype(bool), -1.0, 1.0)
        A = U @ (sigma[:, None] * V.T)
        if Q is not None:
            A = np.linalg.solve(Q, A)
        A *= scale ** (1.0 / k)
    return A


def _verify(
    candidate: np.ndarray,
    M: np.ndarray,
    k: int,
    policy: TolerancePolicy,
    report: RecoveryReport,
    error: type[CompoundKitError] = VerificationFailedError,
) -> None:
    """The ``verify`` stage: ``compound(candidate, k)`` must reproduce M, or ``error`` is raised."""
    with _stage(report, "verify"):
        residual = reconstruction_residual(candidate, M, k)
        report.reconstruction_residual = residual
    if not residual <= policy.residual_rtol:
        raise error(f"reconstruction residual {residual:.3e} exceeds {policy.residual_rtol:.1e}")


def reconstruction_residual(A, M, k: int) -> float:
    """Relative residual |compound(A, k) - M|_F / |M|_F (absolute when M = 0).

    Both terms are divided by max|M| before the norms are taken, so the
    squares inside the norms neither overflow nor underflow at extreme
    scales of M.  A non-finite result means that the candidate's compound
    overflowed; callers test ``not residual <= rtol`` so that it fails.
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
    must be decomposable k-vectors, whose signed (k-1)-contractions give the
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
    return _rank_one_family(M, n, m, k, policy, RecoveryReport())


def _rank_one_family(
    M: np.ndarray, n: int, m: int, k: int, policy: TolerancePolicy, report: RecoveryReport,
    U: np.ndarray | None = None,
) -> RankOneFamily:
    """The verified preimage family of a rank-one M, from one contraction of each side.

    A nonzero k-vector is decomposable exactly when its signed
    (k-1)-contraction has rank k, and the range is then its factor span
    (Harris, *Algebraic Geometry: A First Course*, Lecture 6).  So for
    ``M = s u v^T`` the top k frame U of the contraction of ``M / max|M|``
    spans u's factors, and V comes from the contraction of the narrow
    ``F = M^T compound(U, k)``, a multiple of v.  The 1 x 1 core
    ``F^T compound(V, k) = compound(U, k)^T M compound(V, k)`` is then
    ``+-s``: its sign goes into V's first column and ``Sigma`` is
    ``|core|^(1/k) I``, rescaled by ``max|M|^(1/k)``.  U is that left frame
    when the caller already has it.  Raises NotCompoundDecomposableError
    when a side's contraction rank is not k or the representative does not
    reproduce M.
    """
    report.route = "rank-one"
    report.inferred_r = k
    with _stage(report, "rank_one"):
        scale = max(float(M.max()), -float(M.min()))
        unit = M / scale
        if U is None:
            U = _rank_k_frame(unit, n, k, policy, "left")
        F = unit.T @ compound(U, k)
        V = _rank_k_frame(F, m, k, policy, "right")
        core = float(F[:, 0] @ compound(V, k)[:, 0])
        if core < 0:
            V[:, 0] = -V[:, 0]
        Sigma = abs(core) ** (1.0 / k) * scale ** (1.0 / k) * np.eye(k)
    family = RankOneFamily(U=U, Sigma=Sigma, V=V)
    _verify(family.representative(), M, k, policy, report, NotCompoundDecomposableError)
    return family


def _rank_k_frame(F: np.ndarray, n: int, k: int, policy: TolerancePolicy, side: str) -> np.ndarray:
    """The top k left singular vectors of the contraction of F, whose rank must be k."""
    frame, values = _contraction_frame(F, n, k)
    rank = _contraction_rank(values, n, policy)
    if rank != k:
        raise NotCompoundDecomposableError(
            f"{side} singular vector is not decomposable "
            f"(contraction rank {rank}, expected {k})"
        )
    return frame[:, :k]


def family_contains(B, family: RankOneFamily, policy: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Whether B lies in the rank-one preimage family.

    Projects B into the family's frame, T = Sigma^-1 U^T B V, and accepts
    when the frame reproduces B and det(T) is one, both at
    ``policy.residual_rtol``.  The reproduction is measured relative to
    |B|, so the test does not loosen for small families, and both norms
    are taken after dividing by max|B|, so their squares neither overflow
    nor underflow.  B = 0 is reproduced but fails through det(T) = 0.
    """
    B = _as_float_matrix(B, "B")
    U, Sigma, V = family.U, family.Sigma, family.V
    if B.shape != (U.shape[0], V.shape[0]):
        raise InvalidArgumentError(
            f"B has shape {B.shape}, expected ({U.shape[0]}, {V.shape[0]})"
        )
    T = np.diag(1.0 / np.diag(Sigma)) @ U.T @ B @ V
    reconstructed = U @ Sigma @ T @ V.T
    peak = float(np.max(np.abs(B))) or 1.0
    off_frame = np.linalg.norm((B - reconstructed) / peak)
    if not off_frame <= policy.residual_rtol * np.linalg.norm(B / peak):
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
