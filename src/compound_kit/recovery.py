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

Every nonzero M takes one of two rungs.  Each finds its left frame and the
rank r from a signed (k-1)-contraction (:func:`_contraction_frame`).  They
differ in their scale, their first contraction, their draw and their right
side.  Each calls the shared resampling loop (:func:`_resample`), then its
own right side, then the shared tail that composes A and verifies it
(:func:`_compose`).  :func:`inverse_compound` runs rung 1 (:func:`_contract`)
and hands over to rung 2 (:func:`_svd_rung`) when it refuses.

1. Rung 1, the contraction of M itself (routes ``contraction`` and
   ``rank-one``).  An exactly zero M is the zero family at once.  Otherwise
   M is divided by ``max|M|`` (the answer is rescaled by ``max|M|^(1/k)`` at
   the end, so no stage sees extreme magnitudes).  The left frame is the
   top r left singular vectors of the contraction of M, and r is the rank
   of that contraction.  Rank r = k means rank one, and the family comes
   from the same two contractions (:func:`_rank_one_family`).  The side
   with the smaller unfolding is contracted (a choice made from the shape
   alone): when that is M^T = compound(A^T, k), the answer is found and
   verified for M^T and then transposed.

2. Rung 2, the SVD route (route ``svd``).  Rung 1 hands over to it when
   any of its checks fails, a contraction rank r outside k <= r <= min(n, m)
   among them; its time is then reported as ``contraction_attempt``.  The
   ``svd`` stage takes the compact SVD ``M = L diag(s) R^T``; its rank
   binom(r, k) gives r, and M is divided by ``s_1``.  Rank one calls the
   rank-one family again, with the contraction of the one left singular
   vector as U: that answers an M whose second direction lies between the
   SVD's rank cutoff and the contraction's, and otherwise only gives rung
   1's refusal its tag.  Otherwise the left frame is contracted from
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
* ``frames``, rung 1 (:func:`_design_right`): r design products
  ``f_I = M^T c_I(U)``, for ``I = {0..k-1}``, its k faces with k, and
  ``{0..k-2, i}`` for i > k, are wedges whose unfoldings give the
  projectors onto ``span(v_i : i in I)``; pairs of them give V, and a
  product that is no wedge hands over.  Only ``compound(U[:, :k+1], k)``
  is built, never a ``binom(r, k)``-wide compound.
* ``frames``, rung 2 (:func:`_core_right`): V is the top r of the
  contraction of ``R diag(sqrt(s))``, and ``compound(U, k)^T M
  compound(V, k)`` must be diagonal.
* ``singular_values``: sigma from the log-magnitudes of the r design
  products (rung 1, an r x r system solved exactly) or of that diagonal
  (rung 2, the subset-incidence least squares), and the column flips of V
  from their signs through a parity system over GF(2).  Every system is
  solved with factorizations cached per ``(r, k)``.
* ``compose`` and ``verify``: ``A = U diag(sigma) V^T`` (undoing Q and the
  scale), and a final check that ``compound(A, k)`` reproduces M.  This is
  the one place either rung verifies an answer of rank r > k; the rank-one
  family verifies its representative the same way.

The paper's own route, which wedge-decomposes every column of the SVD
factors and aligns the directions against them, lives in
:mod:`compound_kit.reference` as the oracle the tests check this pipeline
against.  Its public names are importable from this module too, but they
are not in its ``__all__``: :mod:`compound_kit.reference` exports them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Union

import numpy as np

from .combinat import (
    _signed_contraction, _signed_take, _signed_wedge, _tuple_array, binom, incidence_matrix,
)
from .errors import (
    CompoundKitError,
    DecompositionFailedError,
    InconsistentCompoundValuesError,
    InvalidArgumentError,
    NotCompoundDecomposableError,
    PreprocessingFailedError,
    SignAdjustmentFailedError,
    SingularInputError,
    VerificationFailedError,
)
from .exterior import compound
from .numerics import (
    DEFAULT_POLICY, ReducedSvd, TolerancePolicy, _as_float_matrix, _numerical_rank, gf2_solver,
    reduced_svd,
)
from .reference import (  # noqa: F401  (importable from here, exported by reference)
    AlignedFactors, _exhaustive_sign_vector, align_and_sign_adjust, order_compound_singular_values,
    wedge_decompose,
)

__all__ = [
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
    ``rank-one`` or ``zero``.  ``singular_value_residual`` is the residual of
    rung 2's log-linear least squares over all binom(r, k) products; on
    route ``contraction`` it reads 0.0, because rung 1 solves a square
    system of r products exactly (the answer is still verified).
    ``stage_timings`` maps stage names to seconds, summed over the times a
    stage is entered; when rung 1 hands over, its whole time is
    ``contraction_attempt``.
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


class _stage:
    """Context manager that adds its wall time to ``report.stage_timings[name]``."""

    __slots__ = ("report", "name", "start")

    def __init__(self, report: RecoveryReport, name: str):
        self.report, self.name = report, name

    def __enter__(self) -> None:
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self.start
        timings = self.report.stage_timings
        timings[self.name] = timings.get(self.name, 0.0) + elapsed


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
    if not 1 <= k <= n:
        raise InvalidArgumentError(f"need 1 <= k <= n = {n}, got k={k}")
    if M.shape[0] != binom(n, k):
        raise InvalidArgumentError(
            f"M has {M.shape[0]} rows, expected binom({n}, {k}) = {binom(n, k)}"
        )
    svd = reduced_svd(M, policy)
    if svd.rank <= 1:
        return PreprocessResult(np.eye(n), M, False, 0)
    r = infer_base_rank(svd.rank, k)
    Q, M_tilde, resamples, _ = _weighted_resample(M, svd, n, k, r, policy)
    return PreprocessResult(Q, M_tilde, resamples > 0, resamples)


def _weighted_resample(
    M: np.ndarray, svd: ReducedSvd, n: int, k: int, r: int, policy: TolerancePolicy
):
    """:func:`_resample` with the weighted draw, of rung 2 and of :func:`preprocess_distinct`.

    ``svd`` is M's compact SVD.  A draw takes the compact SVD
    ``M_tilde = L diag(s) R^T`` and gives ``(U, values, right)``: the top r
    left frame and singular values of the contraction of ``L diag(sqrt(s))``,
    and the right factor ``R diag(sqrt(s))``.  A draw whose SVD rank is not
    binom(r, k), one whose rank drifted through the cutoff, is not usable.
    """

    def draw(M_tilde: np.ndarray, svd: ReducedSvd | None = None):
        if svd is None:
            svd = reduced_svd(M_tilde, policy)
        if svd.rank != math.comb(r, k):
            return None
        weight = np.sqrt(svd.sigma)
        frame, values = _contraction_frame(svd.left * weight, n, k)
        return frame[:, :r], values[:r], svd.right * weight

    return _resample(M, draw(M, svd), n, k, policy, draw, policy.max_resample)


def _resample(
    M: np.ndarray, first: tuple, n: int, k: int, policy: TolerancePolicy, draw, draws: int
):
    """The resampling loop of both rungs of :func:`inverse_compound`.

    ``first`` is ``draw``'s tuple for M itself: the top r left frame U, then
    ``values``, the r leading contraction singular values, then whatever
    else the rung's right side reads.  While their relative gap is below
    ``gap_rtol``, M is replaced by ``compound(Q, k) @ M`` for random n x n Q
    drawn from ``policy.rng()``, skipping essentially singular draws, and
    ``draw(M_tilde)`` gives the same tuple for it, or None when the draw is
    not usable.  Rung 1 draws ``(U, values)`` by contracting ``M_tilde``
    itself (:func:`_contract`), rung 2 and :func:`preprocess_distinct` draw
    ``(U, values, right)`` through :func:`_weighted_resample`.

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
        if _numerical_rank(q_sigma, n, policy) < n:
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


#: Rows of ``E^T`` per block of the QR in :func:`_contraction_frame`; at
#: n = 10 a block holds 160 KiB, which stays in cache.
_QR_BLOCK_ROWS = 2048


def _contraction_frame(F: np.ndarray, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The left singular vectors and values of the signed (k-1)-unfolding of F.

    F has binom(n, k) rows.  Its rows are unfolded into the n-row matrix
    ``E[a, (S, p)] = eps(a, S) F[S + {a}, p]`` over the (k-1)-tuples S, with
    the sign and the rank of ``S + {a}`` read from the one signed index of
    :func:`compound_kit.combinat._signed_contraction`.  For
    ``F F^T = compound(G, k)`` with ``G = U diag(g) U^T`` this gives
    ``E E^T = U diag(lam) U^T`` with ``lam_i = g_i e_{k-1}(g_j : j != i)``,
    and ``lam_i - lam_j = (g_i - g_j) e_{k-1}(the other g)``.  So for a
    source ``A = U Sigma V^T`` of rank r > k the top r left singular vectors
    of E are U's columns in decreasing sigma order, each up to sign, and E
    has rank exactly r.  For r = k (rank-one M) every ``lam_i`` is
    ``e_k(g)``: E has k equal singular values, and its top k left singular
    vectors are some orthonormal basis of span(U), not U itself.

    The two rungs of :func:`inverse_compound` differ in the F they contract
    on the left.  Rung 1 contracts M itself,
    ``F F^T = M M^T = compound(A A^T, k)``, so ``g = sigma^2``; it needs no
    SVD of M.  Its right side contracts no whole F: each of its r design
    products ``M^T c_I(U)`` is one wedge, whose unfolding is the case r = k
    above, k equal singular values whose frame spans the wedge's factors
    (:func:`_design_right`).  Rung 2 contracts ``F = L diag(sqrt(s))`` from
    the SVD ``M = L diag(s) R^T``, and ``R diag(sqrt(s))`` on the right, so
    ``F F^T = compound(U Sigma U^T, k)`` and ``g = sigma``.  The gaps
    between the lam then grow with the other singular values rather than
    with their squares, which is what still separates the frames of
    ill-conditioned sources whose squared gaps fall below ``gap_rtol``; that
    is why rung 2 keeps the ``sqrt(s)`` weight.

    E's singular values come from the triangular factor of a QR of ``E^T``:
    the conditioning is that of E, not of ``E E^T``, and E's right singular
    vectors are never formed.  ``E^T`` is tall (52,920 x 10 at n = 10,
    k = 5), so it is never held whole.  It is built from blocks of F's
    columns, about ``_QR_BLOCK_ROWS`` rows at a time, each by one
    :func:`compound_kit.combinat._signed_take` of that map, which also
    applies the signs.  The
    triangular factors of the blocks are stacked and factored once more,
    the tall-skinny QR of Demmel, Grigori, Hoemmen and Langou (SIAM J. Sci.
    Comput., 2012).  Every step is orthogonal and the row order does not
    change ``R^T R = E E^T``, so this gives the same ``R`` up to row signs,
    hence the same singular values and frame up to column signs.  With a
    single block it is one plain QR.

    Returns all left singular vectors of E as columns (n x q) and its q
    singular values in decreasing order, q = min(n, rows of E^T).
    """
    index = _signed_contraction(n, k)
    width = max(1, _QR_BLOCK_ROWS // index.shape[1])
    blocks = []
    for start in range(0, F.shape[1], width):
        # E's columns (S, p) for this block, held as E itself so that E^T is
        # the Fortran-ordered array LAPACK reads without a transposing copy
        E = _signed_take(F[:, start : start + width], index).reshape(n, -1)
        blocks.append(np.linalg.qr(E.T, mode="r"))
    R = blocks[0] if len(blocks) == 1 else np.linalg.qr(np.vstack(blocks), mode="r")
    _, values, Wt = np.linalg.svd(R, full_matrices=False)
    return Wt.T, values


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
        if ((self.L @ x) % 2 != b).any():
            raise SignAdjustmentFailedError("column sign parity system has no solution")
        return x


@lru_cache(maxsize=None)
def _incidence_solver(r: int, k: int) -> _IncidenceSolver:
    """The incidence solvers for ``(r, k)``, built once per process."""
    return _solver(incidence_matrix(r, k).entries)


def _solver(entries: np.ndarray) -> _IncidenceSolver:
    """The read-only solvers of the 0/1 system ``entries``."""
    L = entries.astype(float)
    solver = _IncidenceSolver(L=L, pinv=np.linalg.pinv(L), parity=gf2_solver(entries))
    for array in solver:
        array.setflags(write=False)
    return solver


class _Design(NamedTuple):
    """The r index sets of rung 1's right side for one ``(r, k)`` (:func:`_design_right`).

    ``sets`` (r x k) lists them in order: the k-subsets of ``{0..k}`` in lex
    order, that is ``{0..k}`` without k, k-1, ..., 0, then ``{0..k-2, i}``
    for ``k < i < r``.  ``pairs`` (2 x r) names two of them for each i, and
    i is the one element of ``sets[pairs[0, i]]`` that is not in
    ``sets[pairs[1, i]]``: for i < k the pair is ``({0..k-1}, {0..k} - {i})``,
    for i >= k it is ``({0..k-2, i}, {0..k-1})``.
    ``solver`` solves the r x r incidence of the sets, which is invertible
    over the reals and, over GF(2), has rank r at odd k and r - 1 at even k
    (the global sign).
    """

    sets: np.ndarray
    pairs: np.ndarray
    solver: _IncidenceSolver


@lru_cache(maxsize=None)
def _design(r: int, k: int) -> _Design:
    """The design of :class:`_Design` for ``k < r``, built once per process."""
    head = [[j for j in range(k + 1) if j != k - t] for t in range(k + 1)]
    tail = [list(range(k - 1)) + [i] for i in range(k + 1, r)]
    sets = np.array(head + tail, dtype=np.intp)
    entries = np.zeros((r, r), dtype=np.uint8)
    np.put_along_axis(entries, sets, 1, axis=1)
    i = np.arange(r)
    pairs = np.stack((np.where(i < k, 0, np.where(i == k, 1, i)), np.where(i < k, k - i, 0)))
    return _Design(sets=sets, pairs=pairs, solver=_solver(entries))


def _design_wedges(U: np.ndarray, k: int, r: int) -> np.ndarray:
    """The wedges ``c_I(U)`` of the r sets of :func:`_design`, as columns.

    U has orthonormal columns.  The sets inside ``{0..k}`` are the k + 1
    columns of ``compound(U[:, :k+1], k)``.  The others are
    ``c_{{0..k-2, i}}(U) = w ^ u_i`` with ``w = u_0 ^ ... ^ u_{k-2}``.  The
    contraction of ``c_{{0..k-1}} = w ^ u_{k-1}`` along the unit
    ``u_{k-1}``, which is orthogonal to w's factors, is
    ``w' = (-1)^(k-1) w`` (the signed unfolding of
    :func:`compound_kit.combinat._signed_contraction`), and
    ``u ^ w' = w ^ u``.  So one matrix, gathered from w' at
    :func:`compound_kit.combinat._signed_wedge`, maps every ``u_i`` to its
    wedge.  Both gathers are :func:`compound_kit.combinat._signed_take`.
    """
    head = compound(U[:, : k + 1], k)
    if r == k + 1:
        return head
    n = U.shape[0]
    w = _signed_take(head[:, 0], _signed_contraction(n, k)).T @ U[:, k - 1]
    return np.hstack((head, _signed_take(w, _signed_wedge(n, k)) @ U[:, k + 1 : r]))


def _as_compound(M, n: int, m: int, k: int) -> np.ndarray:
    """M as a float matrix, checked to have the shape of the k-th compound of an n x m source."""
    M = _as_float_matrix(M, "M")
    if not 1 <= k <= min(n, m):
        raise InvalidArgumentError(f"need 1 <= k <= min(n, m) = {min(n, m)}, got k={k}")
    expected = (binom(n, k), binom(m, k))
    if M.shape != expected:
        raise InvalidArgumentError(f"M has shape {M.shape}, expected {expected}")
    return M


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
    InvalidArgumentError
        If k is outside 1..min(n, m) or M's shape does not match (n, m, k)
        (the check :func:`rank_one_inverse` shares), or if a nonzero M has
        numerical rank 0 under ``policy.rank_rtol``.
    NotCompoundDecomposableError
        If the rank of M is not a binomial binom(r, k), or if the final
        check fails (:class:`VerificationFailedError`).
    NumericalFailureError
        If a pipeline stage fails at the configured tolerances; in
        particular :class:`DecompositionFailedError` when M is not diagonal
        in the compounds of the recovered frames, which is what an input
        that no compound is close to fails first.
    """
    M = _as_compound(M, n, m, k)
    report = RecoveryReport()
    if not np.any(M):
        # every matrix of rank below k has the zero compound
        report.route = "zero"
        report.inferred_r = k
        return RecoveryResult(outcome=RankDeficientFamily(n=n, m=m, k=k), report=report)
    start = time.perf_counter()
    try:
        outcome = _contract(M, n, m, k, policy, report)
    except CompoundKitError:
        outcome = None  # every refusal of rung 1 hands over; rung 2 decides under its own tags
    if outcome is None:
        report = RecoveryReport(stage_timings={"contraction_attempt": time.perf_counter() - start})
        outcome = _svd_rung(M, n, m, k, policy, report)
    if canonical_sign and isinstance(outcome, UniqueUpToSign) and outcome.sign_ambiguous:
        # compound(-A, k) = compound(A, k) exactly at even k, so the
        # verified residual holds for the flipped answer too
        outcome = UniqueUpToSign(A=_canonicalize_sign(outcome.A, policy), sign_ambiguous=True)
    return RecoveryResult(outcome=outcome, report=report)


def _contract(
    M: np.ndarray, n: int, m: int, k: int, policy: TolerancePolicy, report: RecoveryReport
) -> UniqueUpToSign | RankOneFamily:
    """Rung 1 of :func:`inverse_compound`: the verified answer from contractions of M itself.

    The side with the smaller unfolding is contracted: when that is M^T =
    compound(A^T, k), the answer for M^T is found and transposed.  Every
    failed check raises its tagged error, which hands the input over; a
    contraction rank r outside ``k <= r <= min(n, m)`` raises
    :class:`NotCompoundDecomposableError`.
    """
    if k > 1 and m > n:  # the side with more rows has the smaller unfolding
        found = _contract(M.T, m, n, k, policy, report)
        if isinstance(found, RankOneFamily):
            return RankOneFamily(U=found.V, Sigma=found.Sigma, V=found.U)
        return UniqueUpToSign(A=found.A.T, sign_ambiguous=found.sign_ambiguous)
    scale = max(float(M.max()), -float(M.min()))
    with _stage(report, "preprocess"):
        unit = M / scale
        frame, values = _contraction_frame(unit, n, k)
        r = _numerical_rank(values, n, policy)
    if r == k:
        return _rank_one_family(M, unit, scale, frame[:, :k], m, k, policy, report)
    if not k < r <= min(n, m):
        raise NotCompoundDecomposableError(f"contraction rank {r} is outside ({k}, {min(n, m)}]")

    def draw(M_tilde: np.ndarray):
        frame, values = _contraction_frame(M_tilde, n, k)
        # a draw whose rank drifted through the cutoff is not usable
        return (frame[:, :r], values[:r]) if _numerical_rank(values, n, policy) == r else None

    report.route = "contraction"
    with _stage(report, "preprocess"):
        # one draw makes a repeated spectrum generic; a gap still too small
        # after it is structural (ill-conditioning), and the sqrt(s) weight of
        # the SVD route separates it better than more draws would
        Q, M_tilde, resamples, (U, _) = _resample(
            unit, (frame[:, :r], values[:r]), n, k, policy, draw, 1
        )
    V, sigma, flips = _design_right(M_tilde, U, m, k, r, policy, report)
    return _compose(M, scale, Q, resamples, U, V, sigma, flips, k, policy, report)


def _svd_rung(
    M: np.ndarray, n: int, m: int, k: int, policy: TolerancePolicy, report: RecoveryReport
) -> UniqueUpToSign | RankOneFamily:
    """Rung 2 of :func:`inverse_compound`, the SVD route.

    One SVD of M, then the contraction of its weighted factors; every failed
    check raises its tagged error.
    """
    with _stage(report, "svd"):
        svd = reduced_svd(M, policy)
    if svd.rank == 1:
        return _svd_rank_one(M, svd, n, m, k, policy, report)
    report.route = "svd"
    r = infer_base_rank(svd.rank, k)
    scale = float(svd.sigma[0])
    with _stage(report, "preprocess"):
        unit = M / scale
        # the rank cutoff is relative, so the scaled SVD keeps the same rank
        scaled = ReducedSvd(svd.left, svd.sigma / scale, svd.right)
        Q, M_tilde, resamples, (U, _, right) = _weighted_resample(unit, scaled, n, k, r, policy)
    V, sigma, flips = _core_right(M_tilde, U, right, m, k, r, policy, report)
    return _compose(M, scale, Q, resamples, U, V, sigma, flips, k, policy, report)


def _compose(
    M: np.ndarray, scale: float, Q: np.ndarray, resamples: int, U: np.ndarray, V: np.ndarray,
    sigma: np.ndarray, flips: np.ndarray, k: int, policy: TolerancePolicy, report: RecoveryReport,
) -> UniqueUpToSign:
    """The tail both rungs share: A from the frames and sigma, verified against M.

    The rung resampled ``M / scale`` into ``compound(Q, k) @ M / scale``
    (Q the identity when ``resamples`` is 0), and its right side gave the
    right frame V, sigma and the column flips of V for that.  A is composed
    from them, undoing Q and the scale, and :func:`_verify` checks it
    against M.
    """
    report.inferred_r = sigma.size
    report.preprocessing_used = resamples > 0
    report.resample_count = resamples
    with _stage(report, "compose"):
        A = U @ (np.where(flips, -sigma, sigma)[:, None] * V.T)
        if resamples:
            A = np.linalg.solve(Q, A)
        A *= scale ** (1.0 / k)
    _verify(A, M, k, policy, report)
    return UniqueUpToSign(A=A, sign_ambiguous=(k % 2 == 0))


def _core_right(
    M_tilde: np.ndarray, U: np.ndarray, right: np.ndarray, m: int, k: int, r: int,
    policy: TolerancePolicy, report: RecoveryReport,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rung 2's right side: V, sigma and the flips from the full core.

    V is the top r of the contraction of ``right``, up to column signs.  The
    core ``compound(U, k)^T M_tilde compound(V, k)`` must be diagonal to
    within ``residual_rtol * |M_tilde|``, or
    :class:`DecompositionFailedError` is raised; its diagonal d gives sigma
    through the log-linear solve and the flips through the parity system.
    """
    with _stage(report, "frames"):
        F = M_tilde.T @ compound(U, k)
        V = _contraction_frame(right, m, k)[0][:, :r]
        core = F.T @ compound(V, k)
        d = np.diag(core).copy()
        off_diagonal = float(np.linalg.norm(core - np.diag(d)))
        limit = policy.residual_rtol * float(np.linalg.norm(M_tilde))
        if not off_diagonal <= limit:
            raise DecompositionFailedError(
                f"off-diagonal mass {off_diagonal:.3e} of compound(U, k)^T M compound(V, k) "
                f"exceeds {policy.residual_rtol:.1e} * |M| = {limit:.3e}"
            )
    with _stage(report, "singular_values"):
        sigma, report.singular_value_residual = _log_linear_solve(np.abs(d), r, k, policy)
        flips = _incidence_solver(r, k).parity_solution((d < 0).astype(np.uint8))
    return V, sigma, flips


def _design_right(
    M_tilde: np.ndarray, U: np.ndarray, m: int, k: int, r: int, policy: TolerancePolicy,
    report: RecoveryReport,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rung 1's right side: V, sigma and the flips from the r design products.

    For each set I of :func:`_design`, ``f_I = M_tilde^T c_I(U)`` is the
    wedge of the ``w_i = A_tilde^T u_i`` over I, with A_tilde the source of
    ``M_tilde``; for exact singular vectors ``w_i = +-sigma_i v_i`` and
    ``|f_I| = prod_I sigma``.  The signed (k-1)-unfolding ``E_I`` of
    ``f_I / |f_I|`` has k equal singular values (:func:`_contraction_frame`
    at r = k), so ``P_I = E_I E_I^T`` is the orthogonal projector onto
    ``span(w_i : i in I)``; one batched product gives all r.

    The gate: ``E_I - P_I E_I`` vanishes for a wedge, and its norm grows
    linearly with the distance of ``f_I / |f_I|`` from one (the eigenvalues
    of ``P_I`` miss 0 and 1 only quadratically, so ``|P_I^2 - P_I|`` would
    not see a perturbation of 1e-6).  When ``|f_I| |E_I - P_I E_I|``
    exceeds ``residual_rtol * |M_tilde|`` for some I, the input is no
    compound, and :class:`DecompositionFailedError` is raised before
    anything is composed.

    For each design pair with ``outer - inner = {i}``, the range of
    ``P_outer (I - P_inner)`` is the direction of ``span(outer)`` orthogonal
    to ``span(outer & inner)``, and its column of largest diagonal entry is
    taken.  For ``i >= k`` that is v_i; the part of ``w_i`` it drops lies
    along the ``w_j`` of larger sigma.  For ``i < k`` the k directions are
    the dual basis of ``w_0 .. w_{k-1}`` in ``span({0..k-1})``, and V takes
    the primal basis ``C (C^T C)^-1``.  The two differ only where U's
    columns are turned within their span, which the squared contraction
    allows when two of its values nearly meet.  ``w_i`` turns with ``u_i``,
    and so does the primal basis.  The complement of a ``w_j`` of smaller
    sigma turns by ``sigma_i / sigma_j`` times more.

    ``log |f_I| = sum_I log sigma`` is a square system with the design's
    incidence, solved exactly, so there is no log-linear residual.  The sign
    of ``f_I`` against ``c_I(V)``, read at ``f_I``'s largest entry S as
    ``sign f_I[S] * sign det V[S, I]``, is the parity of the flips over I,
    solved over GF(2).
    """
    design = _design(r, k)
    with _stage(report, "frames"):
        f = M_tilde.T @ _design_wedges(U, k, r)
        norms = np.sqrt((f * f).sum(axis=0))
        if not norms.all():
            raise DecompositionFailedError("a design product of M is zero")
        # gathered along f's rows, then viewed as (r, m, binom(m, k-1)); the
        # products below read these strides, and a C-ordered copy would
        # round some of them differently
        E = _signed_take(f / norms, _signed_contraction(m, k)).transpose(2, 0, 1)
        P = E @ E.transpose(0, 2, 1)
        outside = E - P @ E
        defect = norms * np.sqrt((outside * outside).sum(axis=(1, 2)))
        limit = policy.residual_rtol * float(np.linalg.norm(M_tilde))
        worst = float(defect.max())
        if not worst <= limit:
            raise DecompositionFailedError(
                f"a design product lies {worst:.3e} from a wedge, more than "
                f"{policy.residual_rtol:.1e} * |M| = {limit:.3e}"
            )
        outer, inner = P[design.pairs]
        rank_one = outer - outer @ inner
        peak = np.diagonal(rank_one, axis1=1, axis2=2).argmax(axis=1)
        columns = np.arange(r)
        V = rank_one[columns, :, peak].T
        # for i < k the pairs give the dual basis of the w_i in span(f_I0);
        # the primal basis stays along each w_i when U's columns are rotated
        dual = V[:, :k]
        try:
            V[:, :k] = np.linalg.solve(dual.T @ dual, dual.T).T
        except np.linalg.LinAlgError as err:
            raise DecompositionFailedError("two design products span the same directions") from err
        lengths = np.sqrt((V * V).sum(axis=0))
        if not lengths.all():
            raise DecompositionFailedError("two design products span the same directions")
        V /= lengths
    with _stage(report, "singular_values"):
        sigma = np.exp(design.solver.pinv @ np.log(norms))
        rows = np.abs(f).argmax(axis=0)
        minors = V[_tuple_array(m, k)[rows][:, :, None], design.sets[:, None, :]]
        negative = f[rows, columns] * np.linalg.det(minors) < 0
        flips = design.solver.parity_solution(negative.astype(np.uint8))
    return V, sigma, flips


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
        residual = _residual(candidate, M, k)
        report.reconstruction_residual = residual
    if not residual <= policy.residual_rtol:
        raise error(f"reconstruction residual {residual:.3e} exceeds {policy.residual_rtol:.1e}")


def reconstruction_residual(A, M, k: int) -> float:
    """Relative residual |compound(A, k) - M|_F / |M|_F (absolute when M = 0).

    M must have the shape of ``compound(A, k)``, or
    :class:`InvalidArgumentError` is raised.  Both terms are divided by
    max|M| before the norms are taken, so the squares inside the norms
    neither overflow nor underflow at extreme scales of M, and a difference
    whose squares still overflow is summed by ``hypot`` (:func:`_norm`).  A
    non-finite result means that the candidate's compound overflowed;
    callers test ``not residual <= rtol`` so that it fails.
    """
    A = _as_float_matrix(A, "A")
    return _residual(A, _as_compound(M, *A.shape, k), k)


def _residual(A, M: np.ndarray, k: int) -> float:
    """:func:`reconstruction_residual` of an M already checked against A's shape."""
    peak = max(float(M.max()), -float(M.min()))
    if peak == 0.0:
        return _norm(compound(A, k) - M)
    return _norm((compound(A, k) - M) / peak) / _norm(M / peak)


def _norm(X: np.ndarray) -> float:
    """The Frobenius norm of X, finite wherever the norm itself is.

    ``np.linalg.norm`` takes ``sqrt(x . x)`` over ``X.ravel(order="K")``,
    and ``np.vdot`` calls the same BLAS dot without checking for overflow,
    so wherever the sum of squares is finite this returns the same bytes,
    at no extra cost.  Where the squares overflow, the norm is accumulated
    by ``hypot``, whose partial results never exceed the norm.
    """
    x = X.ravel(order="K")
    square = float(np.vdot(x, x))
    return math.sqrt(square) if square != math.inf else float(np.hypot.reduce(x))


def _canonicalize_sign(A: np.ndarray, policy: TolerancePolicy) -> np.ndarray:
    flat = A.ravel(order="F")
    peak = float(np.max(np.abs(flat)))
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
    M = _as_compound(M, n, m, k)
    svd = reduced_svd(M, policy)
    if svd.rank != 1:
        raise InvalidArgumentError(f"numerical rank is {svd.rank}, expected 1")
    return _svd_rank_one(M, svd, n, m, k, policy, RecoveryReport())


def _svd_rank_one(
    M: np.ndarray, svd: ReducedSvd, n: int, m: int, k: int, policy: TolerancePolicy,
    report: RecoveryReport,
) -> RankOneFamily:
    """The family of an M whose SVD has rank one, of rung 2 and of :func:`rank_one_inverse`.

    U comes from the contraction of the one left singular vector, not of M:
    that answers an M whose second direction lies between the SVD's rank
    cutoff and the contraction's.
    """
    with _stage(report, "rank_one"):
        U = _rank_k_frame(svd.left, n, k, policy, "left")
        scale = max(float(M.max()), -float(M.min()))
        unit = M / scale
    return _rank_one_family(M, unit, scale, U, m, k, policy, report)


def _rank_one_family(
    M: np.ndarray, unit: np.ndarray, scale: float, U: np.ndarray, m: int, k: int,
    policy: TolerancePolicy, report: RecoveryReport,
) -> RankOneFamily:
    """The verified preimage family of a rank-one M, from one contraction of each side.

    A nonzero k-vector is decomposable exactly when its signed
    (k-1)-contraction has rank k, and the range is then its factor span
    (Harris, *Algebraic Geometry: A First Course*, Lecture 6).  So for
    ``M = s u v^T`` the caller's U, the top k frame of the contraction of
    ``unit = M / scale`` with ``scale = max|M|`` (rung 1) or of u itself
    (:func:`_svd_rank_one`), spans u's factors, and V comes from the
    contraction of the narrow ``F = unit^T compound(U, k)``, a multiple of
    v.  The 1 x 1 core ``F^T compound(V, k) = compound(U, k)^T unit
    compound(V, k)`` is then ``+-s / scale``: its sign goes into V's first
    column and ``Sigma`` is ``|core|^(1/k) I``, rescaled by
    ``scale^(1/k)``.  Raises NotCompoundDecomposableError when the right
    contraction rank is not k or the representative does not reproduce M.
    """
    report.route = "rank-one"
    report.inferred_r = k
    with _stage(report, "rank_one"):
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
    rank = _numerical_rank(values, n, policy)
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
    with np.errstate(over="ignore"):  # a det that overflows is inf, far from one
        det = float(np.linalg.det(T))
    return abs(det - 1.0) <= policy.residual_rtol


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
    _verify(B, M, n - 1, policy, RecoveryReport(), NotCompoundDecomposableError)
    return B
