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
work on the same ``M / max|M|`` and differ in their first contraction,
their draw and their right frame V.  Each calls the shared resampling loop
(:func:`_resample`), then the shared design products
(:func:`_design_products`), its own V, the shared ``singular_values`` step
(:func:`_design_values`), the shared ``compose`` step (:func:`_compose`)
and ``verify`` (:func:`_verify`).  :func:`inverse_compound` runs rung 1
(:func:`_contract`) and, in one ``except`` clause, either ends the run at
``verify``'s refusal of rung 1's candidate or hands the refusal to rung 2
(:func:`_svd_rung`).

1. Rung 1, the contraction of M itself (routes ``contraction`` and
   ``rank-one``).  An exactly zero M is the zero family at once.  Otherwise
   M is divided by ``max|M|`` (the answer is rescaled by ``max|M|^(1/k)`` at
   the end, so no stage sees extreme magnitudes).  The left frame is the
   top r left singular vectors of the contraction of M, and r is the rank
   of that contraction.  Rank r = k means rank one, and the family comes
   from that frame and one contraction of the right side
   (:func:`_rank_one_family`).  At k >= 2 the side with the smaller
   unfolding is contracted (a choice made from the shape alone): when that
   is M^T = compound(A^T, k), a unique answer is found and verified for M^T
   and then transposed, and a family is turned back first and verified
   against M itself.  At k = 1 both sides unfold to themselves, and the
   side with fewer rows is contracted, so M and M^T read their rank at one
   cutoff.  There compound(A, 1) = A: a rank r > 1, or a rank one whose
   family misses M, is answered by a copy of M itself, verified, with no
   draw and nothing composed.

2. Rung 2, the SVD route (route ``svd``).  Rung 1 hands over to it when it
   refuses before composing, on a contraction rank r outside
   k <= r <= min(n, m) or a draw that separates nothing; its time is then
   reported as ``contraction_attempt``.  The ``svd`` stage takes the compact SVD
   ``M / max|M| = L diag(s) R^T``, the same scale as rung 1's; its rank
   binom(r, k) gives r.  Rank one calls the rank-one family again, with the
   top k frame of the contraction of the one left singular vector as U:
   that answers an M whose second direction lies between the SVD's rank
   cutoff and the contraction's.  The family takes no rank of either side's
   contraction; ``verify`` alone accepts or refuses it.  A rank that is no
   binom(r, k) is refused as no compound (``not-compound-decomposable``).
   Otherwise the left frame is contracted from the weighted factor
   ``L diag(sqrt(s))``, which separates ill-conditioned sources better, and
   a failed check is the refusal, under its own tag.  Rung 2 knows nothing
   of rung 1's refusal, because ``verify``'s refusal of rung 1's candidate,
   a unique answer or a rank-one family, never reaches it: above rank one
   the preimage is unique up to sign, and at rank one the family holds
   every preimage, so that refusal is evidence that M has none, and ends
   the run (on the corpus of ``tools/outcome_diff.py`` rung 2 never
   answered such an input).  That holds for policies whose ``gap_rtol`` is
   at least the default's.  Under a lowered ``gap_rtol``, rung 1 composes
   from frames closer than that, which can miss an ill-conditioned compound
   by a residual from just above ``residual_rtol`` to near 1 while rung 2
   answers it, so there a ``verify`` refusal hands over as every other
   refusal does.

The stages after the rank, for r > k at k >= 2:

* ``preprocess``: the r contraction singular values must be pairwise
  distinct, which holds exactly when the source singular values are.  When
  they are not (``M = I``, orthogonal or repeated-sigma sources) M is
  replaced by ``compound(Q, k) @ M`` for a random Q (:func:`_resample`, the
  loop of :func:`preprocess_distinct`).  Rung 1 takes one draw, which
  contracts the new M directly; rung 2 takes up to ``max_resample``, each
  with its own SVD.  Each Q comes from a fresh ``policy.rng()``, so every
  call draws the same ones; the singular values of Q and ``compound(Q, k)``
  depend on nothing else, and are kept by Q's bytes (:func:`_kept_draw`).
* ``frames``: r design products ``f_I = M^T c_I(U)``, for
  ``I = {0..k-1}``, its k faces with k, and ``{0..k-2, i}`` for i > k
  (:func:`_design_products`).  For a compound they are wedges; nothing
  here tests that, because ``verify`` refuses the A of a non-compound.
  Nor is a zero product, or two that span the same directions, refused
  here: the A composed from them is non-finite or wrong, and ``verify``
  refuses that too.
  Only ``compound(U[:, :k+1], k)`` is built, never a ``binom(r, k)``-wide
  compound.  Rung 1 takes V from pairs of the projectors onto
  ``span(v_i : i in I)`` that the products' unfoldings give
  (:func:`_complement_frame`); rung 2 forms no projector and takes the top
  r of the contraction of ``R diag(sqrt(s))``, which keeps V on graded
  sources where the complements lose it.
* ``singular_values`` (:func:`_design_values`): sigma from the
  log-magnitudes of the r design products, an r x r system solved exactly,
  and the column flips of V from their signs against V's k x k minors,
  through a parity system over GF(2), whose particular solution is taken
  (a sign read no compound gives is left to ``verify``).  Both systems are
  solved with the factorizations that :func:`_design` caches per
  ``(r, k)``.
* ``compose`` and ``verify``: ``A = U diag(sigma) V^T`` (undoing Q and the
  scale), and a final check that ``compound(A, k)`` reproduces M.  This is
  the one judge of every candidate either rung composes, as it is of the
  rank-one family's representative, and every miss it finds is tagged
  ``verification-failed``, a non-finite A's with a residual of inf.  The
  design stages and ``compose`` run with NumPy's floating-point warnings
  off, since a degenerate design divides by zero there, and ``verify``
  with them on.  So past its input checks :func:`inverse_compound` refuses
  under three tags, one cause each: ``not-compound-decomposable`` on a
  rank that is no binom(r, k), ``verification-failed`` on a missed
  reconstruction, and ``preprocessing-failed`` when no draw separates the
  source singular values.

The paper's own route, which wedge-decomposes every column of the SVD
factors and aligns the directions against them, lives in
:mod:`compound_kit.reference` as the oracle the tests check this pipeline
against; :func:`inverse_compound` never calls it.
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
    InconsistentCompoundValuesError,
    InvalidArgumentError,
    NotCompoundDecomposableError,
    PreprocessingFailedError,
    SingularInputError,
    VerificationFailedError,
)
from .exterior import compound
from .numerics import (
    DEFAULT_POLICY, ReducedSvd, TolerancePolicy, _as_float_matrix, _numerical_rank, gf2_solver,
    least_squares, reduced_svd,
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
    ``rank-one`` or ``zero``.  ``stage_timings`` maps stage names to
    seconds, summed over the times a stage is entered; when rung 1 hands
    over, its whole time is ``contraction_attempt``.
    """

    route: str = ""
    inferred_r: int = 0
    preprocessing_used: bool = False
    resample_count: int = 0
    reconstruction_residual: float = 0.0
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
    Q, returned as the caller's own copy of the kept draw (:func:`_kept_draw`).
    Q = I and ``used=False`` when no resampling was needed.  This is the
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
    return PreprocessResult(np.eye(n) if Q is None else Q.copy(), M_tilde, resamples > 0, resamples)


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
    not usable.  Q's singular values and compound come from
    :func:`_kept_draw`.  Rung 1 draws ``(U, values)`` by contracting
    ``M_tilde`` itself (:func:`_contract`), rung 2 and
    :func:`preprocess_distinct` draw ``(U, values, right)`` through
    :func:`_weighted_resample`.

    Returns ``(Q, M_tilde, resamples, found)``, with Q read-only, or None
    and ``resamples`` 0 when M needed no draw; raises
    :class:`PreprocessingFailedError` after ``draws`` draws.
    """
    best_gap = _min_gap(first[1])
    if best_gap >= policy.gap_rtol:
        return None, M, 0, first

    kept = _kept_draw if math.comb(n, k) <= _CACHED_DRAW_ROWS else _kept_draw.__wrapped__
    rng = policy.rng()
    for attempt in range(1, draws + 1):
        Q, q_sigma, compound_q = kept(rng.standard_normal((n, n)).tobytes(), n, k)
        if _numerical_rank(q_sigma, n, policy) < n:
            continue  # essentially singular draw; try again
        M_tilde = compound_q @ M
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


#: Largest ``binom(n, k)`` whose draws :func:`_kept_draw` keeps; larger
#: ones are built afresh on each call.  With ``maxsize`` 32 the cache then
#: holds at most 32 * 256^2 float64 entries, 16 MiB.  At n = 10 the
#: benchmark's largest, k = 5, has 252 rows.
_CACHED_DRAW_ROWS = 256


@lru_cache(maxsize=32)
def _kept_draw(q: bytes, n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n x n float64 Q whose bytes are ``q``, its singular values and ``compound(Q, k)``.

    They depend on nothing but Q and k, so they are kept by Q's bytes: a
    recovery that draws the same Q, as every recovery under one seed and
    shape does, reuses them.  All three are read-only.  Each entry holds
    one ``binom(n, k)``-square compound; :func:`_resample` keeps only draws
    of at most :data:`_CACHED_DRAW_ROWS` rows, which bounds the cache at
    16 MiB.
    """
    Q = np.frombuffer(q).reshape(n, n)
    drawn = Q, np.linalg.svd(Q, compute_uv=False), compound(Q, k)
    for array in drawn[1:]:
        array.setflags(write=False)
    return drawn


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
    SVD of M.  Its right frame contracts no whole F: each of the r design
    products ``M^T c_I(U)`` is one wedge, whose unfolding is the case r = k
    above, k equal singular values whose frame spans the wedge's factors
    (:func:`_complement_frame`).  Rung 2 contracts ``F = L diag(sqrt(s))``
    from the SVD ``M = L diag(s) R^T``, and ``R diag(sqrt(s))`` for its
    right frame, so ``F F^T = compound(U Sigma U^T, k)`` and ``g = sigma``.
    The gaps between the lam then grow with the other singular values
    rather than with their squares, which is what still separates the
    frames of ill-conditioned sources whose squared gaps fall below
    ``gap_rtol``; that is why rung 2 keeps the ``sqrt(s)`` weight.

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
    column rank, solved by :func:`least_squares`; the residual
    ``|L x - log d|`` certifies that d really is a product vector, or
    :class:`InconsistentCompoundValuesError` is raised.  The pipeline reads
    sigma from the r x r design instead (:func:`_design_values`); this is the
    step of the paper's route in :mod:`compound_kit.reference`.
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
    y = np.log(d)
    x, residual = least_squares(incidence_matrix(r, k).entries, y)
    scale = max(1.0, float(np.linalg.norm(y)))
    if not residual <= policy.residual_rtol * scale:
        raise InconsistentCompoundValuesError(
            f"log-linear residual {residual:.3e} exceeds "
            f"{policy.residual_rtol:.1e} * {scale:.3e}; values are not k-fold products"
        )
    return np.exp(x)


class _Design(NamedTuple):
    """The r index sets of the design products for one ``(r, k)`` (:func:`_design_products`).

    ``sets`` (r x k) lists them in order: the k-subsets of ``{0..k}`` in lex
    order, that is ``{0..k}`` without k, k-1, ..., 0, then ``{0..k-2, i}``
    for ``k < i < r``.  ``pairs`` (2 x r) names two of them for each i, and
    i is the one element of ``sets[pairs[0, i]]`` that is not in
    ``sets[pairs[1, i]]``: for i < k the pair is ``({0..k-1}, {0..k} - {i})``,
    for i >= k it is ``({0..k-2, i}, {0..k-1})``.
    ``entries`` (r x r, uint8) is the incidence of the sets, which is
    invertible over the reals and, over GF(2), has rank r at odd k and r - 1
    at even k (the global sign).  ``inverse`` is its pseudo-inverse and
    ``parity`` its GF(2) solve matrix (:func:`gf2_solver`): the pipeline's
    one cached factorization of each system.  Every array is read-only.
    """

    sets: np.ndarray
    pairs: np.ndarray
    entries: np.ndarray
    inverse: np.ndarray
    parity: np.ndarray


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
    design = _Design(
        sets=sets, pairs=pairs, entries=entries,
        inverse=np.linalg.pinv(entries.astype(float)), parity=gf2_solver(entries),
    )
    for array in design:
        array.setflags(write=False)
    return design


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


def _peak(M: np.ndarray) -> float:
    """``max|M|``, taken without forming ``|M|``."""
    return max(float(M.max()), -float(M.min()))


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
        ``policy.residual_rtol`` before returning.  At k = 1, where
        compound(A, 1) = A, an M of rank above one is answered by a copy of
        M itself (route ``contraction``, ``inferred_r`` its rank), and a
        rank-one M by its family.

    Raises
    ------
    InvalidArgumentError
        If k is outside 1..min(n, m) or M's shape does not match (n, m, k)
        (the check :func:`rank_one_inverse` shares), or if a nonzero M has
        numerical rank 0 under ``policy.rank_rtol``.
    NotCompoundDecomposableError
        If the rank of M is not a binomial binom(r, k).  Its subclass
        :class:`VerificationFailedError` if the final check fails, of a
        unique answer or of a rank-one family's representative alike.
        Rung 1's final check ends the run when ``policy.gap_rtol`` is at
        least the default's, whatever rank M's SVD would count; under a
        lowered ``gap_rtol`` the error is rung 2's.
    PreprocessingFailedError
        If no draw separates the source singular values.  No other stage
        refuses: a zero design product, or two that span the same
        directions, gives a non-finite or wrong A, and the final check
        refuses it (:class:`VerificationFailedError`, with a residual of inf
        for a non-finite A), as it refuses the A of an input of the right
        rank that no compound is close to.
    """
    M = _as_compound(M, n, m, k)
    report = RecoveryReport()
    peak = _peak(M)
    if peak == 0.0:
        # every matrix of rank below k has the zero compound
        report.route = "zero"
        report.inferred_r = k
        return RecoveryResult(outcome=RankDeficientFamily(n=n, m=m, k=k), report=report)
    start = time.perf_counter()
    try:
        outcome = _contract(M, peak, n, m, k, policy, report)
    except CompoundKitError as err:
        # above rank one the preimage is unique up to sign, so verify's refusal
        # ends the run; every other refusal hands over
        if isinstance(err, VerificationFailedError) and policy.gap_rtol >= DEFAULT_POLICY.gap_rtol:
            raise
        report = RecoveryReport(stage_timings={"contraction_attempt": time.perf_counter() - start})
        outcome = _svd_rung(M, peak, n, m, k, policy, report)
    if canonical_sign and isinstance(outcome, UniqueUpToSign) and outcome.sign_ambiguous:
        # compound(-A, k) = compound(A, k) exactly at even k, so the
        # verified residual holds for the flipped answer too
        outcome = UniqueUpToSign(A=_canonicalize_sign(outcome.A, policy), sign_ambiguous=True)
    return RecoveryResult(outcome=outcome, report=report)


def _contract(
    M: np.ndarray, peak: float, n: int, m: int, k: int, policy: TolerancePolicy,
    report: RecoveryReport,
) -> UniqueUpToSign | RankOneFamily:
    """Rung 1 of :func:`inverse_compound`: the verified answer from contractions of M itself.

    ``peak`` is ``max|M|``, taken once per recovery; M is contracted as
    ``M / peak``.  At k >= 2 the side with the smaller unfolding is
    contracted: when that is M^T = compound(A^T, k), a unique answer is
    found and verified for M^T and transposed, and a family is verified as
    the one returned, against M.  At k = 1 the side with fewer rows is
    contracted, and a rank r > 1, or a rank one whose family misses M
    (:class:`VerificationFailedError`), returns a copy of M, verified
    against M, since compound(M, 1) = M; so no k = 1 input reaches rung 2
    unless ``rank_rtol`` cuts off even the largest contraction value.
    It refuses before composing only on a contraction rank r outside
    ``k <= r <= min(n, m)`` (:class:`NotCompoundDecomposableError`) or a
    draw that separates nothing (:class:`PreprocessingFailedError`); every
    candidate it composes, however degenerate its design, reaches
    ``verify``.  :func:`inverse_compound` ends
    the run at ``verify``'s refusal of a candidate, a unique answer or, at
    k >= 2, a family, unless ``gap_rtol`` is lowered, and hands every other
    refusal over.
    """
    # at k >= 2 the side with more rows has the smaller unfolding; at k = 1
    # both unfold to themselves, and the side with fewer rows sets the cutoff
    turned = m < n if k == 1 else m > n
    side, n, m = (M.T, m, n) if turned else (M, n, m)
    with _stage(report, "preprocess"):
        unit = side / peak
        frame, values = _contraction_frame(unit, n, k)
        r = _numerical_rank(values, n, policy)
    if r == k:
        try:
            return _rank_one_family(side, peak, frame[:, :k], m, k, policy, report, turned)
        except VerificationFailedError:
            if k > 1:
                raise
    elif not k < r <= min(n, m):
        raise NotCompoundDecomposableError(f"contraction rank {r} is outside ({k}, {min(n, m)}]")
    if k == 1:  # compound(A, 1) = A, so M is its own preimage
        report.route, report.inferred_r = "contraction", r
        _verify(M, M, peak, k, policy, report)
        return UniqueUpToSign(A=M.copy(), sign_ambiguous=False)

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
    with np.errstate(all="ignore"):  # see _compose
        with _stage(report, "frames"):
            f, norms = _design_products(M_tilde, U, k, r)
            V = _complement_frame(f, norms, m, k, r)
        with _stage(report, "singular_values"):
            sigma, flips = _design_values(f, norms, V, m, k, r)
        A = _compose(peak, Q, resamples, k, U, V, sigma, flips, report)
    _verify(A, side, peak, k, policy, report)
    return UniqueUpToSign(A=A.T if turned else A, sign_ambiguous=(k % 2 == 0))


def _svd_rung(
    M: np.ndarray, peak: float, n: int, m: int, k: int, policy: TolerancePolicy,
    report: RecoveryReport,
) -> UniqueUpToSign | RankOneFamily:
    """Rung 2 of :func:`inverse_compound`, the SVD route.

    One SVD of ``M / peak``, as rung 1 scales M by ``peak = max|M|``, then
    the contraction of its weighted factors for both frames, and rung 1's
    design products and ``singular_values`` step; every failed check raises
    its tagged error.  It takes nothing from rung 1's refusal: the SVD's
    rank count decides rank one and a rank that is no binomial, and any
    other count runs the rung in full.  :func:`inverse_compound` calls it
    after a ``verify`` refusal of rung 1 only under a lowered ``gap_rtol``.
    """
    with _stage(report, "svd"):
        unit = M / peak
        svd = reduced_svd(unit, policy)
    if svd.rank == 1:
        with _stage(report, "rank_one"):
            U = _contraction_frame(svd.left, n, k)[0][:, :k]
        return _rank_one_family(M, peak, U, m, k, policy, report)
    report.route = "svd"
    r = infer_base_rank(svd.rank, k)
    with _stage(report, "preprocess"):
        Q, M_tilde, resamples, (U, _, right) = _weighted_resample(unit, svd, n, k, r, policy)
    with np.errstate(all="ignore"):  # see _compose
        with _stage(report, "frames"):
            f, norms = _design_products(M_tilde, U, k, r)
            V = _contraction_frame(right, m, k)[0][:, :r]
        with _stage(report, "singular_values"):
            sigma, flips = _design_values(f, norms, V, m, k, r)
        A = _compose(peak, Q, resamples, k, U, V, sigma, flips, report)
    _verify(A, M, peak, k, policy, report)
    return UniqueUpToSign(A=A, sign_ambiguous=(k % 2 == 0))


def _compose(
    peak: float, Q: np.ndarray | None, resamples: int, k: int, U: np.ndarray, V: np.ndarray,
    sigma: np.ndarray, flips: np.ndarray, report: RecoveryReport,
) -> np.ndarray:
    """The ``compose`` stage both rungs share: A from the frames and sigma.

    The rung resampled ``M / peak`` into ``compound(Q, k) @ M / peak`` (no
    Q when ``resamples`` is 0), with ``peak = max|M|``, and its right side
    gave the right frame V, sigma and the column flips of V for that.  A is
    composed from them, undoing Q and the scale; the rung then checks it
    against M (:func:`_verify`).  No design stage refuses: a zero design
    product, or two that span the same directions, gives a non-finite or
    wrong A, and ``verify`` refuses it.  So each rung runs its design
    stages and this one with NumPy's floating-point warnings off, and
    ``verify`` with them on.
    """
    report.inferred_r = sigma.size
    report.preprocessing_used = resamples > 0
    report.resample_count = resamples
    with _stage(report, "compose"):
        A = U @ (np.where(flips, -sigma, sigma)[:, None] * V.T)
        if resamples:
            A = np.linalg.solve(Q, A)
        A *= peak ** (1.0 / k)
    return A


def _design_products(
    M_tilde: np.ndarray, U: np.ndarray, k: int, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """The r design products of both right sides, and their norms.

    For each set I of :func:`_design`, ``f_I = M_tilde^T c_I(U)`` is the
    wedge of the ``w_i = A_tilde^T u_i`` over I, with A_tilde the source of
    ``M_tilde``; for exact singular vectors ``w_i = +-sigma_i v_i`` and
    ``|f_I| = prod_I sigma``.  Whether the products really are wedges is
    not tested here: a non-compound gives an A that ``verify`` refuses.

    Returns ``(f, norms)``: the products as the columns of f (m_k x r,
    ``m_k = binom(m, k)``) and their norms.  A zero product is returned as
    it is; sigma then has a zero or non-finite entry, and ``verify`` refuses
    the A composed from it.
    """
    f = M_tilde.T @ _design_wedges(U, k, r)
    return f, np.sqrt((f * f).sum(axis=0))


def _complement_frame(f: np.ndarray, norms: np.ndarray, m: int, k: int, r: int) -> np.ndarray:
    """Rung 1's right frame V, from the design products of :func:`_design_products`.

    For a wedge ``f_I``, the signed (k-1)-unfolding ``E_I`` of
    ``f_I / |f_I|`` has k equal singular values (:func:`_contraction_frame`
    at r = k), so ``P_I = E_I E_I^T`` is the orthogonal projector onto
    ``span(w_i : i in I)``; one batched product gives all r.

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

    Rung 2 takes its V from the contraction of ``R diag(sqrt(s))`` instead:
    on graded sources these complements lose V where that contraction keeps
    it.

    Nothing here refuses.  When two products span the same directions, the
    dual columns' Gram matrix is singular and they are kept as they are,
    and a zero column of V normalizes to NaN; the A composed from such a V
    misses M or is non-finite, and ``verify`` refuses it.
    """
    # gathered along f's rows, then viewed as (r, m, binom(m, k-1)); the
    # products below read these strides, and a C-ordered copy would round
    # some of them differently
    E = _signed_take(f / norms, _signed_contraction(m, k)).transpose(2, 0, 1)
    P = E @ E.transpose(0, 2, 1)
    outer, inner = P[_design(r, k).pairs]
    rank_one = outer - outer @ inner
    peak = np.diagonal(rank_one, axis1=1, axis2=2).argmax(axis=1)
    V = rank_one[np.arange(r), :, peak].T
    # for i < k the pairs give the dual basis of the w_i in span(f_I0);
    # the primal basis stays along each w_i when U's columns are rotated
    dual = V[:, :k]
    try:
        V[:, :k] = np.linalg.solve(dual.T @ dual, dual.T).T
    except np.linalg.LinAlgError:
        pass  # coincident products: keep the dual columns, and verify judges the A
    V /= np.sqrt((V * V).sum(axis=0))
    return V


def _design_values(
    f: np.ndarray, norms: np.ndarray, V: np.ndarray, m: int, k: int, r: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``singular_values`` step of both rungs: sigma and V's column flips.

    ``log |f_I| = sum_I log sigma`` is a square system with the design's
    incidence, solved exactly by its cached ``inverse``, so there is no
    log-linear residual.  The sign of ``f_I`` against ``c_I(V)``, read at
    ``f_I``'s largest entry S as ``sign f_I[S] * sign det V[S, I]``, is the
    parity of the flips over I, solved over GF(2) by the cached ``parity``.
    At odd k that system has full rank.  At even k its one free direction is
    the global sign, so a compound always meets the one condition left; its
    particular solution is taken whether or not the signs meet it, and a
    sign read that does not means M has no preimage, which ``verify``
    refuses.
    """
    design = _design(r, k)
    sigma = np.exp(design.inverse @ np.log(norms))
    rows = np.abs(f).argmax(axis=0)
    minors = V[_tuple_array(m, k)[rows][:, :, None], design.sets[:, None, :]]
    negative = (f[rows, np.arange(r)] * np.linalg.det(minors) < 0).astype(np.uint8)
    return sigma, (design.parity @ negative) & 1


def _verify(
    candidate: np.ndarray,
    M: np.ndarray,
    peak: float,
    k: int,
    policy: TolerancePolicy,
    report: RecoveryReport,
) -> None:
    """The ``verify`` stage: ``compound(candidate, k)`` must reproduce M.

    ``peak`` is ``max|M|``, taken once per recovery.  A miss raises
    :class:`VerificationFailedError`, whatever the candidate: a unique
    answer, a rank-one family's representative or the closed form.  A
    non-finite candidate, which a degenerate design composes, misses with
    a residual of inf; its compound is not taken, since ``compound()``
    refuses non-finite input as an invalid argument.
    """
    with _stage(report, "verify"):
        residual = _residual(candidate, M, peak, k) if np.isfinite(candidate).all() else math.inf
        report.reconstruction_residual = residual
    if not residual <= policy.residual_rtol:
        message = f"reconstruction residual {residual:.3e} exceeds {policy.residual_rtol:.1e}"
        raise VerificationFailedError(message)


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
    M = _as_compound(M, *A.shape, k)
    peak = _peak(M)
    if peak == 0.0:
        return _norm(compound(A, k) - M)
    return _residual(A, M, peak, k)


def _residual(A: np.ndarray, M: np.ndarray, peak: float, k: int) -> float:
    """:func:`reconstruction_residual` of a nonzero M checked against A's shape; peak is max|M|."""
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

    A rank-one M factors as ``sigma * u @ v.T`` with unit u, v.  U is the top
    k frame of the signed (k-1)-contraction of u and V that of the right
    side (:func:`_rank_one_family`); spreading ``sigma^(1/k)`` across a
    diagonal produces one preimage, and all preimages differ by an inner
    determinant-one factor T.  The family is returned only if its
    representative reproduces M within ``residual_rtol``; otherwise u or v
    is no wedge and :class:`VerificationFailedError` is raised.
    """
    M = _as_compound(M, n, m, k)
    svd = reduced_svd(M, policy)
    if svd.rank != 1:
        raise InvalidArgumentError(f"numerical rank is {svd.rank}, expected 1")
    U = _contraction_frame(svd.left, n, k)[0][:, :k]
    return _rank_one_family(M, _peak(M), U, m, k, policy, RecoveryReport())


def _rank_one_family(
    M: np.ndarray, peak: float, U: np.ndarray, m: int, k: int, policy: TolerancePolicy,
    report: RecoveryReport, transposed: bool = False,
) -> RankOneFamily:
    """The verified preimage family of a rank-one M, from its left frame U.

    A nonzero k-vector is decomposable exactly when its signed
    (k-1)-contraction has rank k, and the range is then its factor span
    (Harris, *Algebraic Geometry: A First Course*, Lecture 6).  So for a
    true compound ``M = s u v^T`` the caller's U, the top k frame of the
    contraction of ``M / max|M|`` (rung 1) or of u itself (rung 2 and
    :func:`rank_one_inverse`), spans u's factors.  V, the top k frame of
    the contraction of the narrow ``F = (M / max|M|)^T compound(U, k)``, a
    multiple of v, spans v's.  The 1 x 1 core ``F^T compound(V, k)`` is then
    ``+-s / max|M|``: its sign goes into V's first column and ``Sigma`` is
    ``|core|^(1/k) I``, rescaled by ``max|M|^(1/k)``.  No contraction rank is
    tested: ``verify`` is the one judge, and raises
    :class:`VerificationFailedError` when the representative does not
    reproduce M within ``residual_rtol``.  When u or v is no wedge, no k
    directions span its factors, so the representative misses M.  With
    ``transposed``, M is the transpose of the input (rung 1 contracted the
    input's other side): the family of M^T is returned, and its own
    representative is verified against M^T.
    """
    report.route = "rank-one"
    report.inferred_r = k
    with _stage(report, "rank_one"):
        F = (M / peak).T @ compound(U, k)
        V = _contraction_frame(F, m, k)[0][:, :k]
        core = float(F[:, 0] @ compound(V, k)[:, 0])
        if core < 0:
            V[:, 0] = -V[:, 0]
        Sigma = abs(core) ** (1.0 / k) * peak ** (1.0 / k) * np.eye(k)
    if transposed:
        family, M = RankOneFamily(U=V, Sigma=Sigma, V=U), M.T
    else:
        family = RankOneFamily(U=U, Sigma=Sigma, V=V)
    _verify(family.representative(), M, peak, k, policy, report)
    return family


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
    reconstruction check rejects inputs that are not (n-1)-compounds with
    :class:`VerificationFailedError`.  The formula is applied to
    ``M / sigma_1`` and its result scaled by ``sigma_1^(1/(n-1))``, so
    ``det`` neither overflows nor underflows at extreme scales of M.
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
    _verify(B, M, _peak(M), n - 1, policy, RecoveryReport())
    return B
