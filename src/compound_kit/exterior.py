"""Multiplicative compounds, wedge products, and adjugate identities.

The k-th multiplicative compound of an n x m matrix collects all k x k
minors, with rows and columns ordered by the lexicographic k-tuples from
:mod:`compound_kit.combinat`.  Wedge products and wedge matrices express the
same minors vector-by-vector and provide the decomposability test used by
the inverse pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations
from typing import NamedTuple

import numpy as np

from .combinat import MAX_ARRAY_ENTRIES, MAX_TUPLE_COUNT, binom
from .errors import DegenerateInputError, InvalidArgumentError
from .numerics import DEFAULT_POLICY, TolerancePolicy, _as_float_matrix, kernel_basis


@lru_cache(maxsize=None)
def _tuple_columns(n: int, k: int) -> np.ndarray:
    """The entries of the k-tuples over range(n) by position, shape (k, binom(n, k)).

    One contiguous array, so that each row is an index the block step of
    :func:`_minors` reads in place: ``np.take`` copies a strided or
    read-only index array on every call.  Shared by every caller, but
    writeable for the same reason; callers must not modify it.
    """
    total = binom(n, k)
    entries = chain.from_iterable(combinations(range(n), k))
    return np.fromiter(entries, dtype=np.intp, count=total * k).reshape(total, k).T.copy()


def _tuple_array(n: int, k: int) -> np.ndarray:
    """0-based index tuples as a (binom(n,k), k) array, lex order.

    The transposed view of :func:`_tuple_columns`, so both share one buffer.
    """
    return _tuple_columns(n, k).T


def _lex_rank(tuples: np.ndarray, n: int) -> np.ndarray:
    """Lex rank of each row of ``tuples``, an ascending 0-based k-tuple over range(n).

    ``binom(n, k) - 1`` minus the number of tuples that come after, which is
    ``sum_i binom(n-1-t_i, k-i)``.  Every term of that sum is below
    ``binom(n, k)``, so the table below is clipped there: the clip never
    touches a term in use and keeps the unused entries inside int64.
    """
    k = tuples.shape[1]
    total = binom(n, k)
    table = np.array(
        [[min(math.comb(a, b), total) for b in range(k + 1)] for a in range(n)],
        dtype=np.int64,
    )
    after = table[n - 1 - tuples, np.arange(k, 0, -1)].sum(axis=1)
    return total - 1 - after


@lru_cache(maxsize=None)
def _face_ranks(n: int, k: int) -> np.ndarray:
    """Lex ranks of the faces of every k-tuple over range(n), shape (k, binom(n, k)).

    ``faces[p, i]`` is the rank, among the (k-1)-tuples over range(n), of the
    i-th k-tuple with its entry at position p removed.  Shared by every
    caller, but writeable: the block step of :func:`_minors` takes its rows
    as indices, and ``np.take`` copies a read-only index array on every
    call.  Callers must not modify it.
    """
    tuples = _tuple_array(n, k)
    return np.stack([_lex_rank(np.delete(tuples, p, axis=1), n) for p in range(k)])


@lru_cache(maxsize=None)
def _contraction_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Signed map (a, S) -> S + {a} from (k-1)-tuples to k-tuples over range(n).

    Returns ``(rows, signs)``, both of shape (n, binom(n, k-1)) and indexed by
    an element ``a`` and the lex rank of a (k-1)-tuple ``S``.  ``rows[a, S]``
    is the lex rank of the k-tuple ``S + {a}`` and ``signs[a, S]`` is
    ``(-1)^#{x in S : x < a}``, the sign of moving ``a`` to the front of that
    tuple.  Both are 0 where ``a`` is in ``S``.  The arrays are shared by
    every caller and therefore read-only.
    """
    tuples = _tuple_array(n, k)
    faces = _face_ranks(n, k)
    rows = np.zeros((n, binom(n, k - 1)), dtype=np.intp)
    signs = np.zeros(rows.shape)
    for pos in range(k):
        rows[tuples[:, pos], faces[pos]] = np.arange(tuples.shape[0])
        signs[tuples[:, pos], faces[pos]] = -1.0 if pos % 2 else 1.0
    rows.flags.writeable = False
    signs.flags.writeable = False
    return rows, signs


# Cost model of compound(), in nanoseconds on one core.  A batched LU
# determinant costs a call overhead plus, per minor, a constant and a term in
# s^2 (gathering the s x s block outweighs the s^3 / 3 flops at these sizes).
# A block Laplace level s costs s gather-multiply-adds over its entries plus
# s steps of interpreter overhead; a gathered level costs one step plus its
# s * rows * cols products.  The constants are a non-negative least-squares
# fit, weighted by 1 / time, to timings of the kernel at every seed level on
# 229 shapes (n <= m <= n + 2, n up to 13, every k from 2 to n; 1164
# timings, each the best of 10 batch means, on one core of a 2-vCPU Intel
# Xeon with NumPy 2.4 and OpenBLAS).  On those shapes the chosen seed was
# 2.3% slower in total than the fastest seed, and at worst 1.4x on a 2 ms
# shape.
_LU_CALL_NS = 6200.0
_LU_MINOR_NS = 138.0
_LU_ENTRY_NS = 18.6
_LAPLACE_ENTRY_NS = 2.5
_LAPLACE_STEP_NS = 10000.0
_GATHER_ENTRY_NS = 3.9
_GATHER_STEP_NS = 6000.0
#: Largest s * rows * cols of a level built in one gathered step.
_GATHER_ENTRIES = 2**14


def _level_shape(n: int, m: int, k: int, s: int) -> tuple[int, int]:
    """Rows and columns of level s: s-tuples over range(k-s, n) against s-tuples over range(m)."""
    return math.comb(n - k + s, s), math.comb(m, s)


def _seed_cost(n: int, m: int, k: int, seed: int) -> float:
    """Modelled nanoseconds of compound() seeded by LU determinants at level ``seed``."""
    rows, cols = _level_shape(n, m, k, seed)
    cost = 0.0 if seed == 1 else _LU_CALL_NS + rows * cols * (_LU_MINOR_NS + _LU_ENTRY_NS * seed**2)
    for s in range(seed + 1, k + 1):
        rows, cols = _level_shape(n, m, k, s)
        products = s * rows * cols
        if products <= _GATHER_ENTRIES:
            cost += _GATHER_STEP_NS + _GATHER_ENTRY_NS * products
        else:
            cost += _LAPLACE_ENTRY_NS * products + _LAPLACE_STEP_NS * s
    return cost


def _largest_array(n: int, m: int, k: int, seed: int) -> int:
    """Entries of the largest array compound() allocates when seeded at level ``seed``.

    That is the seed's (rows, cols, seed, seed) block stack or the largest
    level; a level's index arrays have ``s`` entries per column.  The
    temporaries of a gathered level hold at most ``_GATHER_ENTRIES``
    entries, far below any cap, and are not counted.
    """
    rows, cols = _level_shape(n, m, k, seed)
    largest = rows * cols * seed * seed
    for s in range(seed + 1, k + 1):
        rows, cols = _level_shape(n, m, k, s)
        largest = max(largest, max(rows, s) * cols)
    return largest


class _Gather(NamedTuple):
    """Flat indices of a gathered level step, both of shape (s, rows, cols).

    ``weights`` indexes ``[X, -X]`` (n x 2m): the row is the output row's
    leading index and the column its p-th column index, read from the
    negated half at odd p.  ``below`` indexes the level below: the row is
    the lex rank of the output row's tail and the column the p-th face of
    its column tuple.  Both stay writeable although the plan is shared:
    ``np.take`` copies a read-only index array on every call.
    """

    weights: np.ndarray
    below: np.ndarray


class _Level(NamedTuple):
    """Index arrays of one Laplace level s of a compound plan.

    A level with at most ``_GATHER_ENTRIES`` products is built by ``gather``
    in one step; a larger one (``gather`` None) by the block step, one
    multiply-add per column position and leading index.
    """

    grade: int
    cols: np.ndarray  # (s, binom(m, s)) column tuples over range(m), from _tuple_columns
    faces: np.ndarray  # (s, binom(m, s)) their face ranks, from _face_ranks
    blocks: tuple[tuple[int, int], ...]  # (start, size) of the rows with each leading index
    gather: _Gather | None


class _CompoundPlan(NamedTuple):
    seed: int
    seed_rows: np.ndarray  # (rows, seed) row tuples of the seed level; unused at seed 1
    seed_cols: np.ndarray  # (cols, seed) column tuples of the seed level
    levels: tuple[_Level, ...]


@lru_cache(maxsize=None)
def _compound_plan(n: int, m: int, k: int) -> _CompoundPlan:
    """Plan of compound() for an n x m input with 2 <= k <= n <= m.

    The seed minimizes the modelled cost among the seeds whose column sets
    stay within MAX_TUPLE_COUNT and whose largest array stays within
    MAX_ARRAY_ENTRIES; InvalidArgumentError is raised, before any array is
    allocated, when no seed qualifies.
    """
    binom(m, k)  # the tagged tuple-cap error; binom(n, k) is no larger
    fits = [
        s0
        for s0 in range(1, k + 1)
        if max(math.comb(m, s) for s in range(s0, k + 1)) <= MAX_TUPLE_COUNT
        and _largest_array(n, m, k, s0) <= MAX_ARRAY_ENTRIES
    ]
    if not fits:
        need = min(_largest_array(n, m, k, s0) for s0 in range(1, k + 1))
        raise InvalidArgumentError(
            f"compound of a {n} x {m} matrix at k={k} needs an array of {need} entries, "
            f"above the cap of {MAX_ARRAY_ENTRIES}"
        )
    return _plan_at(n, m, k, min(fits, key=lambda s0: _seed_cost(n, m, k, s0)))


def _plan_at(
    n: int, m: int, k: int, seed: int, gather_entries: int = _GATHER_ENTRIES
) -> _CompoundPlan:
    """Index arrays of compound() for an n x m input seeded at level ``seed``.

    A level is gathered when its products number at most ``gather_entries``;
    tests pass 0 or a huge value to force one step kind on every level.
    """
    levels = []
    for s in range(seed + 1, k + 1):
        cols, faces = _tuple_columns(m, s), _face_ranks(m, s)
        sizes = [math.comb(n - 1 - a, s - 1) for a in range(k - s, n - s + 1)]
        starts = accumulate(sizes[:-1], initial=0)
        rows = sum(sizes)
        gather = None
        if s * rows * cols.shape[1] <= gather_entries:
            tuples = _tuple_array(n - k + s, s) + (k - s)
            tails = _lex_rank(tuples[:, 1:] - (k - s + 1), n - k + s - 1)
            negated = m * (np.arange(s) % 2)[:, None]
            gather = _Gather(
                weights=(2 * m * tuples[:, 0])[None, :, None] + (cols + negated)[:, None, :],
                below=(math.comb(m, s - 1) * tails)[None, :, None] + faces[:, None, :],
            )
        levels.append(_Level(s, cols, faces, tuple(zip(starts, sizes)), gather))
    return _CompoundPlan(
        seed, _tuple_array(n - k + seed, seed) + (k - seed), _tuple_array(m, seed), tuple(levels)
    )


def _minors(X: np.ndarray, k: int, plan: _CompoundPlan) -> np.ndarray:
    """All k x k minors of an n x m matrix X with n <= m, computed by ``plan``."""
    n = X.shape[0]
    if plan.seed == 1:
        C = X[k - 1 :]
    else:
        rows, cols = plan.seed_rows, plan.seed_cols
        C = np.linalg.det(X[rows[:, None, :, None], cols[None, :, None, :]])
    signed = None
    for s, cols, faces, blocks, gather in plan.levels:
        if gather is not None:
            if signed is None:
                signed = np.concatenate((X, -X), axis=1)
            # the s products of every entry, summed in the order of the
            # block step below, so both steps round alike
            products = signed.take(gather.weights)
            C = np.multiply(products, C.take(gather.below), out=products).sum(axis=0)
            continue
        lead = X[k - s : n - s + 1]
        out = np.empty((blocks[-1][0] + blocks[-1][1], cols.shape[1]))
        for p in range(s):
            below = C.take(faces[p], axis=1)
            weights = lead.take(cols[p], axis=1)
            if p % 2:
                weights = -weights
            for a, (start, size) in enumerate(blocks):
                # the rows led by index k-s+a expand into the last `size`
                # rows of the level below
                if p == 0:
                    np.multiply(weights[a], below[-size:], out=out[start : start + size])
                else:
                    out[start : start + size] += weights[a] * below[-size:]
        C = out
    return C


def compound(X, k: int) -> np.ndarray:
    """k-th multiplicative compound of ``X``.

    Parameters
    ----------
    X : array_like
        Matrix of shape (n, m) with 1 <= k <= min(n, m).
    k : int
        Minor size.

    Returns
    -------
    numpy.ndarray
        Matrix of shape (binom(n, k), binom(m, k)) whose (I, J) entry is the
        determinant of the submatrix of ``X`` on rows I and columns J, both
        index sets in lexicographic order.

    Raises
    ------
    InvalidArgumentError
        For k outside 1..min(n, m), non-finite input, an index set above
        :data:`~compound_kit.combinat.MAX_TUPLE_COUNT`, or a computation whose
        largest array would exceed
        :data:`~compound_kit.combinat.MAX_ARRAY_ENTRIES`.

    Notes
    -----
    The input is oriented so that rows are the shorter side, since
    ``C_k(X^T) = C_k(X)^T``.  Level s holds the s x s minors on the last s
    rows of every output row tuple, which are the s-tuples T over
    range(k-s, n), against all s-tuples J of columns.  Laplace expansion
    along the first row builds each level from the one below::

        C_s[T, J] = sum_p (-1)^p X[T_0, J_p] C_{s-1}[T - T_0, J - J_p]

    with no k x k blocks.  Above a seed level s0 that costs
    ``sum_{s > s0} s * binom(n-k+s, s) * binom(m, s)`` multiply-adds.  A level
    with at most 2^14 such products is built in one gathered step: the
    signed weights ``(-1)^p X[T_0, J_p]`` and the lower minors are gathered
    into two (s, rows, cols) arrays by flat indices cached in the plan,
    multiplied, and summed over p.  A larger level is built in s steps, each
    one gather of the level below and one multiply-add per leading index of
    T, so besides the level it holds only the level below and one gather of
    it.  Both steps add the s products of an entry in the same order, so
    they round alike.  The seed level is one batched LU determinant over its
    (rows, cols, s0, s0) block stack; at s0 = 1 it is just the last n-k+1
    rows of X.  A fixed cost model, cached with the index arrays per
    (n, m, k), picks s0: level 1 where the levels stay small, and s0 = k,
    the plain LU stack, where it has few minors: mostly at k = min(n, m),
    at k = 3 on 4 x 4 and k = 4 on 5 x 5, and for k near min(n, m) on
    larger shapes, where the levels would pass through the middle binomials
    binom(m, m/2).
    """
    X = _as_float_matrix(X)
    n, m = X.shape
    if not 1 <= k <= min(n, m):
        raise InvalidArgumentError(f"need 1 <= k <= min(n, m) = {min(n, m)}, got k={k}")
    if k == 1:
        # the 1x1 minors are the entries themselves, so the first compound is
        # exactly the input
        return X.copy()
    transpose = n > m
    if transpose:
        X, n, m = X.T, m, n
    C = _minors(X, k, _compound_plan(n, m, k))
    return C.T if transpose else C


def wedge(*vectors) -> np.ndarray:
    """Wedge product of k vectors in R^n as its binom(n, k) coordinate vector.

    Coordinates follow the lexicographic k-tuple order: the I-th coordinate is
    the I-rows minor of the matrix with the given vectors as columns.  The
    result is zero exactly when the vectors are linearly dependent.
    """
    if not vectors:
        raise InvalidArgumentError("need at least one vector")
    cols = [np.asarray(v, dtype=float).ravel() for v in vectors]
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise InvalidArgumentError("vectors must share one length")
    k = len(cols)
    if k > n:
        raise InvalidArgumentError(f"cannot wedge {k} vectors in dimension {n}")
    return compound(np.column_stack(cols), k)[:, 0]


@dataclass(frozen=True)
class WedgeMatrix:
    """Matrix of the map x -> x ^ z for a fixed k-vector z in R^n.

    ``data`` has shape (binom(n, k+1), n); its null space is exactly the set
    of vectors whose wedge with z vanishes, which for decomposable z is the
    k-dimensional span of its factors.
    """

    data: np.ndarray
    ambient: int
    grade: int


def wedge_matrix(z, n: int, k: int) -> WedgeMatrix:
    """Build the wedge matrix of ``z`` with respect to (n, k).

    Entry rule for row I (a (k+1)-tuple) and column j: zero when j is not in
    I, otherwise the coordinate of z at I minus j, with sign alternating in
    the position of j within I.
    """
    if not 1 <= k < n:
        raise InvalidArgumentError(f"need 1 <= k < n, got k={k}, n={n}")
    z = np.asarray(z, dtype=float).ravel()
    if z.size != binom(n, k):
        raise InvalidArgumentError(
            f"coordinate vector has length {z.size}, expected binom({n}, {k}) = {binom(n, k)}"
        )
    if not np.all(np.isfinite(z)):
        raise InvalidArgumentError("coordinate vector contains non-finite entries")
    if not np.any(z):
        raise DegenerateInputError("coordinate vector is exactly zero")
    rows, signs = _contraction_table(n, k + 1)
    j, rest = np.nonzero(signs)
    data = np.zeros((binom(n, k + 1), n))
    data[rows[j, rest], j] = signs[j, rest] * z[rest]
    return WedgeMatrix(data=data, ambient=n, grade=k)


class DecomposabilityResult(NamedTuple):
    decomposable: bool
    kernel: np.ndarray


def is_decomposable(
    z, n: int, k: int, policy: TolerancePolicy = DEFAULT_POLICY
) -> DecomposabilityResult:
    """Test whether ``z`` is a wedge of k vectors, via its wedge-matrix kernel.

    A nonzero z is decomposable exactly when the kernel has dimension k; the
    kernel basis then spans the factors.  The zero vector is reported as not
    decomposable with an empty kernel.
    """
    z = np.asarray(z, dtype=float).ravel()
    if z.size != binom(n, k):
        raise InvalidArgumentError(
            f"coordinate vector has length {z.size}, expected binom({n}, {k}) = {binom(n, k)}"
        )
    if not np.any(z):
        return DecomposabilityResult(False, np.zeros((n, 0)))
    kernel = kernel_basis(wedge_matrix(z, n, k).data, policy)
    return DecomposabilityResult(kernel.shape[1] == k, kernel)


def adjugate(A) -> np.ndarray:
    """Adjugate of a square matrix from signed cofactors; adj(A) A = det(A) I.

    Computed entrywise from batched (n-1) x (n-1) minors, with no division,
    so singular input is fine.  The 1 x 1 adjugate is the identity.
    """
    A = _as_float_matrix(A)
    n, m = A.shape
    if n != m:
        raise InvalidArgumentError(f"matrix must be square, got shape {A.shape}")
    if n == 1:
        return np.ones((1, 1))
    keep = np.array([[r for r in range(n) if r != i] for i in range(n)], dtype=np.intp)
    minors = np.linalg.det(A[keep[:, None, :, None], keep[None, :, None, :]])
    signs = (-1.0) ** np.add.outer(np.arange(n), np.arange(n))
    return (signs * minors).T


class SignReversalPair(NamedTuple):
    """Alternating-sign diagonal S and reversal permutation P linking adjugates to compounds."""

    S: np.ndarray
    P: np.ndarray


def sign_reversal_pair(n: int) -> SignReversalPair:
    """S = diag((-1)^i) for i = 1..n and the anti-diagonal permutation P.

    These satisfy adj(A) = S P compound(A, n-1)^T P S, along with P^2 = I,
    S P = (P S)^T, and (S P)^2 = (-1)^(n+1) I.
    """
    if n < 1:
        raise InvalidArgumentError(f"n must be positive, got {n}")
    S = np.diag(np.where(np.arange(1, n + 1) % 2 == 1, -1.0, 1.0))
    P = np.fliplr(np.eye(n))
    return SignReversalPair(S=S, P=P)


def adjugate_via_compound(A) -> np.ndarray:
    """Adjugate computed through the (n-1)-th compound instead of cofactors."""
    A = _as_float_matrix(A)
    n, m = A.shape
    if n != m:
        raise InvalidArgumentError(f"matrix must be square, got shape {A.shape}")
    if n == 1:
        return np.ones((1, 1))
    S, P = sign_reversal_pair(n)
    return S @ P @ compound(A, n - 1).T @ P @ S
