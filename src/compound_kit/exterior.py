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
from itertools import accumulate, combinations
from typing import NamedTuple

import numpy as np

from .combinat import MAX_ARRAY_ENTRIES, MAX_TUPLE_COUNT, binom
from .errors import DegenerateInputError, InvalidArgumentError
from .numerics import DEFAULT_POLICY, TolerancePolicy, _as_float_matrix, kernel_basis


@lru_cache(maxsize=None)
def _tuple_array(n: int, k: int) -> np.ndarray:
    """0-based index tuples as a (binom(n,k), k) array, lex order."""
    binom(n, k)
    return np.array(list(combinations(range(n), k)), dtype=np.intp)


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
    caller and therefore read-only.
    """
    tuples = _tuple_array(n, k)
    faces = np.stack([_lex_rank(np.delete(tuples, p, axis=1), n) for p in range(k)])
    faces.flags.writeable = False
    return faces


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


# Cost model of compound(), in nanoseconds on one core, fitted to timings of
# the kernel below at every seed level over 160 shapes up to 13 x 15.  A
# batched LU determinant costs a call overhead plus, per minor, a constant and
# a term in s^2 (gathering the s x s block outweighs the s^3 / 3 flops at
# these sizes).  Laplace level s costs s gather-multiply-adds over its
# entries, plus the interpreter overhead of its NumPy calls: one per row block
# and a few per step.  On those shapes the chosen seed was 2.6% slower in
# total than the fastest seed, and at worst 1.5x on a sub-millisecond shape.
_LU_CALL_NS = 1.1e4
_LU_MINOR_NS = 96.0
_LU_ENTRY_NS = 19.0
_LAPLACE_ENTRY_NS = 2.3
_LAPLACE_BLOCK_NS = 2600.0
_LAPLACE_STEP_NS = 3400.0


def _level_shape(n: int, m: int, k: int, s: int) -> tuple[int, int]:
    """Rows and columns of level s: s-tuples over range(k-s, n) against s-tuples over range(m)."""
    return math.comb(n - k + s, s), math.comb(m, s)


def _seed_cost(n: int, m: int, k: int, seed: int) -> float:
    """Modelled nanoseconds of compound() seeded by LU determinants at level ``seed``."""
    rows, cols = _level_shape(n, m, k, seed)
    cost = 0.0 if seed == 1 else _LU_CALL_NS + rows * cols * (_LU_MINOR_NS + _LU_ENTRY_NS * seed**2)
    for s in range(seed + 1, k + 1):
        rows, cols = _level_shape(n, m, k, s)
        cost += s * (_LAPLACE_ENTRY_NS * rows * cols + _LAPLACE_BLOCK_NS * (n - k + 1) + _LAPLACE_STEP_NS)
    return cost


def _largest_array(n: int, m: int, k: int, seed: int) -> int:
    """Entries of the largest array compound() allocates when seeded at level ``seed``.

    That is the seed's (rows, cols, seed, seed) block stack or the largest
    level; a level's index arrays have ``s`` entries per column.
    """
    rows, cols = _level_shape(n, m, k, seed)
    largest = rows * cols * seed * seed
    for s in range(seed + 1, k + 1):
        rows, cols = _level_shape(n, m, k, s)
        largest = max(largest, max(rows, s) * cols)
    return largest


class _Level(NamedTuple):
    """Index arrays of one Laplace level s of a compound plan."""

    grade: int
    cols: np.ndarray  # (binom(m, s), s) column tuples over range(m)
    faces: np.ndarray  # (s, binom(m, s)) their face ranks, from _face_ranks
    blocks: tuple[tuple[int, int], ...]  # (start, size) of the rows with each leading index


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


def _plan_at(n: int, m: int, k: int, seed: int) -> _CompoundPlan:
    """Index arrays of compound() for an n x m input seeded at level ``seed``."""
    levels = []
    for s in range(seed + 1, k + 1):
        sizes = [math.comb(n - 1 - a, s - 1) for a in range(k - s, n - s + 1)]
        starts = accumulate(sizes[:-1], initial=0)
        levels.append(_Level(s, _tuple_array(m, s), _face_ranks(m, s), tuple(zip(starts, sizes))))
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
    for s, cols, faces, blocks in plan.levels:
        lead = X[k - s : n - s + 1]
        out = np.empty((blocks[-1][0] + blocks[-1][1], cols.shape[0]))
        for p in range(s):
            below = C.take(faces[p], axis=1)
            weights = lead.take(cols[:, p], axis=1)
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

    which is s gather-multiply-adds over arrays the size of the level, with
    no k x k blocks.  Above a seed level s0 that costs
    ``sum_{s > s0} s * binom(n-k+s, s) * binom(m, s)`` multiply-adds, and
    besides a level only the level below and one gather of it are held.  The
    seed level is one batched LU determinant over its (rows, cols, s0, s0)
    block stack; at s0 = 1 it is just the last n-k+1 rows of X.  A fixed cost
    model, cached with the index arrays per (n, m, k), picks s0: level 1
    where the levels stay small, and s0 = k, the plain LU stack, for tiny
    shapes and for k near min(n, m), where the levels would pass through the
    middle binomials binom(m, m/2).
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
