"""Multiplicative compounds, wedge products, and adjugate identities.

The k-th multiplicative compound of an n x m matrix collects all k x k
minors, with rows and columns ordered by the lexicographic k-tuples from
:mod:`compound_kit.combinat`, whose cached tables every kernel here reads.
Wedge products and wedge matrices express the same minors vector-by-vector.
The wedge-matrix kernel is the paper's decomposability test
(:func:`is_decomposable`), and the paper's reference route
(:mod:`compound_kit.reference`) takes the factors of every SVD column from
it; the inverse pipeline does not use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .combinat import (
    MAX_ARRAY_ENTRIES, MAX_TUPLE_COUNT, _face_ranks, _lex_rank, _signed_take, _signed_wedge,
    _tuple_array, _tuple_columns, binom,
)
from .errors import DegenerateInputError, InvalidArgumentError
from .numerics import DEFAULT_POLICY, TolerancePolicy, _as_float_matrix, kernel_basis

__all__ = [
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
]


# Cost model of compound(), in nanoseconds on one core.  The batched LU
# determinant of all k x k blocks costs a call overhead plus, per minor, a
# constant and a term in k^2 (gathering the k x k block outweighs the k^3 / 3
# flops at these sizes).  A block Laplace level s costs s gather-multiply-adds
# over its entries plus s steps of interpreter overhead; a gathered level costs
# one step plus its s * rows * cols products.  The constants are a
# non-negative least-squares fit, weighted by 1 / time, to timings of the
# kernel started from every level s0 (the LU stack at level s0, then Laplace
# levels s0+1..k) on 229 shapes (n <= m <= n + 2, n up to 13, every k from 2
# to n; 1164 timings, each the best of 10 batch means, on one core of a
# 2-vCPU Intel Xeon with NumPy 2.4 and OpenBLAS).  On those shapes the
# modelled choice was 2.3% slower in total than the fastest start, and at
# worst 1.4x on a 2 ms shape.  The model prices no intermediate start below
# both ends, the LU stack (s0 = k) and the levels from X's rows (s0 = 1), on
# any admissible shape up to 119 x 120, so compound() keeps only those two.
# One pass over levels 2..k (:func:`_prices`) prices both, with their largest
# array and widest column set, for the caps.
_LU_CALL_NS = 6200.0
_LU_MINOR_NS = 138.0
_LU_ENTRY_NS = 18.6
_LAPLACE_ENTRY_NS = 2.5
_LAPLACE_STEP_NS = 10000.0
_GATHER_ENTRY_NS = 3.9
_GATHER_STEP_NS = 6000.0
#: Largest s * rows * cols of a level built in one gathered step.
_GATHER_ENTRIES = 2**14


class _Price(NamedTuple):
    """What one kernel of compound() costs: modelled nanoseconds, largest array, widest column set.

    ``largest`` counts the entries of the (rows, cols, k, k) block stack or of
    the largest level; a level's index arrays have ``s`` entries per column.
    The temporaries of a gathered level hold at most ``_GATHER_ENTRIES``
    entries, far below any cap, and are not counted.
    """

    cost: float
    largest: int
    widest: int


def _prices(n: int, m: int, k: int) -> tuple[_Price, _Price]:
    """Prices of compound() for an n x m input by the Laplace levels 2..k and by the LU stack.

    One pass over the levels: level s holds the s-tuples over range(k-s, n)
    against the s-tuples over range(m), and level k's shape is the LU stack's.
    """
    cost, largest, widest = 0.0, 0, 0
    for s in range(2, k + 1):
        rows, cols = math.comb(n - k + s, s), math.comb(m, s)
        products = s * rows * cols
        if products <= _GATHER_ENTRIES:
            cost += _GATHER_STEP_NS + _GATHER_ENTRY_NS * products
        else:
            cost += _LAPLACE_ENTRY_NS * products + _LAPLACE_STEP_NS * s
        largest = max(largest, max(rows, s) * cols)
        widest = max(widest, cols)
    lu_cost = _LU_CALL_NS + rows * cols * (_LU_MINOR_NS + _LU_ENTRY_NS * k**2)
    return _Price(cost, largest, widest), _Price(lu_cost, rows * cols * k * k, cols)


class _Gather(NamedTuple):
    """Flat indices of a gathered level step, both of shape (s, rows, cols).

    ``weights`` indexes ``[X, -X]`` (n x 2m): the row is the output row's
    leading index and the column its p-th column index, read from the
    negated half at odd p.  ``below`` indexes the level below: the row is
    the lex rank of the output row's tail and the column the p-th face of
    its column tuple.  Both stay writeable although the plan is shared, for
    the reason :mod:`compound_kit.combinat` gives for its tables.
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


@lru_cache(maxsize=None)
def _compound_plan(n: int, m: int, k: int) -> tuple[_Level, ...]:
    """Plan of compound() for an n x m input with 2 <= k <= n <= m.

    The Laplace levels 2..k (:func:`_levels`), or no levels for the batched
    LU of all k x k blocks, whichever the cost model prices lower among
    those whose column sets stay within MAX_TUPLE_COUNT and whose largest
    array stays within MAX_ARRAY_ENTRIES.  One pass over the levels
    (:func:`_prices`) gives both kernels' cost, largest array and widest
    column set; InvalidArgumentError is raised, before any array is
    allocated, when neither kernel fits.
    """
    binom(m, k)  # the tagged tuple-cap error; binom(n, k) is no larger
    levels, stack = _prices(n, m, k)
    fits = [
        p for p in (levels, stack) if p.widest <= MAX_TUPLE_COUNT and p.largest <= MAX_ARRAY_ENTRIES
    ]
    if not fits:
        raise InvalidArgumentError(
            f"compound of a {n} x {m} matrix at k={k} needs an array of "
            f"{min(levels.largest, stack.largest)} entries, above the cap of {MAX_ARRAY_ENTRIES}"
        )
    return _levels(n, m, k) if min(fits, key=lambda p: p.cost) is levels else ()


def _levels(n: int, m: int, k: int, gather_entries: int = _GATHER_ENTRIES) -> tuple[_Level, ...]:
    """Index arrays of the Laplace levels 2..k of compound() for an n x m input.

    A level is gathered when its products number at most ``gather_entries``;
    tests pass 0 or a huge value to force one step kind on every level.
    """
    levels = []
    for s in range(2, k + 1):
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
    return tuple(levels)


def _minors(X: np.ndarray, k: int, levels: tuple[_Level, ...]) -> np.ndarray:
    """All k x k minors of an n x m matrix X with n <= m, built by ``levels``.

    With no levels they are the batched LU determinants of all k x k blocks.
    """
    n, m = X.shape
    if not levels:
        rows, cols = _tuple_array(n, k), _tuple_array(m, k)
        # det warns of a division by zero on a singular block whose
        # elimination meets a subnormal pivot, and returns its 0 all the same
        with np.errstate(divide="ignore"):
            return np.linalg.det(X[rows[:, None, :, None], cols[None, :, None, :]])
    C = X[k - 1 :]
    signed = None
    for s, cols, faces, blocks, gather in levels:
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

    with no k x k blocks.  Level 1 is the last n-k+1 rows of X, and levels
    2..k cost ``sum_{s >= 2} s * binom(n-k+s, s) * binom(m, s)``
    multiply-adds.  A level with at most 2^14 such products is built in one
    gathered step: the signed weights ``(-1)^p X[T_0, J_p]`` and the lower
    minors are gathered into two (s, rows, cols) arrays by flat indices
    cached in the plan, multiplied, and summed over p.  A larger level is
    built in s steps, each one gather of the level below and one
    multiply-add per leading index of T, so besides the level it holds only
    the level below and one gather of it.  Both steps add the s products of
    an entry in the same order, so they round alike.  The other kernel is
    one batched LU determinant over the (rows, cols, k, k) stack of all
    blocks.  A fixed cost model, cached with the index arrays per (n, m, k),
    picks LU stack or Laplace levels: the levels where they stay small, and
    the LU stack where it has few minors: mostly at k = min(n, m), at k = 3
    on 4 x 4 and k = 4 on 5 x 5, and for k near min(n, m) on larger shapes,
    where the levels would pass through the middle binomials binom(m, m/2).
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
    the position of j within I.  That is the wedge map
    :func:`compound_kit.combinat._signed_wedge` at grade k + 1, gathered from
    z by :func:`compound_kit.combinat._signed_take`.
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
    data = _signed_take(z, _signed_wedge(n, k + 1))
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


def _as_square(A) -> np.ndarray:
    """A as a float matrix, checked to be square and nonempty."""
    A = _as_float_matrix(A)
    if A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise InvalidArgumentError(f"matrix must be square and nonempty, got shape {A.shape}")
    return A


def adjugate(A) -> np.ndarray:
    """Adjugate of a square matrix from signed cofactors; adj(A) A = det(A) I.

    Computed entrywise from batched (n-1) x (n-1) minors, with no division,
    so singular input is fine.  The 1 x 1 adjugate is the identity.
    """
    A = _as_square(A)
    n = A.shape[0]
    if n == 1:
        return np.ones((1, 1))
    # compound()'s LU-stack minors, reversed so that row and column i omit index i
    minors = _minors(A, n - 1, ())[::-1, ::-1]
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
    A = _as_square(A)
    n = A.shape[0]
    if n == 1:
        return np.ones((1, 1))
    S, P = sign_reversal_pair(n)
    return S @ P @ compound(A, n - 1).T @ P @ S
