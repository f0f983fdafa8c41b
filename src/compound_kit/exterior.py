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
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .combinat import binom
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
    faces = binom(n, k - 1)
    rows = np.zeros((n, faces), dtype=np.intp)
    signs = np.zeros((n, faces))
    for pos in range(k):
        face = _lex_rank(np.delete(tuples, pos, axis=1), n)
        rows[tuples[:, pos], face] = np.arange(tuples.shape[0])
        signs[tuples[:, pos], face] = -1.0 if pos % 2 else 1.0
    rows.flags.writeable = False
    signs.flags.writeable = False
    return rows, signs


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

    Notes
    -----
    All minors are evaluated as one batched LU determinant over a
    (binom(n,k), binom(m,k), k, k) stack, so the cost is one pass of dense
    k x k factorizations rather than Python-level recursion.
    """
    X = _as_float_matrix(X)
    n, m = X.shape
    if not 1 <= k <= min(n, m):
        raise InvalidArgumentError(f"need 1 <= k <= min(n, m) = {min(n, m)}, got k={k}")
    if k == 1:
        # the 1x1 minors are the entries themselves; skip the det stack so
        # the first compound is exactly the input
        return X.copy()
    rows = _tuple_array(n, k)
    cols = _tuple_array(m, k)
    blocks = X[rows[:, None, :, None], cols[None, :, None, :]]
    return np.linalg.det(blocks)


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
