"""Lexicographic index tuples, combinadic ranking, and subset incidence.

Rows and columns of a k-th compound matrix are indexed by the strictly
increasing k-tuples over ``1..n`` in lexicographic order.  This module owns
that indexing: enumeration, closed-form rank/unrank, the 0/1 incidence
matrix between k-subsets and singletons used by the singular-value solver,
and the cached index tables that the compound kernel, the wedge matrices
and the signed contractions read.  The public tuples are 1-based; the cached
tables are 0-based, over ``range(n)``.

The signed maps between k- and (k-1)-vectors are the (k-1)-contraction
``(a, S) -> S + {a}`` of :func:`_signed_contraction` and its transpose, the
wedge map ``(T, a) -> T - {a}`` of :func:`_signed_wedge`, each cached on its
own.  Both are read through :func:`_signed_take`, the one place that stacks
``[x; -x; 0]`` and gathers from it.

The cached tables are shared by every caller but stay writeable, because
``np.take`` copies a read-only (or strided) index array on every call.
Callers must not modify them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .errors import InvalidArgumentError

__all__ = [
    "IndexTuple",
    "SubsetIncidence",
    "binom",
    "incidence_matrix",
    "indexof_tuple",
    "lex_tuples",
    "unrank_tuple",
]

#: Cap on binom(n, k) for any one enumerated index set.  It bounds each
#: index set, not the product of two of them; :data:`MAX_ARRAY_ENTRIES`
#: bounds the arrays a compound is built in.
MAX_TUPLE_COUNT = 10**6
#: Cap on the entries of the largest array :func:`compound_kit.exterior.compound`
#: would allocate (2**26 float64 entries is 512 MiB); larger requests are
#: refused with InvalidArgumentError before anything is allocated.
MAX_ARRAY_ENTRIES = 2**26


def binom(n: int, k: int) -> int:
    """Binomial coefficient with the :data:`MAX_TUPLE_COUNT` cap enforced."""
    if n < 0 or k < 0:
        raise InvalidArgumentError(f"binomial arguments must be nonnegative, got ({n}, {k})")
    value = math.comb(n, k)
    if value > MAX_TUPLE_COUNT:
        raise InvalidArgumentError(
            f"binom({n}, {k}) = {value} exceeds the supported cap of {MAX_TUPLE_COUNT}"
        )
    return value


@dataclass(frozen=True)
class IndexTuple:
    """A strictly increasing tuple of 1-based indices within a fixed ambient size."""

    entries: tuple[int, ...]
    ambient: int

    def __post_init__(self) -> None:
        k = len(self.entries)
        if not 1 <= k <= self.ambient:
            raise InvalidArgumentError(
                f"tuple length {k} must lie in 1..{self.ambient}"
            )
        if self.entries[0] < 1 or self.entries[-1] > self.ambient:
            raise InvalidArgumentError(
                f"entries {self.entries} out of range 1..{self.ambient}"
            )
        if any(a >= b for a, b in zip(self.entries, self.entries[1:])):
            raise InvalidArgumentError(f"entries {self.entries} are not strictly increasing")

    @property
    def grade(self) -> int:
        return len(self.entries)


def lex_tuples(n: int, k: int) -> tuple[IndexTuple, ...]:
    """All strictly increasing k-tuples over ``1..n`` in lexicographic order."""
    if not 1 <= k <= n:
        raise InvalidArgumentError(f"need 1 <= k <= n, got k={k}, n={n}")
    binom(n, k)
    return tuple(IndexTuple(c, n) for c in combinations(range(1, n + 1), k))


def indexof_tuple(t: IndexTuple) -> int:
    """1-based lexicographic rank of ``t`` among the k-tuples over its ambient range.

    Closed form: rank = binom(n, k) - sum_i binom(n - t_i, k - i + 1), no
    enumeration; it is :func:`_lex_rank` of the 0-based tuple, plus one.
    Inverse of :func:`unrank_tuple`.
    """
    return int(_lex_rank(np.array([t.entries]) - 1, t.ambient)[0]) + 1


def unrank_tuple(i: int, n: int, k: int) -> IndexTuple:
    """The k-tuple over ``1..n`` at 1-based lexicographic rank ``i``.

    Greedy digit-by-digit: each entry is the smallest value whose suffix count
    covers the remaining rank.
    """
    total = binom(n, k)
    if not 1 <= i <= total:
        raise InvalidArgumentError(f"rank {i} out of range 1..{total}")
    remaining = i - 1
    entries = []
    prev = 0
    for pos in range(k):
        v = prev + 1
        while True:
            count = math.comb(n - v, k - pos - 1)
            if remaining < count:
                break
            remaining -= count
            v += 1
        entries.append(v)
        prev = v
    return IndexTuple(tuple(entries), n)


@dataclass(frozen=True)
class SubsetIncidence:
    """0/1 matrix with rows the k-subsets of ``1..r`` (lex order) and columns singletons."""

    entries: np.ndarray
    subset_size: int

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def incidence_matrix(r: int, k: int) -> SubsetIncidence:
    """Subset-incidence matrix: entry (I, j) is 1 exactly when j is in I.

    Each row has k ones.  For 1 <= k < r the matrix has full column rank over
    the reals, which makes the log-linear singular-value system solvable.
    """
    if not 1 <= k < r:
        raise InvalidArgumentError(f"need 1 <= k < r, got k={k}, r={r}")
    entries = np.zeros((binom(r, k), r), dtype=np.uint8)
    np.put_along_axis(entries, _tuple_array(r, k), 1, axis=1)
    return SubsetIncidence(entries=entries, subset_size=k)


@lru_cache(maxsize=None)
def _tuple_columns(n: int, k: int) -> np.ndarray:
    """The entries of the k-tuples over range(n) by position, shape (k, binom(n, k)).

    One contiguous array, so that each row is an index ``np.take`` reads in
    place.
    """
    total = binom(n, k)
    entries = chain.from_iterable(combinations(range(n), k))
    return np.fromiter(entries, dtype=np.intp, count=total * k).reshape(total, k).T.copy()


def _tuple_array(n: int, k: int) -> np.ndarray:
    """The k-tuples over range(n) as a (binom(n, k), k) array, lex order.

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
    i-th k-tuple with its entry at position p removed.
    """
    tuples = _tuple_array(n, k)
    return np.stack([_lex_rank(np.delete(tuples, p, axis=1), n) for p in range(k)])


@lru_cache(maxsize=None)
def _signed_contraction(n: int, k: int) -> np.ndarray:
    """The signed (k-1)-contraction ``(a, S) -> S + {a}``, a gather index for :func:`_signed_take`.

    Shape (n, binom(n, k-1)), indexed by ``a`` and the rank of a
    (k-1)-tuple S.  Gathered from F with ``total = binom(n, k)`` rows it is
    ``(-1)^p F[S + {a}]``, where p is the position of ``a`` in ``S + {a}``,
    and 0 where ``a`` is in S.  So an entry is the rank of ``S + {a}``, plus
    ``total`` at odd p, and ``2 * total`` (the zero) where ``a`` is in S.
    """
    tuples, faces = _tuple_array(n, k), _face_ranks(n, k)
    total = tuples.shape[0]
    index = np.full((n, binom(n, k - 1)), 2 * total, dtype=np.intp)
    for p in range(k):
        index[tuples[:, p], faces[p]] = np.arange(total) + total * (p % 2)
    return index


@lru_cache(maxsize=None)
def _signed_wedge(n: int, k: int) -> np.ndarray:
    """The signed wedge map ``(T, a) -> T - {a}``, a gather index for :func:`_signed_take`.

    Shape (binom(n, k), n), indexed by the rank of a k-tuple T and ``a``.
    Gathered from a (k-1)-vector z with ``total = binom(n, k-1)`` entries it
    is the matrix of ``x -> x ^ z``: ``(-1)^p z[T - {a}]`` where
    ``a = T[p]``, and 0 where ``a`` is not in T.  So an entry is the rank of
    ``T - {a}``, plus ``total`` at odd p, and ``2 * total`` where ``a`` is
    not in T.  It is the transpose map of :func:`_signed_contraction`,
    cached apart from it because it is ``(n - k + 1) / k`` times as large
    and most callers read only the contraction.
    """
    tuples, faces = _tuple_array(n, k), _face_ranks(n, k)
    total, rows = binom(n, k - 1), np.arange(tuples.shape[0])
    index = np.full((tuples.shape[0], n), 2 * total, dtype=np.intp)
    for p in range(k):
        index[rows, tuples[:, p]] = faces[p] + total * (p % 2)
    return index


def _signed_take(x: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``[x; -x; 0]``, stacked along x's first axis, gathered at a signed map's index.

    The one signed gather of the package; the result has shape
    ``index.shape + x.shape[1:]``.
    """
    signed = np.concatenate((x, -x, np.zeros((1,) + x.shape[1:])))
    return signed.take(index, axis=0)
