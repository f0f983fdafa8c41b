"""Lexicographic index tuples, combinadic ranking, and subset incidence.

Rows and columns of a k-th compound matrix are indexed by the strictly
increasing k-tuples over ``1..n`` in lexicographic order.  This module owns
that indexing: enumeration, closed-form rank/unrank, and the 0/1 incidence
matrix between k-subsets and singletons used by the singular-value solver.
Tuples are 1-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvalidArgumentError

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
    enumeration.  Inverse of :func:`unrank_tuple`.
    """
    n, k = t.ambient, t.grade
    rank = binom(n, k)
    for i, v in enumerate(t.entries):
        rank -= math.comb(n - v, k - i)
    return rank


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
    rows = binom(r, k)
    entries = np.zeros((rows, r), dtype=np.uint8)
    for row, subset in enumerate(combinations(range(r), k)):
        entries[row, list(subset)] = 1
    return SubsetIncidence(entries=entries, subset_size=k)
