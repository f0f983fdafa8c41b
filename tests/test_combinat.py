from itertools import combinations

import numpy as np
import pytest

from compound_kit import (
    IndexTuple,
    InvalidArgumentError,
    binom,
    incidence_matrix,
    indexof_tuple,
    lex_tuples,
    unrank_tuple,
    wedge_matrix,
)
from compound_kit.combinat import (
    MAX_TUPLE_COUNT, _signed_contraction, _signed_take, _signed_wedge,
)
from compound_kit.testkit import indexof_by_search


def test_lex_tuples_small():
    got = [t.entries for t in lex_tuples(3, 2)]
    assert got == [(1, 2), (1, 3), (2, 3)]


def test_lex_tuples_four_choose_two():
    got = [t.entries for t in lex_tuples(4, 2)]
    assert got == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_lex_tuples_full_grade_is_single():
    assert [t.entries for t in lex_tuples(5, 5)] == [(1, 2, 3, 4, 5)]


def test_lex_tuples_sorted_and_complete():
    tuples = [t.entries for t in lex_tuples(7, 3)]
    assert tuples == sorted(tuples)
    assert len(set(tuples)) == binom(7, 3)


def test_indexof_matches_printed_example():
    assert indexof_tuple(IndexTuple((1, 3, 4), 4)) == 3


def test_indexof_endpoints():
    assert indexof_tuple(IndexTuple((1, 2, 3), 9)) == 1
    assert indexof_tuple(IndexTuple((7, 8, 9), 9)) == binom(9, 3)


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (7, 1), (7, 7), (10, 4)])
def test_indexof_against_linear_search(n, k):
    for t in lex_tuples(n, k):
        assert indexof_tuple(t) == indexof_by_search(t)


@pytest.mark.parametrize("n,k", [(5, 2), (6, 4), (8, 3)])
def test_unrank_roundtrip(n, k):
    for i in range(1, binom(n, k) + 1):
        t = unrank_tuple(i, n, k)
        assert t.ambient == n and t.grade == k
        assert indexof_tuple(t) == i


def test_unrank_printed_example():
    assert unrank_tuple(3, 4, 3).entries == (1, 3, 4)


def test_index_tuple_validation():
    with pytest.raises(InvalidArgumentError):
        IndexTuple((2, 1), 3)
    with pytest.raises(InvalidArgumentError):
        IndexTuple((1, 1), 3)
    with pytest.raises(InvalidArgumentError):
        IndexTuple((0, 1), 3)
    with pytest.raises(InvalidArgumentError):
        IndexTuple((1, 4), 3)


def test_lex_tuples_rejects_bad_grades():
    with pytest.raises(InvalidArgumentError):
        lex_tuples(3, 4)
    with pytest.raises(InvalidArgumentError):
        lex_tuples(3, 0)


def test_unrank_rejects_out_of_range():
    with pytest.raises(InvalidArgumentError):
        unrank_tuple(0, 4, 2)
    with pytest.raises(InvalidArgumentError):
        unrank_tuple(7, 4, 2)


def test_binom_cap():
    assert binom(20, 3) == 1140
    with pytest.raises(InvalidArgumentError):
        binom(100, 50)
    # the cap itself is allowed
    assert MAX_TUPLE_COUNT >= binom(30, 5)


def test_incidence_matrix_printed_example():
    L = incidence_matrix(3, 2)
    assert np.array_equal(L.entries, [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert L.rows == 3 and L.cols == 3 and L.subset_size == 2


def test_incidence_matrix_k_one_is_identity():
    assert np.array_equal(incidence_matrix(5, 1).entries, np.eye(5))


def test_incidence_matrix_row_and_column_sums():
    L = incidence_matrix(6, 3)
    assert np.all(L.entries.sum(axis=1) == 3)
    # each index appears in binom(r-1, k-1) subsets
    assert np.all(L.entries.sum(axis=0) == binom(5, 2))


@pytest.mark.parametrize("r,k", [(3, 2), (5, 2), (5, 4), (6, 3), (7, 5)])
def test_incidence_matrix_full_column_rank(r, k):
    L = incidence_matrix(r, k).entries.astype(float)
    assert np.linalg.matrix_rank(L) == r


def test_incidence_matrix_rejects_k_not_below_r():
    with pytest.raises(InvalidArgumentError):
        incidence_matrix(3, 3)
    with pytest.raises(InvalidArgumentError):
        incidence_matrix(3, 0)


def test_incidence_rows_follow_lex_tuples():
    L = incidence_matrix(5, 2)
    for row, t in zip(L.entries, lex_tuples(5, 2)):
        assert np.array_equal(np.nonzero(row)[0] + 1, np.array(t.entries))


# --- the signed maps, against enumerations that read none of combinat's tables ---


def _ranks(n, k):
    return {t: i for i, t in enumerate(combinations(range(n), k))}


def _encode(rank, sign, total):
    """A gather index into ``[x; -x; 0]`` with x of ``total`` entries."""
    return rank + (total if sign < 0 else 0)


@pytest.mark.parametrize("n", range(1, 10))
def test_signed_tables_match_an_enumeration_with_explicit_signs(n):
    for k in range(1, n + 1):
        upper, lower = _ranks(n, k), _ranks(n, k - 1)
        # (a, S) -> S + {a}, walked from the (k-1)-tuples S
        unfolding = np.full((n, len(lower)), 2 * len(upper))
        for S, j in lower.items():
            for a in set(range(n)) - set(S):
                T = tuple(sorted(S + (a,)))
                unfolding[a, j] = _encode(upper[T], (-1) ** T.index(a), len(upper))
        # (T, a) -> T - {a}, walked from the k-tuples T
        wedge = np.full((len(upper), n), 2 * len(lower))
        for T, i in upper.items():
            for p, a in enumerate(T):
                wedge[i, a] = _encode(lower[T[:p] + T[p + 1 :]], (-1) ** p, len(lower))
        got = (_signed_contraction(n, k), _signed_wedge(n, k))
        for table, want in zip(got, (unfolding, wedge)):
            assert table.dtype == np.intp
            assert np.array_equal(table, want), (n, k)


def test_signed_take_matches_an_explicit_loop():
    rng = np.random.default_rng(14)
    index = rng.integers(0, 2 * 5 + 1, size=(3, 4))
    index[0, :3] = (4, 5, 10)  # x, -x and the zero
    for x in (rng.standard_normal(5), rng.standard_normal((5, 2))):
        want = np.zeros(index.shape + x.shape[1:])
        for pos in np.ndindex(index.shape):
            i = index[pos]
            if i < 5:
                want[pos] = x[i]
            elif i < 10:
                want[pos] = -x[i - 5]
        assert np.array_equal(_signed_take(x, index), want)


@pytest.mark.parametrize("n", range(2, 9))
def test_wedge_matrix_is_the_map_x_wedge_z_entry_by_entry(n):
    rng = np.random.default_rng(n)
    for k in range(1, n):
        lower = _ranks(n, k)
        z = rng.standard_normal(len(lower))
        want = np.zeros((binom(n, k + 1), n))
        # e_j ^ e_S = (-1)^#{s in S : s < j} e_{S + {j}}
        for i, I in enumerate(combinations(range(n), k + 1)):
            for j in I:
                S = tuple(s for s in I if s != j)
                want[i, j] = (-1) ** sum(s < j for s in S) * z[lower[S]]
        assert np.array_equal(wedge_matrix(z, n, k).data, want), (n, k)
