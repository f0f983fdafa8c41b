import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from compound_kit import (
    DegenerateInputError,
    InvalidArgumentError,
    adjugate,
    adjugate_via_compound,
    binom,
    compound,
    is_decomposable,
    lex_tuples,
    sign_reversal_pair,
    wedge,
    wedge_matrix,
)
from compound_kit.exterior import _GATHER_ENTRIES, _compound_plan, _levels, _minors
from compound_kit.testkit import MAX_ORACLE_GRADE, load_fixtures, reference_compound


@pytest.fixture(scope="module")
def reference4():
    fx = load_fixtures()["recovery-4x4"]
    return fx.inputs["A"], fx.inputs["M"]


def test_compound_matches_integer_example(reference4):
    A, M = reference4
    assert_allclose(compound(A, 2), M, rtol=0, atol=1e-9)


def test_compound_matches_oracle_exactly(reference4):
    A, M = reference4
    assert np.array_equal(reference_compound(A, 2), M)


def test_compound_against_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, m = rng.integers(2, 7, size=2)
        k = int(rng.integers(1, min(n, m, MAX_ORACLE_GRADE) + 1))
        X = rng.standard_normal((n, m))
        assert_allclose(compound(X, k), reference_compound(X, k), rtol=1e-10, atol=1e-12)


def test_compound_first_order_is_identity_map():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 5))
    assert_allclose(compound(X, 1), X, rtol=0, atol=0)


def test_compound_of_identity():
    assert_allclose(compound(np.eye(4), 2), np.eye(6), rtol=0, atol=1e-14)


def test_compound_shape():
    X = np.arange(30.0).reshape(5, 6)
    assert compound(X, 3).shape == (binom(5, 3), binom(6, 3))


def test_compound_rejects_bad_grade():
    with pytest.raises(InvalidArgumentError):
        compound(np.eye(3), 4)
    with pytest.raises(InvalidArgumentError):
        compound(np.eye(3), 0)
    with pytest.raises(InvalidArgumentError):
        compound(np.ones(3), 1)


def sliced_minors(X, k):
    """Every k x k minor of X by np.linalg.det of its sliced block, lex order."""
    rows = list(combinations(range(X.shape[0]), k))
    cols = list(combinations(range(X.shape[1]), k))
    # det warns of a division by zero on a singular block whose elimination
    # meets a subnormal pivot (such as 1e-224 * 4e-100), and returns its 0
    with np.errstate(divide="ignore"):
        return np.array([[np.linalg.det(X[np.ix_(I, J)]) for J in cols] for I in rows])


def minor_tolerance(X, k):
    # forward error bound of a k x k determinant: a few ulps per term of
    # the k! terms of size at most max|X|^k
    return 1e-13 * math.factorial(k) * max(1.0, float(np.max(np.abs(X)))) ** k


@st.composite
def matrix_and_grade(draw, max_side=7):
    n = draw(st.integers(1, max_side))
    m = draw(st.integers(1, max_side))
    k = draw(st.integers(1, min(n, m)))
    X = draw(arrays(np.float64, (n, m), elements=st.floats(-4, 4, allow_subnormal=False)))
    return X, k


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrix_and_grade())
def test_compound_matches_sliced_determinants(case):
    # both orientations (n < m and n > m) and every k from 1 to min(n, m)
    X, k = case
    assert_allclose(compound(X, k), sliced_minors(X, k), rtol=0, atol=minor_tolerance(X, k))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrix_and_grade(), st.data())
def test_every_seed_level_matches_sliced_determinants(case, data):
    # both kernels, whichever the cost model picks: seed 1 is the Laplace
    # levels built from X's rows, seed k the LU stack of all k x k blocks
    X, k = case
    assume(k > 1)
    if X.shape[0] > X.shape[1]:
        X = X.T
    n, m = X.shape
    seed = data.draw(st.sampled_from((1, k)), label="seed")
    got = _minors(X, k, () if seed == k else _levels(n, m, k))
    assert_allclose(got, sliced_minors(X, k), rtol=0, atol=minor_tolerance(X, k))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrix_and_grade(), st.data())
def test_gathered_and_block_steps_agree_at_every_seed(case, data):
    # every level forced to one step kind: both match the sliced
    # determinants, and since both add an entry's s products in the same
    # order they agree to the last bit
    X, k = case
    assume(k > 1)
    if X.shape[0] > X.shape[1]:
        X = X.T
    n, m = X.shape
    seed = data.draw(st.sampled_from((1, k)), label="seed")
    gathered = () if seed == k else _levels(n, m, k, gather_entries=2**62)
    block = () if seed == k else _levels(n, m, k, gather_entries=0)
    assert all(level.gather is not None for level in gathered)
    assert all(level.gather is None for level in block)
    got = _minors(X, k, gathered)
    assert_allclose(got, sliced_minors(X, k), rtol=0, atol=minor_tolerance(X, k))
    assert np.array_equal(got, _minors(X, k, block))


@pytest.mark.parametrize(
    "shape, k, seed",
    [((13, 13), 5, 1), ((10, 10), 5, 1), ((9, 12), 4, 1), ((4, 4), 2, 1), ((5, 5), 4, 4),
     ((18, 18), 17, 17), ((4, 4), 3, 3), ((16, 23), 16, 16)],
)
def test_compound_plan_seed_choice(shape, k, seed):
    # seed 1, the Laplace levels 2..k, where the levels stay small; seed k,
    # the plain LU stack with no levels, at 4x4 and 5x5 with
    # k >= min(n, m) - 1 and for k near min(n, m), where the levels pass
    # through binom(18, 9).  At 16x23 k=16 the model prices the levels
    # lower, but they pass binom(23, 11) = 1,352,078 column sets, above
    # MAX_TUPLE_COUNT, so the plan is the LU stack (62,760,192 entries,
    # under MAX_ARRAY_ENTRIES)
    assert [level.grade for level in _compound_plan(*shape, k)] == list(range(seed + 1, k + 1))


@pytest.mark.parametrize("shape, k", [((6, 6), 3), ((8, 8), 4), ((5, 7), 3), ((7, 5), 3), ((9, 6), 4)])
def test_compound_of_integer_matrix_is_exact(shape, k):
    # through the levels every minor is a sum of products of small integers,
    # exact in float64; a batched LU determinant rounds
    n, m = shape
    assert len(_compound_plan(min(n, m), max(n, m), k)) == k - 1  # levels 2..k, not LU
    X = np.random.default_rng(n * m + k).integers(-9, 10, size=shape).astype(float)
    assert np.array_equal(compound(X, k), reference_compound(X, k))


@pytest.mark.parametrize("shape, k", [((4, 4), 2), ((5, 5), 3), ((6, 6), 4)])
def test_gathered_seed_one_is_exact_on_integer_matrices(shape, k):
    # shapes the gathered steps moved from the LU stack to the levels, where
    # every minor is a sum of products of small integers, exact in float64
    assert len(_compound_plan(*shape, k)) == k - 1  # levels 2..k, not the LU stack
    X = np.random.default_rng(shape[0] * 10 + k).integers(-9, 10, size=shape).astype(float)
    assert np.array_equal(compound(X, k), reference_compound(X, k))


def test_gathered_steps_stay_under_the_cap():
    for n in range(2, 14):
        for m in range(n, 16):
            for k in range(2, n + 1):
                for level in _compound_plan(n, m, k):
                    if level.gather is not None:
                        assert level.gather.weights.size <= _GATHER_ENTRIES
    # 13 x 15 at k = 2: level 2 has 2 * 78 * 105 = 16380 products, just
    # under the cap; the step holds its two gathers and nothing larger
    (level,) = _compound_plan(13, 15, 2)
    assert level.gather.weights.size == level.gather.below.size == 16380
    X = np.random.default_rng(15).standard_normal((13, 15))
    compound(X, 2)  # build the cached plan outside the measurement
    tracemalloc.start()
    try:
        C = compound(X, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * _GATHER_ENTRIES + C.nbytes


def test_compound_peak_memory_is_a_small_multiple_of_the_output():
    X = np.random.default_rng(14).standard_normal((13, 13))
    compound(X, 5)  # build the cached plan outside the measurement
    tracemalloc.start()
    try:
        C = compound(X, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * C.nbytes


def _take_peaks(source, indices):
    """Peak traced bytes of ``source.take(index, axis=1)`` for each index, and the last output."""
    peaks = []
    for index in indices:
        tracemalloc.start()
        try:
            out = source.take(index, axis=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks, out


def test_block_step_reads_its_face_index_in_place():
    # np.take copies a read-only or strided index array on every call, so a
    # block step reading read-only face ranks, or a strided column of the
    # tuple array, would copy binom(m, s) indices each time; the shared face
    # ranks and tuple columns stay writeable and contiguous instead
    level = _levels(8, 16, 4, gather_entries=0)[-1]
    index = level.faces[1]
    assert level.faces.flags.writeable
    below = np.random.default_rng(17).standard_normal((1, math.comb(16, 3)))
    read_only = index.copy()
    read_only.flags.writeable = False
    peaks, out = _take_peaks(below, (index, read_only))
    assert out.nbytes == index.nbytes  # one row: the output is as large as the index
    assert peaks[0] < out.nbytes + index.nbytes // 2
    assert peaks[1] >= out.nbytes + index.nbytes  # the copy this avoids

    # the column take: one row of the lead, indexed by the p-th entries of
    # the column tuples
    column = level.cols[1]
    assert level.cols.shape == (4, math.comb(16, 4))
    assert column.flags.writeable and column.flags.c_contiguous
    assert level.cols is _levels(8, 16, 4, gather_entries=0)[-1].cols  # shared
    strided = np.array(list(combinations(range(16), 4)), dtype=np.intp)[:, 1]
    assert not strided.flags.c_contiguous and np.array_equal(strided, column)
    lead = np.random.default_rng(18).standard_normal((1, 16))
    peaks, out = _take_peaks(lead, (column, strided))
    assert out.nbytes == column.nbytes
    assert peaks[0] < out.nbytes + column.nbytes // 2
    assert peaks[1] >= out.nbytes + column.nbytes  # the copy this avoids


def test_lu_stack_does_not_warn_on_a_subnormal_pivot():
    # the block on rows (0, 2, 3) is singular (a zero row), and its
    # elimination meets the subnormal pivot 8e-224 * 4e-100, where
    # np.linalg.det warns of a division by zero; tier-1 makes that an error
    X = np.zeros((5, 3))
    X[0, 0], X[0, 2], X[2, 2], X[3, 0] = 8.25653623e-224, 1.0, 4.09997950e-100, 1.0
    assert _compound_plan(3, 5, 3) == ()  # the LU stack
    assert_allclose(compound(X, 3), sliced_minors(X, 3), rtol=0, atol=minor_tolerance(X, 3))


def test_compound_refuses_oversized_arrays_before_allocating():
    # binom(40, 5) = 658008 index sets pass the tuple cap, but the output
    # alone would hold 4.3e11 entries
    with pytest.raises(InvalidArgumentError, match="above the cap"):
        compound(np.ones((40, 40)), 5)


def test_wedge_basis_vectors():
    e = np.eye(4)
    z = wedge(e[:, 0], e[:, 1])
    want = np.zeros(6)
    want[0] = 1.0  # coordinate of the (1,2) tuple
    assert_allclose(z, want, rtol=0, atol=0)


def test_wedge_dependent_vectors_vanish():
    u = np.array([1.0, -2.0, 3.0, 0.5])
    assert_allclose(wedge(u, 2 * u), np.zeros(6), rtol=0, atol=1e-14)


def test_wedge_antisymmetry():
    rng = np.random.default_rng(5)
    u, v, w = rng.standard_normal((3, 5))
    assert_allclose(wedge(u, v, w), -wedge(v, u, w), rtol=1e-12, atol=1e-14)
    assert_allclose(wedge(u, v, w), wedge(v, w, u), rtol=1e-12, atol=1e-14)


def test_wedge_matches_compound_columns():
    rng = np.random.default_rng(6)
    U = rng.standard_normal((6, 3))
    C = compound(U, 3)
    assert_allclose(wedge(U[:, 0], U[:, 1], U[:, 2]), C[:, 0], rtol=1e-12, atol=1e-14)


def test_wedge_matrix_structure_against_entry_rule():
    # n = 4, k = 2: rows indexed by triples, built straight from the rule
    z = np.array([3.0, -1.0, 2.0, 5.0, -4.0, 7.0])  # coords of (1,2),(1,3),...,(3,4)
    W = wedge_matrix(z, 4, 2)
    z12, z13, z14, z23, z24, z34 = z
    want = np.array(
        [
            [z23, -z13, z12, 0.0],  # row (1,2,3)
            [z24, -z14, 0.0, z12],  # row (1,2,4)
            [z34, 0.0, -z14, z13],  # row (1,3,4)
            [0.0, z34, -z24, z23],  # row (2,3,4)
        ]
    )
    assert_allclose(W.data, want, rtol=0, atol=0)
    assert W.ambient == 4 and W.grade == 2


def test_wedge_matrix_entry_rule_at_large_ambient_dimension():
    # n = 22, k = 15: base-n keys of the 15-tuples pass 2^63, so this checks
    # that tuple ranks stay exact far from the small cases above
    n, k = 22, 15
    rank_of = {t: i for i, t in enumerate(combinations(range(n), k))}
    z = np.random.default_rng(8).standard_normal(len(rank_of))
    want = np.zeros((binom(n, k + 1), n))
    for i, I in enumerate(combinations(range(n), k + 1)):
        for pos, j in enumerate(I):
            want[i, j] = (-1.0 if pos % 2 else 1.0) * z[rank_of[I[:pos] + I[pos + 1 :]]]
    assert_allclose(wedge_matrix(z, n, k).data, want, rtol=0, atol=0)


def test_wedge_matrix_realizes_wedge_with_z():
    rng = np.random.default_rng(7)
    for _ in range(20):
        u, v, w = rng.standard_normal((3, 6))
        z = wedge(u, v, w)
        Wz = wedge_matrix(z, 6, 3)
        x = rng.standard_normal(6)
        assert_allclose(Wz.data @ x, wedge(x, u, v, w), rtol=1e-10, atol=1e-12)


def test_wedge_matrix_kernel_is_factor_span():
    u = np.eye(4)[:, 0]
    v = np.eye(4)[:, 1]
    res = is_decomposable(wedge(u, v), 4, 2)
    assert res.decomposable
    span = res.kernel @ res.kernel.T
    assert_allclose(span @ u, u, rtol=0, atol=1e-12)
    assert_allclose(span @ v, v, rtol=0, atol=1e-12)


def test_wedge_matrix_rejects_zero_and_bad_length():
    with pytest.raises(DegenerateInputError):
        wedge_matrix(np.zeros(6), 4, 2)
    with pytest.raises(InvalidArgumentError):
        wedge_matrix(np.ones(5), 4, 2)


def test_is_decomposable_rejects_reference_vector():
    fx = load_fixtures()["non-decomposable-q"]
    res = is_decomposable(fx.inputs["q"], 4, 2)
    assert not res.decomposable
    assert res.kernel.shape[1] < 2


def test_is_decomposable_accepts_random_wedges():
    rng = np.random.default_rng(8)
    for _ in range(10):
        u, v = rng.standard_normal((2, 5))
        res = is_decomposable(wedge(u, v), 5, 2)
        assert res.decomposable and res.kernel.shape == (5, 2)


def test_is_decomposable_zero_vector():
    res = is_decomposable(np.zeros(6), 4, 2)
    assert not res.decomposable
    assert res.kernel.shape == (4, 0)


def test_adjugate_identity_and_diagonal():
    assert_allclose(adjugate(np.eye(3)), np.eye(3), rtol=0, atol=0)
    got = adjugate(np.diag([2.0, 3.0, 5.0]))
    assert_allclose(got, np.diag([15.0, 10.0, 6.0]), rtol=0, atol=1e-12)


def test_adjugate_one_by_one():
    assert_allclose(adjugate(np.array([[7.0]])), np.array([[1.0]]), rtol=0, atol=0)
    assert_allclose(adjugate_via_compound(np.array([[7.0]])), np.array([[1.0]]), rtol=0, atol=0)


def test_adjugate_fundamental_identity():
    rng = np.random.default_rng(9)
    for n in (2, 3, 4, 5):
        A = rng.standard_normal((n, n))
        assert_allclose(adjugate(A) @ A, np.linalg.det(A) * np.eye(n), rtol=1e-10, atol=1e-10)


def test_adjugate_of_singular_matrix():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    got = adjugate(A)
    assert_allclose(got @ A, np.zeros((2, 2)), rtol=0, atol=1e-12)
    assert_allclose(got, [[4.0, -2.0], [-2.0, 1.0]], rtol=0, atol=1e-12)


def test_adjugate_via_compound_agrees():
    rng = np.random.default_rng(10)
    for n in (2, 3, 4, 6):
        A = rng.standard_normal((n, n))
        assert_allclose(adjugate_via_compound(A), adjugate(A), rtol=1e-10, atol=1e-12)


def test_adjugate_does_not_warn_on_a_subnormal_pivot():
    # a singular 3 x 3 block whose elimination meets the subnormal pivot
    # 8e-224 * 4e-100; tier-1 turns the warning of det into an error.  The
    # compound's cofactors come from an SVD, and the LU minors' from
    # elimination, so the two differ in the subnormal minor 3.4e-323
    A = np.array([[1, 0, 0, 0], [0, 8.25653623e-224, 0, 1], [0, 0, 0, 0], [0, 1, 4.0999795e-100, 0]])
    want = adjugate(A)
    assert np.linalg.norm(adjugate_via_compound(A) - want) <= 1e-15 * np.linalg.norm(want)


def test_double_adjugate_identities():
    rng = np.random.default_rng(12)
    for n in (3, 4, 5):
        A = rng.standard_normal((n, n))
        double = adjugate(adjugate(A))
        assert_allclose(double, compound(compound(A, n - 1), n - 1), rtol=1e-9, atol=1e-9)
        assert_allclose(double, np.linalg.det(A) ** (n - 2) * A, rtol=1e-9, atol=1e-9)


def test_sign_reversal_pair_properties():
    for n in (1, 2, 3, 4, 5, 6):
        S, P = sign_reversal_pair(n)
        assert_allclose(P @ P, np.eye(n), rtol=0, atol=0)
        assert_allclose(S @ P, (P @ S).T, rtol=0, atol=0)
        assert_allclose((S @ P) @ (S @ P), (-1.0) ** (n + 1) * np.eye(n), rtol=0, atol=0)
        assert np.linalg.det(S) == pytest.approx((-1.0) ** (n * (n + 1) / 2))


def test_compound_row_indexing_follows_lex_tuples():
    # entry (I, J) must be the minor on rows I, cols J
    rng = np.random.default_rng(13)
    X = rng.standard_normal((5, 5))
    C = compound(X, 2)
    rows = lex_tuples(5, 2)
    i = next(p for p, t in enumerate(rows) if t.entries == (2, 4))
    j = next(p for p, t in enumerate(rows) if t.entries == (1, 5))
    sub = X[np.ix_([1, 3], [0, 4])]
    assert C[i, j] == pytest.approx(np.linalg.det(sub))


def _exact_determinant(rows):
    """Determinant of a square list of Fraction rows by exact elimination."""
    a = [row[:] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        pivot = next((i for i in range(c, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            factor = a[i][c] / a[c][c]
            for j in range(c + 1, len(a)):
                a[i][j] -= factor * a[c][j]
    return det


def _exact_compound(X, k):
    """compound(X, k) of the float input X, every minor in exact rational arithmetic."""
    entries = [[Fraction(float(v)) for v in row] for row in X]
    n, m = X.shape
    return np.array(
        [
            [float(_exact_determinant([[entries[i][j] for j in J] for i in I]))
             for J in combinations(range(m), k)]
            for I in combinations(range(n), k)
        ]
    )


@pytest.mark.parametrize(
    "n,k,cond",
    [
        (6, 5, 1e6),
        (6, 5, 1e10),
        (7, 4, 1e8),
        (7, 6, 1e12),
    ],
    ids=["6x6-k5-cond-1e6", "6x6-k5-cond-1e10", "7x7-k4-cond-1e8", "7x7-k6-cond-1e12"],
)
def test_compound_relative_accuracy_on_graded_spectra(n, k, cond):
    # X = U diag(1 .. 1/cond) V^T with a geometric spectrum; the normwise
    # relative error against exact minors of the same float input must stay
    # within 1e-14 * cond, what a backward-stable minor kernel achieves
    rng = np.random.default_rng(3)
    U = np.linalg.qr(rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)))[0]
    X = U @ np.diag(cond ** (-np.arange(n) / (n - 1))) @ V.T
    exact = _exact_compound(X, k)
    error = np.linalg.norm(compound(X, k) - exact) / np.linalg.norm(exact)
    assert error <= 1e-14 * cond
