import inspect
import math
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from compound_kit import (
    CompoundKitError,
    DecompositionFailedError,
    InconsistentCompoundValuesError,
    InvalidArgumentError,
    NotCompoundDecomposableError,
    OrderingFailedError,
    PreprocessingFailedError,
    RankDeficientFamily,
    RankOneFamily,
    TolerancePolicy,
    UniqueUpToSign,
    VerificationFailedError,
    align_and_sign_adjust,
    closed_form_inverse_nminus1,
    compound,
    family_contains,
    gf2_solve,
    infer_base_rank,
    inverse_compound,
    is_decomposable,
    least_squares,
    order_compound_singular_values,
    preprocess_distinct,
    rank_one_inverse,
    reconstruction_residual,
    recover_singular_values,
    reduced_svd,
    wedge_decompose,
)
from compound_kit import recovery
from compound_kit.reference import _exhaustive_sign_vector
from compound_kit.combinat import incidence_matrix
from compound_kit.testkit import load_fixtures, random_rank_r


def sign_error(got, want):
    scale = np.linalg.norm(want)
    return min(np.linalg.norm(got - want), np.linalg.norm(got + want)) / scale


def _hand_over(patch):
    """Make rung 1 refuse every input, so that the SVD route (rung 2) decides it alone."""

    def refuse(*args):
        raise DecompositionFailedError("rung 1 refuses every input here")

    patch.setattr(recovery, "_contract", refuse)


@pytest.fixture(scope="module")
def recovery4():
    fx = load_fixtures()["recovery-4x4"]
    return fx


# --- infer_base_rank ---


def test_infer_base_rank_binomials():
    assert infer_base_rank(3, 2) == 3
    assert infer_base_rank(6, 2) == 4
    assert infer_base_rank(10, 3) == 5
    assert infer_base_rank(5, 1) == 5
    assert infer_base_rank(1, 2) == 2


def _graded_4x4_k2():
    # an exact compound whose smallest singular values, products of two
    # source values down to 1e-16, fall below the SVD rank cutoff: the count
    # 5 is no binomial, and "not a k-compound" would be a false certificate
    A = random_rank_r(4, 4, 4, seed=0, spectrum=1e8 ** (-np.arange(4) / 3))
    return A, compound(A, 2)


def test_graded_compound_is_not_certified_as_a_non_compound():
    # rung 1 reads r from its contraction and answers from the r design
    # products, so the SVD rank count is never consulted
    A, M = _graded_4x4_k2()
    result = inverse_compound(M, 4, 4, 2)
    assert result.report.route == "contraction"
    assert sign_error(result.outcome.A, A) <= 1e-12 * 1e8


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 5: rung 2 reads r from a binomial count of the SVD rank, whose "
    "cutoff drops the smallest compound singular values of a graded source",
)
def test_graded_compound_is_not_certified_as_a_non_compound_by_the_svd_rung(monkeypatch):
    _hand_over(monkeypatch)
    _, M = _graded_4x4_k2()
    try:
        inverse_compound(M, 4, 4, 2)
    except CompoundKitError as err:
        assert err.tag != NotCompoundDecomposableError.tag, str(err)


def test_infer_base_rank_rejects_non_binomial():
    with pytest.raises(NotCompoundDecomposableError):
        infer_base_rank(5, 2)
    with pytest.raises(NotCompoundDecomposableError):
        infer_base_rank(7, 3)


# --- preprocess_distinct ---


def test_preprocess_noop_when_values_distinct(recovery4):
    M = recovery4.inputs["M"]
    res = preprocess_distinct(M, 4, 2)
    assert not res.used
    assert res.resamples == 0
    assert_allclose(res.Q, np.eye(4))
    assert res.M_tilde is M or np.array_equal(res.M_tilde, M)


@pytest.mark.parametrize(
    "M", [np.zeros((6, 6)), np.outer(np.arange(1.0, 7.0), np.ones(6))], ids=["zero", "rank-one"]
)
def test_preprocess_leaves_rank_at_most_one_alone(M):
    res = preprocess_distinct(M, 4, 2)
    assert_allclose(res.Q, np.eye(4), rtol=0, atol=0)
    assert res.M_tilde is M
    assert not res.used
    assert res.resamples == 0


def test_preprocess_separates_identity():
    res = preprocess_distinct(np.eye(6), 4, 2)
    assert res.used
    assert 1 <= res.resamples <= 16
    sigma = reduced_svd(res.M_tilde).sigma
    gaps = (sigma[:-1] - sigma[1:]) / sigma[0]
    assert np.all(gaps >= TolerancePolicy().gap_rtol)
    # M_tilde must stay equal to compound(Q, k) @ M
    assert_allclose(res.M_tilde, compound(res.Q, 2) @ np.eye(6), rtol=1e-12, atol=1e-12)


def test_preprocess_deterministic_per_seed():
    p = TolerancePolicy(rng_seed=5)
    res1 = preprocess_distinct(np.eye(6), 4, 2, p)
    res2 = preprocess_distinct(np.eye(6), 4, 2, p)
    assert np.array_equal(res1.Q, res2.Q)
    other = preprocess_distinct(np.eye(6), 4, 2, TolerancePolicy(rng_seed=6))
    assert not np.array_equal(res1.Q, other.Q)


def test_preprocess_gives_up_on_truly_degenerate_spectrum():
    # a rank-one compound has a single singular value and trivially separated
    # gaps, so force failure differently: demand an absurd gap
    policy = TolerancePolicy(gap_rtol=0.9, max_resample=3)
    with pytest.raises(PreprocessingFailedError):
        preprocess_distinct(np.eye(6), 4, 2, policy)



class _FixedFirstDraw:
    """A generator whose first draw is ``first`` and whose later draws are Gaussian."""

    def __init__(self, seed, first):
        self._rng = np.random.default_rng(seed)
        self._first = first

    def standard_normal(self, shape):
        if self._first is not None:
            first, self._first = self._first, None
            return first
        return self._rng.standard_normal(shape)


def _fixed_first_policy(first):
    """The default policy, with a generator whose first draw is ``first``."""

    class Policy(TolerancePolicy):
        def rng(self):
            return _FixedFirstDraw(self.rng_seed, first)

    return Policy()


@pytest.mark.parametrize(
    "first",
    [np.zeros((4, 4)), np.diag([1.0, 1.0, 1.0, 5e-10])],
    ids=["singular", "rank-drifts"],
)
def test_resampling_skips_a_singular_draw(first, monkeypatch):
    # M = I is the compound of every orthogonal A, so its spectrum needs a
    # draw; the first draw is skipped and the next one separates it.  Rung 1
    # takes a single draw, so it hands over, and rung 2's second draw answers.
    # The zero draw is skipped as singular.  diag(1, 1, 1, 5e-10) passes that
    # test (cutoff 4e-10), but its compound has three singular values of
    # 5e-10, below the SVD cutoff of 6e-10: the rank drifts from 6 to 3 and
    # rung 2's draw is unusable
    policy = _fixed_first_policy(first)
    for patched in (False, True):
        with monkeypatch.context() as patch:
            if patched:
                _hand_over(patch)
            result = inverse_compound(np.eye(6), 4, 4, 2, policy)
        report = result.report
        assert isinstance(result.outcome, UniqueUpToSign)
        assert report.route == "svd"
        assert report.preprocessing_used and report.resample_count == 2
        assert reconstruction_residual(result.outcome.A, np.eye(6), 2) <= 1e-8


@pytest.mark.parametrize(
    "policy,n,k,singular",
    [
        (TolerancePolicy(), 4, 2, []),
        (TolerancePolicy(rng_seed=7), 5, 3, []),
        (TolerancePolicy(rng_seed=11, rank_rtol=1e-12), 6, 2, []),
        (_fixed_first_policy(np.zeros((4, 4))), 4, 2, [1]),
    ],
    ids=["seed-0-4x4-k2", "seed-7-5x5-k3", "seed-11-6x6-k2", "fixed-first-singular"],
)
def test_cached_draws_replay_the_policy_stream(policy, n, k, singular):
    # the compound of each Q comes from a cache keyed on Q's bytes; every
    # draw must be the one a fresh policy.rng() gives at that attempt, with a
    # singular draw skipped at the same attempt, whether the cache is filled
    # by this call or by an earlier one
    M = np.random.default_rng(n + k).standard_normal((math.comb(n, k), 3))
    draws = 5
    want, skipped, drawn = [], [], []
    rng = policy.rng()
    for attempt in range(1, draws + 1):
        Q = rng.standard_normal((n, n))
        drawn.append(Q)
        if np.linalg.matrix_rank(Q) < n:
            skipped.append(attempt)
            continue
        want.append(compound(Q, k) @ M)
    for _ in range(2):
        seen = []  # seen.append returns None: no draw is usable, so all are taken
        with pytest.raises(PreprocessingFailedError):
            recovery._resample(M, (None, np.ones(2)), n, k, policy, seen.append, draws)
        assert [got.tobytes() for got in seen] == [array.tobytes() for array in want]
    assert skipped == singular
    before = recovery._kept_draw.cache_info()
    for Q in drawn:
        kept = recovery._kept_draw(Q.tobytes(), n, k)
        assert kept[0].tobytes() == Q.tobytes()
        assert not any(array.flags.writeable for array in kept)
    assert recovery._kept_draw.cache_info().misses == before.misses


@pytest.mark.parametrize("seed", [[1, 2], np.array([1, 2])], ids=["list", "array"])
def test_sequence_seeds_draw_one_stream(seed):
    # any seed default_rng takes works: the kept draws are keyed by Q's
    # bytes, not by the policy, and one seed gives one answer
    first = inverse_compound(np.eye(6), 4, 4, 2, TolerancePolicy(rng_seed=seed))
    again = inverse_compound(np.eye(6), 4, 4, 2, TolerancePolicy(rng_seed=[1, 2]))
    assert first.report.preprocessing_used
    assert first.outcome.A.tobytes() == again.outcome.A.tobytes()


def test_draws_of_large_compounds_are_not_kept():
    # a kept draw holds a binom(n, k)-square compound, so the compounds of
    # draws above _CACHED_DRAW_ROWS rows are built afresh, and the cache
    # stays bounded
    n, k, policy = 11, 5, TolerancePolicy()
    assert math.comb(n, k) > recovery._CACHED_DRAW_ROWS
    M = np.eye(math.comb(n, k), 2)
    rng = policy.rng()
    want = [compound(rng.standard_normal((n, n)), k) @ M for _ in range(2)]
    seen = []
    before = recovery._kept_draw.cache_info()
    with pytest.raises(PreprocessingFailedError):
        recovery._resample(M, (None, np.ones(2)), n, k, policy, seen.append, 2)
    after = recovery._kept_draw.cache_info()
    assert [got.tobytes() for got in seen] == [array.tobytes() for array in want]
    assert (after.hits, after.misses, after.currsize) == (
        before.hits, before.misses, before.currsize,
    )


def test_preprocessing_hands_out_its_own_Q():
    # M = I at 4x4 k=2 needs a draw in both rungs and in preprocess_distinct,
    # all of the same Q, whose kept draw they share; the Q handed out is a
    # writable copy, so writing to it changes no later answer
    M = np.eye(6)
    before = inverse_compound(M, 4, 4, 2).outcome.A
    pre = preprocess_distinct(M, 4, 2)
    assert pre.used and pre.Q.flags.writeable
    pre.Q[:] = 0.0
    assert inverse_compound(M, 4, 4, 2).outcome.A.tobytes() == before.tobytes()
    generic = compound(np.random.default_rng(131).standard_normal((4, 4)), 2)
    pre = preprocess_distinct(generic, 4, 2)
    assert not pre.used and pre.Q.flags.writeable
    assert np.array_equal(pre.Q, np.eye(4))


# --- wedge_decompose ---


@pytest.mark.parametrize(
    "n,r,k",
    [
        (4, 3, 2),  # pairwise branch
        (5, 4, 2),
        (6, 4, 3),  # one contraction step
        (6, 5, 4),  # iterated contraction
        (7, 5, 3),
        (5, 3, 1),  # kernels are already lines
        (6, 2, 1),
    ],
)
def test_wedge_decompose_recovers_frame(n, r, k):
    rng = np.random.default_rng(100 * n + 10 * r + k)
    U = np.linalg.qr(rng.standard_normal((n, r)))[0]
    Z = compound(U, k)
    got = wedge_decompose(Z, n, r, k)
    assert got.shape == (n, r)
    # each true column appears among the outputs up to sign
    for i in range(r):
        errs = [sign_error(got[:, j], U[:, i]) for j in range(r)]
        assert min(errs) <= 1e-8


def test_wedge_decompose_works_for_non_orthogonal_frames():
    rng = np.random.default_rng(4)
    U = rng.standard_normal((5, 3))
    U /= np.linalg.norm(U, axis=0)
    Z = compound(U, 2)
    got = wedge_decompose(Z, 5, 3, 2)
    for i in range(3):
        assert min(sign_error(got[:, j], U[:, i]) for j in range(3)) <= 1e-8


def test_wedge_decompose_rejects_non_decomposable_column():
    Z = np.zeros((6, 3))
    Z[:, 0] = [1, 0, 0, 0, 0, 1] / np.sqrt(2)  # not a wedge
    Z[:, 1] = [1, 0, 0, 0, 0, 0]
    Z[:, 2] = [0, 1, 0, 0, 0, 0]
    from compound_kit import DecompositionFailedError

    with pytest.raises(DecompositionFailedError):
        wedge_decompose(Z, 4, 3, 2)


def test_wedge_decompose_shape_validation():
    with pytest.raises(InvalidArgumentError):
        wedge_decompose(np.ones((6, 3)), 4, 2, 2)  # k must stay below r
    with pytest.raises(InvalidArgumentError):
        wedge_decompose(np.ones((6, 2)), 4, 3, 2)  # wrong column count


# --- order_compound_singular_values / recover_singular_values ---


def test_order_compound_values_reference_example(recovery4):
    M = recovery4.inputs["M"]
    V_hat = recovery4.expected["V_hat"]
    d = order_compound_singular_values(M, V_hat, 2)
    # printed V_hat carries 2-decimal rounding, entering the quadratic form
    # twice; measured deviation is ~0.4 so 1.0 is a safe documented bound
    assert_allclose(d, [79.80, 62.12, 45.01], rtol=0, atol=1.0)


def test_order_compound_values_exact_factor(recovery4):
    M = recovery4.inputs["M"]
    U, s, Vt = np.linalg.svd(recovery4.inputs["A"])
    d = order_compound_singular_values(M, U[:, :3], 2)
    products = [s[0] * s[1], s[0] * s[2], s[1] * s[2]]
    assert_allclose(d, products, rtol=1e-10, atol=1e-10)


def test_order_compound_values_tracks_column_order(recovery4):
    M = recovery4.inputs["M"]
    U, s, _ = np.linalg.svd(recovery4.inputs["A"])
    shuffled = U[:, [2, 0, 1]]
    d = order_compound_singular_values(M, shuffled, 2)
    # lex tuples over shuffled columns: (s3 s1, s3 s2, s1 s2)
    assert_allclose(d, [s[2] * s[0], s[2] * s[1], s[0] * s[1]], rtol=1e-10, atol=1e-10)


def test_order_compound_values_rejects_inconsistent_factor():
    M = load_fixtures()["recovery-4x4"].inputs["M"]
    with pytest.raises(OrderingFailedError):
        order_compound_singular_values(M, np.zeros((4, 3)), 2)


def test_recover_singular_values_exact():
    sigma = np.array([10.0, 7.5, 5.0, 2.0])
    d = np.diag(compound(np.diag(sigma), 2))
    got = recover_singular_values(d, 4, 2)
    assert_allclose(got, sigma, rtol=1e-12, atol=1e-12)


def test_recover_singular_values_rejects_non_products():
    # r = 3, k = 2 is a square system and fits anything; corrupt an
    # overdetermined one instead
    sigma = np.array([4.0, 3.0, 2.0, 1.0])
    d = np.diag(compound(np.diag(sigma), 2)).copy()
    d[0] *= 1.5
    with pytest.raises(InconsistentCompoundValuesError):
        recover_singular_values(d, 4, 2)


def test_recover_singular_values_validates_input():
    with pytest.raises(InvalidArgumentError):
        recover_singular_values([1.0, -2.0, 3.0], 3, 2)
    with pytest.raises(InvalidArgumentError):
        recover_singular_values([1.0, 2.0], 3, 2)


# --- align_and_sign_adjust ---


def make_svd_factors(A, r):
    U, s, Vt = np.linalg.svd(A)
    return U[:, :r], s[:r], Vt[:r].T


def test_align_reproduces_signed_compound(recovery4):
    A = recovery4.inputs["A"]
    M = recovery4.inputs["M"]
    L, s, R = make_svd_factors(M, 3)
    # hand the aligner deliberately scrambled frames
    V0 = make_svd_factors(A, 3)[0]
    W0 = make_svd_factors(A, 3)[2]
    V_hat = V0[:, [1, 2, 0]] * np.array([1, -1, -1])
    W_hat = W0[:, [2, 0, 1]] * np.array([-1, 1, -1])
    aligned = align_and_sign_adjust(V_hat, W_hat, L, R, s, 2)
    sigma = np.linalg.svd(A, compute_uv=False)[:3]
    recomposed = aligned.V_tilde @ np.diag(sigma) @ aligned.W_tilde.T
    assert sign_error(recomposed, A) <= 1e-10


def test_align_fails_on_wrong_frame(recovery4):
    M = recovery4.inputs["M"]
    L, s, R = make_svd_factors(M, 3)
    rng = np.random.default_rng(2)
    bogus = np.linalg.qr(rng.standard_normal((4, 3)))[0]
    from compound_kit import AlignmentFailedError, InconsistentCompoundValuesError, OrderingFailedError

    with pytest.raises(
        (AlignmentFailedError, InconsistentCompoundValuesError, OrderingFailedError)
    ):
        align_and_sign_adjust(bogus, bogus, L, R, s, 2)


def test_exhaustive_sign_search_matches_gf2(recovery4):
    A = recovery4.inputs["A"]
    M = recovery4.inputs["M"]
    L, s, R = make_svd_factors(M, 3)
    V_hat = make_svd_factors(A, 3)[0] * np.array([-1, 1, -1])
    W_hat = make_svd_factors(A, 3)[2] * np.array([1, -1, -1])
    fast = align_and_sign_adjust(V_hat, W_hat, L, R, s, 2)
    slow = align_and_sign_adjust(V_hat, W_hat, L, R, s, 2, exhaustive_sign_search=True)
    sigma = np.linalg.svd(A, compute_uv=False)[:3]
    for aligned in (fast, slow):
        recomposed = aligned.V_tilde @ np.diag(sigma) @ aligned.W_tilde.T
        assert sign_error(recomposed, A) <= 1e-10


def test_exhaustive_sign_vector_oracle():
    inc = incidence_matrix(4, 2).entries
    rng = np.random.default_rng(14)
    for _ in range(5):
        x_true = rng.integers(0, 2, size=4).astype(np.uint8)
        b = (inc @ x_true) % 2
        x = _exhaustive_sign_vector(inc, b)
        assert x is not None
        assert np.array_equal((inc @ x) % 2, b)
    assert _exhaustive_sign_vector(np.eye(2, dtype=np.uint8), np.array([1, 1])) is not None


# --- inverse_compound: unique branch ---


def test_inverse_reference_4x4(recovery4):
    A, M = recovery4.inputs["A"], recovery4.inputs["M"]
    result = inverse_compound(M, 4, 4, 2)
    assert isinstance(result.outcome, UniqueUpToSign)
    assert result.outcome.sign_ambiguous  # k = 2 is even
    assert sign_error(result.outcome.A, A) <= 1e-9
    assert result.report.inferred_r == 3
    assert result.report.reconstruction_residual <= 1e-8
    assert not result.report.preprocessing_used
    assert result.report.route == "contraction"
    assert set(result.report.stage_timings) >= {
        "preprocess", "frames", "singular_values", "compose", "verify"
    }


def test_inverse_odd_grade_recovers_exact_sign():
    for seed in range(5):
        A = random_rank_r(6, 5, 4, seed=seed)
        M = compound(A, 3)
        result = inverse_compound(M, 6, 5, 3)
        assert not result.outcome.sign_ambiguous
        assert_allclose(result.outcome.A, A, rtol=0, atol=1e-8)


def test_inverse_even_grade_sign_ambiguous():
    A = random_rank_r(5, 5, 4, seed=7)
    M = compound(A, 2)
    out = inverse_compound(M, 5, 5, 2).outcome
    assert out.sign_ambiguous
    assert sign_error(out.A, A) <= 1e-9
    # -A is an equally valid preimage
    assert_allclose(compound(-out.A, 2), M, rtol=1e-9, atol=1e-9)


def test_inverse_canonical_sign():
    A = random_rank_r(4, 4, 3, seed=3)
    M = compound(A, 2)
    got = inverse_compound(M, 4, 4, 2, canonical_sign=True).outcome.A
    flat = got.ravel(order="F")
    first = flat[np.abs(flat) > 1e-12][0]
    assert first > 0
    assert sign_error(got, A) <= 1e-9



def test_canonicalize_sign_flips_only_a_negative_first_entry():
    # the first column-major entry, -1e-13, is below the cutoff
    # rank_rtol * max|A|, so the sign follows the next one, -3
    policy = TolerancePolicy()
    A = np.array([[-1e-13, 2.0], [-3.0, 1.0]])
    got = recovery._canonicalize_sign(A, policy)
    assert np.array_equal(got, -A)
    assert np.array_equal(recovery._canonicalize_sign(-A, policy), got)
    flat = got.ravel(order="F")
    assert flat[np.abs(flat) > policy.rank_rtol * np.abs(flat).max()][0] > 0
    zero = np.zeros((2, 3))
    assert np.array_equal(recovery._canonicalize_sign(zero, policy), zero)

def test_inverse_determinism():
    A = random_rank_r(5, 5, 3, seed=11, spectrum=[3.0, 2.0, 2.0])
    M = compound(A, 2)
    policy = TolerancePolicy(rng_seed=9)
    first = inverse_compound(M, 5, 5, 2, policy).outcome.A
    second = inverse_compound(M, 5, 5, 2, policy).outcome.A
    assert np.array_equal(first, second)


def test_inverse_seed_invariance_up_to_sign():
    A = random_rank_r(4, 4, 4, seed=2, spectrum=[4.0, 2.0, 2.0, 1.0])
    M = compound(A, 2)
    outs = [
        inverse_compound(M, 4, 4, 2, TolerancePolicy(rng_seed=s)).outcome.A for s in (1, 2, 3)
    ]
    for out in outs:
        assert sign_error(out, A) <= 1e-8


def test_inverse_k_equals_one_returns_input():
    A = random_rank_r(5, 4, 3, seed=13)
    result = inverse_compound(A, 5, 4, 1)
    assert_allclose(result.outcome.A, A, rtol=0, atol=1e-10)
    assert not result.outcome.sign_ambiguous


def test_inverse_rejects_non_compound_rank():
    rng = np.random.default_rng(19)
    M = rng.standard_normal((6, 6))  # rank 6 = binom(4,2): passes rank gate,
    M = M @ M.T + 6 * np.eye(6)  # but columns are nowhere near wedges
    with pytest.raises(VerificationFailedError):
        inverse_compound(M, 4, 4, 2)


def test_inverse_rejects_impossible_rank():
    # rank 5 is not binom(r, 2) for any r
    X = random_rank_r(6, 6, 5, seed=23)
    M_like = np.zeros((15, 15))
    M_like[:6, :6] = X
    with pytest.raises(NotCompoundDecomposableError):
        inverse_compound(M_like, 6, 6, 2)


def test_inverse_shape_validation():
    with pytest.raises(InvalidArgumentError):
        inverse_compound(np.eye(5), 4, 4, 2)
    with pytest.raises(InvalidArgumentError):
        inverse_compound(np.eye(6), 4, 4, 5)


def test_inverse_rectangular_shapes():
    for (n, m, r, k) in [(6, 4, 3, 2), (4, 6, 4, 3), (7, 5, 4, 2)]:
        A = random_rank_r(n, m, r, seed=n + m + r + k)
        M = compound(A, k)
        out = inverse_compound(M, n, m, k).outcome
        assert out.A.shape == (n, m)
        assert sign_error(out.A, A) <= 1e-8


# --- rank-one and rank-deficient branches ---


def test_rank_one_reference_pair():
    fx = load_fixtures()["rank-one-3x3"]
    A, B, M = fx.inputs["A"], fx.inputs["B"], fx.inputs["M"]
    family = rank_one_inverse(M, 3, 3, 2)
    assert family.U.shape == (3, 2) and family.V.shape == (3, 2)
    assert_allclose(family.U.T @ family.U, np.eye(2), rtol=0, atol=1e-12)
    assert_allclose(family.V.T @ family.V, np.eye(2), rtol=0, atol=1e-12)
    assert np.all(np.diag(family.Sigma) > 0)
    assert family_contains(A, family)
    assert family_contains(B, family)
    assert not family_contains(2 * A, family)  # det(T) = 4
    assert not family_contains(np.zeros((3, 3)), family)
    assert reconstruction_residual(family.representative(), M, 2) <= 1e-8


def test_rank_one_via_dispatcher():
    fx = load_fixtures()["rank-one-3x3"]
    result = inverse_compound(fx.inputs["M"], 3, 3, 2)
    assert isinstance(result.outcome, RankOneFamily)
    assert result.report.inferred_r == 2


def test_rank_one_random_wedges():
    rng = np.random.default_rng(31)
    for n, m, k in [(4, 4, 2), (5, 4, 3), (4, 5, 2)]:
        X = rng.standard_normal((n, k))
        Y = rng.standard_normal((m, k))
        M = np.outer(compound(X, k), compound(Y, k))
        family = rank_one_inverse(M, n, m, k)
        assert family_contains(X @ Y.T, family)
        assert reconstruction_residual(family.representative(), M, k) <= 1e-8


def test_rank_one_full_grade_square():
    # k = n = m: the 1 x 1 compound is the determinant
    M = np.array([[-12.0]])
    family = rank_one_inverse(M, 3, 3, 3)
    rep = family.representative()
    assert np.linalg.det(rep) == pytest.approx(-12.0)
    candidate = np.diag([3.0, 2.0, -2.0])
    assert family_contains(candidate, family)
    assert not family_contains(np.diag([3.0, 2.0, 2.0]), family)


_NON_WEDGE = np.array([1.0, 0, 0, 0, 0, 1.0]) / np.sqrt(2)  # e0^e1 + e2^e3
_WEDGE = compound(np.random.default_rng(5).standard_normal((4, 2)), 2)[:, 0]


@pytest.mark.parametrize(
    "u, v",
    [(_NON_WEDGE, _NON_WEDGE), (_NON_WEDGE, _WEDGE), (_WEDGE, _NON_WEDGE)],
    ids=["both-sides", "left-side", "right-side"],
)
def test_rank_one_rejects_non_decomposable_vector(u, v):
    # one side that is no wedge is enough: its contraction has rank 4, so
    # its top 2 frame spans no factors and verify refuses the family
    M = np.outer(u, v)
    with pytest.raises(NotCompoundDecomposableError) as refusal:
        rank_one_inverse(M, 4, 4, 2)
    assert refusal.value.tag == "verification-failed"
    with pytest.raises(NotCompoundDecomposableError) as refusal:
        inverse_compound(M, 4, 4, 2)
    assert refusal.value.tag == "verification-failed"


def test_rank_one_rejects_higher_rank():
    M = load_fixtures()["recovery-4x4"].inputs["M"]
    with pytest.raises(InvalidArgumentError):
        rank_one_inverse(M, 4, 4, 2)


def test_zero_compound_family():
    result = inverse_compound(np.zeros((6, 6)), 4, 4, 2)
    assert isinstance(result.outcome, RankDeficientFamily)
    assert result.outcome.k == 2
    assert_allclose(result.outcome.representative(), np.zeros((4, 4)))
    assert result.report.reconstruction_residual == 0.0



@pytest.mark.parametrize("residual_rtol", [2.0, 1e-8])
def test_nonzero_compound_never_gets_the_zero_family(residual_rtol):
    # rank_rtol = 0.5 puts both singular values of this M below the rank
    # cutoff, 0.5 * sigma_1 * 2; rank 0 is no binom(r, k) of a source, and a
    # nonzero M has no zero-family answer, at any residual threshold
    policy = TolerancePolicy(rank_rtol=0.5, residual_rtol=residual_rtol)
    with pytest.raises(InvalidArgumentError):
        inverse_compound([[1.0, 2.0], [3.0, 4.0]], 2, 2, 1, policy)

def test_family_contains_shape_validation():
    fx = load_fixtures()["rank-one-3x3"]
    family = rank_one_inverse(fx.inputs["M"], 3, 3, 2)
    with pytest.raises(InvalidArgumentError):
        family_contains(np.eye(4), family)


@pytest.mark.parametrize(
    "k,scale", [(2, 1e-100), (2, 1.0), (2, 1e100), (1, 1e-200), (1, 1e200)]
)
def test_family_contains_is_relative_at_every_scale(k, scale):
    # B adds a rank-one term off the family's left frame, so B has rank
    # k + 1 and no member of the family is B, however small or large the
    # family is; at k = 1 the entries themselves reach 1e+-200, whose
    # squares leave the float range
    rng = np.random.default_rng(97 + k)
    A = scale * rng.standard_normal((4, k)) @ rng.standard_normal((k, 4))
    family = inverse_compound(compound(A, k), 4, 4, k).outcome
    assert isinstance(family, RankOneFamily)
    w = rng.standard_normal(4)
    w -= family.U @ (family.U.T @ w)
    w /= np.linalg.norm(w)
    z = rng.standard_normal(4)
    B = A + 0.5 * np.abs(A).max() * np.outer(w, z / np.linalg.norm(z))
    assert np.linalg.matrix_rank(B / scale) == k + 1
    assert family_contains(A, family)
    assert not family_contains(B, family)


@pytest.mark.filterwarnings("error")
def test_family_contains_refuses_a_multiple_whose_det_overflows():
    # c A lies in the frame of A's family with det(T) = c^2, which overflows
    # at c = 1e160; the verdict is False there as it is at 1e100
    A = random_rank_r(4, 4, 2, seed=157)
    family = rank_one_inverse(compound(A, 2), 4, 4, 2)
    assert family_contains(A, family)
    for c in (1e100, 1e160):
        assert not family_contains(c * A, family)


def _wedge_factor(z, n, k):
    """X with compound(X, k) = z when the wedge-kernel oracle finds z decomposable, else None."""
    if k == n:
        X = np.eye(n)  # a single coordinate is always a wedge
    else:
        result = is_decomposable(z, n, k)
        if not result.decomposable:
            return None
        X = result.kernel.copy()
    X[:, 0] *= z @ compound(X, k)[:, 0]
    return X


@pytest.mark.parametrize("n", range(1, 7))
def test_rank_one_outcome_matches_the_wedge_kernel_oracle(n):
    # u v^T with each side a wedge or a Gaussian k-vector (decomposable too
    # at k = 1, n - 1 and n): a family exactly when both sides are wedges
    rng = np.random.default_rng(5300 + n)
    families = refusals = 0
    for m in range(1, 7):
        for k in range(1, min(n, m) + 1):
            for draw in range(4):
                u = (compound(rng.standard_normal((n, k)), k)[:, 0] if draw & 1
                     else rng.standard_normal(math.comb(n, k)))
                v = (compound(rng.standard_normal((m, k)), k)[:, 0] if draw & 2
                     else rng.standard_normal(math.comb(m, k)))
                X, Y = _wedge_factor(u, n, k), _wedge_factor(v, m, k)
                M = np.outer(u, v)
                if X is None or Y is None:
                    refusals += 1
                    with pytest.raises(NotCompoundDecomposableError):
                        inverse_compound(M, n, m, k)
                    continue
                families += 1
                result = inverse_compound(M, n, m, k)
                assert isinstance(result.outcome, RankOneFamily)
                assert result.report.route == "rank-one"
                assert family_contains(X @ Y.T, result.outcome)
    assert families > 0 and (refusals > 0 or n < 4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-150, 1e-50, 1.0, 1e50, 1e150])
@pytest.mark.parametrize("n,m,k", [(4, 4, 2), (5, 4, 3), (3, 6, 3), (6, 6, 1)])
def test_rank_one_round_trip_at_extreme_scales(n, m, k, scale):
    rng = np.random.default_rng([n, m, k])
    X, Y = rng.standard_normal((n, k)), rng.standard_normal((m, k))
    M = scale * np.outer(compound(X, k), compound(Y, k))
    A = scale ** (1.0 / k) * X @ Y.T  # compound(A, k) = M, which would overflow A's own compound
    result = inverse_compound(M, n, m, k)
    family = result.outcome
    assert isinstance(family, RankOneFamily) and result.report.route == "rank-one"
    # answered by the contraction rung: no SVD of M and no handover
    assert set(result.report.stage_timings) == {"preprocess", "rank_one", "verify"}
    assert family.U.shape == (n, k) and family.V.shape == (m, k)
    assert_allclose(family.U.T @ family.U, np.eye(k), rtol=0, atol=1e-12)
    assert_allclose(family.V.T @ family.V, np.eye(k), rtol=0, atol=1e-12)
    assert np.all(np.diag(family.Sigma) > 0)
    assert result.report.reconstruction_residual <= 1e-12
    assert family_contains(A, family)


# --- verification and closed form ---


def test_verification_failure_has_tag():
    # corrupt one entry beyond tolerance: rank structure survives, values do not
    A = random_rank_r(4, 4, 3, seed=37)
    M = compound(A, 2)
    M_bad = M.copy()
    M_bad[0, 0] *= 1 + 1e-3
    from compound_kit import NumericalFailureError

    with pytest.raises((NotCompoundDecomposableError, NumericalFailureError)) as exc_info:
        inverse_compound(M_bad, 4, 4, 2)
    assert getattr(exc_info.value, "tag", "")


def test_closed_form_matches_source():
    rng = np.random.default_rng(41)
    for n in (2, 3, 4, 5):
        A = rng.standard_normal((n, n))
        B = closed_form_inverse_nminus1(compound(A, n - 1))
        assert sign_error(B, A) <= 1e-9


def test_closed_form_rejects_singular():
    from compound_kit import SingularInputError

    M = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(SingularInputError):
        closed_form_inverse_nminus1(M)


def test_closed_form_rejects_non_compound():
    # for odd n, invertible (n-1)-compounds have positive determinant, so a
    # negative-determinant input has no preimage and must be rejected
    M = np.diag([1.0, 2.0, -3.0])
    with pytest.raises(NotCompoundDecomposableError) as refusal:
        closed_form_inverse_nminus1(M)
    assert refusal.value.tag == "verification-failed"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [1e-100, 1e100])
def test_closed_form_round_trip_at_extreme_scales(c):
    # det of the unscaled input overflows at 1e100 and underflows to 0 at 1e-100
    A = np.random.default_rng(42).standard_normal((4, 4))
    B = closed_form_inverse_nminus1(compound(c * A, 3))
    assert sign_error(B / c, A) <= 1e-10


def test_closed_form_agrees_with_pipeline():
    rng = np.random.default_rng(43)
    for _ in range(5):
        A = rng.standard_normal((4, 4))
        M = compound(A, 3)
        closed = closed_form_inverse_nminus1(M)
        piped = inverse_compound(M, 4, 4, 3).outcome.A
        assert sign_error(closed, piped) <= 1e-10


def test_reconstruction_residual_zero_matrix():
    assert reconstruction_residual(np.zeros((3, 3)), np.zeros((3, 3)), 2) == 0.0


def test_reconstruction_residual_is_scale_safe():
    # the Frobenius norms of unscaled arrays overflow to nan near 1e200 and
    # underflow to 0 near 1e-200; both would let a wrong candidate through
    rng = np.random.default_rng(47)
    A = rng.standard_normal((4, 4))
    B = rng.standard_normal((4, 4))
    for c in (1e-100, 1e100):
        M = compound(c * A, 2)
        assert reconstruction_residual(c * A, M, 2) <= 1e-14
        assert reconstruction_residual(c * B, M, 2) > 0.1
    assert reconstruction_residual(B, compound(1e100 * A, 2), 2) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.filterwarnings("error")
def test_reconstruction_residual_is_finite_where_its_squares_overflow():
    # compounds near 1e180 against M = 0, and near 1e160 against a unit-scale
    # M: the sums of squares overflow, the residuals do not
    G = np.random.default_rng(151).standard_normal((4, 4))
    got = reconstruction_residual(1e60 * G, np.zeros((4, 4)), 3)
    assert got == pytest.approx(1e180 * np.linalg.norm(compound(G, 3)), rel=1e-12)
    M = compound(np.random.default_rng(152).standard_normal((4, 4)), 2)
    want = 1e160 * np.linalg.norm(compound(G, 2) - M / 1e160) / np.linalg.norm(M)
    assert reconstruction_residual(1e80 * G, M, 2) == pytest.approx(want, rel=1e-12)


def test_residual_norm_keeps_the_bytes_of_numpy_norm():
    # the residual of every candidate whose squares stay finite is unchanged,
    # whatever the memory layout of the difference
    X = np.random.default_rng(153).standard_normal((21, 35))
    for Y in (X, X.T, np.asfortranarray(X), X[::2, 1::3], 1e140 * X, 1e-140 * X):
        assert recovery._norm(Y) == float(np.linalg.norm(Y))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("exponent", [-150, -100, -50, 0, 50, 100, 150])
def test_inverse_round_trip_across_scales(exponent):
    c = 10.0**exponent
    for n, m, r in [(4, 4, 4), (5, 4, 3)]:
        A = c * random_rank_r(n, m, r, seed=59 + n + r)
        result = inverse_compound(compound(A, 2), n, m, 2)
        assert sign_error(result.outcome.A, A) <= 1e-10
        assert result.report.reconstruction_residual <= 1e-12


# --- contraction route against the paper's wedge route ---


def reference_route(M, n, m, r, k):
    """The paper's route: wedge decomposition, alignment, log-linear sigma."""
    svd = reduced_svd(M)
    V_hat = wedge_decompose(svd.left, n, r, k)
    W_hat = wedge_decompose(svd.right, m, r, k)
    V, W = align_and_sign_adjust(V_hat, W_hat, svd.left, svd.right, svd.sigma, k)
    sigma = recover_singular_values(order_compound_singular_values(M, V, k), r, k)
    return V @ (sigma[:, None] * W.T)


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_contraction_route_matches_reference_route(r):
    # the wedge route is slow, so this grid stops at r = 6
    for k in range(1, r):
        for n, m in [(r, r), (r + 2, r + 1)]:
            A = random_rank_r(n, m, r, seed=61 + 100 * r + 10 * k + n)
            M = compound(A, k)
            got = inverse_compound(M, n, m, k).outcome.A
            want = reference_route(M, n, m, r, k)
            if k % 2:
                assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
            else:
                assert sign_error(got, want) <= 1e-9


@pytest.mark.parametrize("r", [6, 7, 8])
def test_recovery_sweep_up_to_rank_eight(r):
    # criterion 09 stops at r = 5; square, rectangular and k < r < min(n, m)
    for k in range(1, r):
        for n, m in [(r, r), (r + 1, r), (r + 2, r + 1)]:
            for seed in range(2):
                A = random_rank_r(n, m, r, seed=7919 * r + 101 * k + 11 * n + seed)
                out = inverse_compound(compound(A, k), n, m, k).outcome
                assert sign_error(out.A, A) <= 1e-7
                if k % 2:
                    assert np.linalg.norm(out.A - A) <= 1e-7 * np.linalg.norm(A)


@pytest.mark.parametrize("cond", [1e6, 1e8, 1e10])
@pytest.mark.parametrize("n,m,r", [(5, 5, 3), (6, 4, 4)])
def test_inverse_accuracy_on_ill_conditioned_sources(cond, n, m, r):
    # k = r - 1 keeps the compound's condition number equal to cond, so the
    # smallest compound singular value stays above rounding in M.  Tolerance:
    # relative error <= 1e-12 * cond, i.e. 1e-6, 1e-4 and 1e-2.  The rank
    # cutoff is lowered so that 1/cond = 1e-10 counts toward the rank.
    k = r - 1
    spectrum = cond ** (-np.arange(r) / (r - 1))  # geometric from 1 to 1/cond
    A = random_rank_r(n, m, r, seed=67 + r, spectrum=spectrum)
    M = compound(A, k)
    policy = TolerancePolicy(rank_rtol=1e-12)
    if cond == 1e10 and r == 4:
        # the first two frame vectors differ in the contraction only through
        # (sigma_1 - sigma_2) sigma_3 sigma_4, a relative gap of ~3e-7 below
        # gap_rtol; the input is refused rather than answered inaccurately
        with pytest.raises(PreprocessingFailedError):
            inverse_compound(M, n, m, k, policy)
        return
    result = inverse_compound(M, n, m, k, policy)
    assert sign_error(result.outcome.A, A) <= 1e-12 * cond


@pytest.mark.parametrize("k,draw", [(4, 5), (5, 2)])
def test_inverse_gaussian_10x10_high_grade(k, draw):
    # these draws failed the old gap test on all binom(10, k) compound
    # singular values; the contraction route only needs the 10 source values
    A = np.random.default_rng([10, k, draw]).standard_normal((10, 10))
    result = inverse_compound(compound(A, k), 10, 10, k)
    assert not result.report.preprocessing_used
    assert sign_error(result.outcome.A, A) <= 1e-7
    if k % 2:
        assert np.linalg.norm(result.outcome.A - A) <= 1e-7 * np.linalg.norm(A)


def test_inverse_full_rank_18x18_grade_17():
    # M is only 18 x 18, but the 16-tuples that index its contraction have
    # base-18 keys past 2^63; the frames must still come from the right rows
    A = np.random.default_rng(18).standard_normal((18, 18))
    result = inverse_compound(compound(A, 17), 18, 18, 17)
    assert np.linalg.norm(result.outcome.A - A) <= 1e-7 * np.linalg.norm(A)


# --- one SVD of M, cached incidence solvers ---


def _count_decompositions_of(M, monkeypatch):
    """Count np.linalg.svd calls on M itself or a positive multiple of it."""
    calls = []
    svd = np.linalg.svd
    unit = M / np.linalg.norm(M)

    def counting(X, *args, **kwargs):
        X = np.asarray(X)
        if X.shape == M.shape and np.allclose(X / np.linalg.norm(X), unit, rtol=0, atol=1e-12):
            calls.append(X.shape)
        return svd(X, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def _rank_one_compound(n, m, k, seed):
    rng = np.random.default_rng(seed)
    X, Y = rng.standard_normal((n, k)), rng.standard_normal((m, k))
    return np.outer(compound(X, k), compound(Y, k))


@pytest.mark.parametrize(
    "M,n,m,k,outcome,preprocessed,svds",
    [
        (compound(np.random.default_rng(71).standard_normal((6, 6)), 3), 6, 6, 3, UniqueUpToSign,
         False, 0),
        (np.eye(6), 4, 4, 2, UniqueUpToSign, True, 0),
        (_rank_one_compound(5, 4, 3, seed=72), 5, 4, 3, RankOneFamily, False, 0),
    ],
    ids=["generic-6x6-k3", "identity-4x4-k2", "rank-one-5x4-k3"],
)
def test_inverse_decomposes_M_once(M, n, m, k, outcome, preprocessed, svds, monkeypatch):
    # the contraction of M itself needs no SVD of M, at rank one too
    calls = _count_decompositions_of(M, monkeypatch)
    result = inverse_compound(M, n, m, k)
    assert isinstance(result.outcome, outcome)
    assert result.report.preprocessing_used == preprocessed
    assert len(calls) == svds


@pytest.mark.parametrize(
    "M,n,m,k,route,handed_over",
    [
        (compound(np.random.default_rng(133).standard_normal((5, 5)), 2), 5, 5, 2, "contraction",
         False),
        (compound(np.random.default_rng(134).standard_normal((4, 6)), 3), 4, 6, 3, "contraction",
         False),
        (compound(np.random.default_rng(135).standard_normal((6, 4)), 2), 6, 4, 2, "contraction",
         False),
        (np.eye(6), 4, 4, 2, "contraction", False),
        (_rank_one_compound(5, 4, 3, seed=136), 5, 4, 3, "rank-one", False),
        (_rank_one_compound(4, 6, 2, seed=137), 4, 6, 2, "rank-one", False),
        (compound(np.random.default_rng(138).standard_normal((4, 6)), 3), 4, 6, 3, "svd", True),
        (np.eye(6), 4, 4, 2, "svd", True),
        (_rank_one_compound(5, 4, 3, seed=139), 5, 4, 3, "rank-one", True),
    ],
    ids=[
        "rung1-square", "rung1-wide", "rung1-tall", "rung1-resampled", "rung1-rank-one",
        "rung1-rank-one-wide", "rung2-wide", "rung2-resampled", "rung2-rank-one",
    ],
)
def test_verify_reports_the_public_residual(M, n, m, k, route, handed_over, monkeypatch):
    # verify reads the max|M| taken once per recovery; its residual must be
    # reconstruction_residual's of the answer returned, to the bit, in both
    # orientations and in both rungs
    if handed_over:
        _hand_over(monkeypatch)
    result = inverse_compound(M, n, m, k)
    assert result.report.route == route
    outcome = result.outcome
    if isinstance(outcome, UniqueUpToSign):
        want = reconstruction_residual(outcome.A, M, k)
    else:
        want = reconstruction_residual(outcome.representative(), M, k)
    assert result.report.reconstruction_residual == want


def test_inverse_compound_builds_no_incidence(monkeypatch):
    built = []

    def counting(r, k):
        built.append((r, k))
        return incidence_matrix(r, k)

    monkeypatch.setattr(recovery, "incidence_matrix", counting)
    # both rungs solve the r x r design, never the binom(r, k) incidence
    for handed_over in (False, True):
        with monkeypatch.context() as patch:
            if handed_over:
                _hand_over(patch)
            A = random_rank_r(7, 6, 5, seed=73)
            out = inverse_compound(compound(A, 3), 7, 6, 3).outcome
            assert np.linalg.norm(out.A - A) <= 1e-8 * np.linalg.norm(A)
    assert built == []


def _gf2_reference(A, b):
    """The Gauss-Jordan loop gf2_solve ran before its factorization was cached."""
    work = (np.asarray(A) % 2).astype(np.uint8)
    rhs = (np.asarray(b).ravel() % 2).astype(np.uint8)
    rows, cols = work.shape
    pivot_rows = []
    row = 0
    for col in range(cols):
        pivot = next((i for i in range(row, rows) if work[i, col]), None)
        if pivot is None:
            continue
        if pivot != row:
            work[[row, pivot]] = work[[pivot, row]]
            rhs[[row, pivot]] = rhs[[pivot, row]]
        for i in range(rows):
            if i != row and work[i, col]:
                work[i] ^= work[row]
                rhs[i] ^= rhs[row]
        pivot_rows.append((row, col))
        row += 1
        if row == rows:
            break
    if np.any(rhs[row:]):
        return None
    x = np.zeros(cols, dtype=np.uint8)
    for i, c in pivot_rows:
        x[c] = rhs[i]
    return x


RANK_GRADE_PAIRS = [(r, k) for r in range(2, 10) for k in range(1, r)]


def _design_flips(r, k, b):
    """``_design_values``'s flips for sign conditions b: f and V read b's signs, sigma is 1."""
    design = recovery._design(r, k)
    lex = {T: row for row, T in enumerate(combinations(range(r), k))}
    f = np.zeros((math.comb(r, k), r))
    # each product peaks at its own set, where V = I has minor det I = 1
    f[[lex[tuple(int(j) for j in I)] for I in design.sets], np.arange(r)] = 1.0 - 2.0 * b
    sigma, flips = recovery._design_values(f, np.ones(r), np.eye(r), r, k, r)
    assert np.array_equal(sigma, np.ones(r))
    return flips


@pytest.mark.parametrize("r,k", RANK_GRADE_PAIRS)
def test_cached_parity_solver_matches_reference_elimination(r, k):
    # every right side of the design's parity system: the cached elimination
    # agrees with the plain loop, and its flips fail exactly the inconsistent
    # ones, which verify then refuses
    entries = recovery._design(r, k).entries
    inconsistent = 0
    for bits in range(2**r):
        b = ((bits >> np.arange(r)) & 1).astype(np.uint8)
        want = _gf2_reference(entries, b)
        flips = _design_flips(r, k, b)
        if want is None:
            inconsistent += 1
            assert not np.array_equal((entries @ flips) & 1, b)
        else:
            assert np.array_equal(flips, want)
    # over GF(2) the design has rank r at odd k and r - 1 at even k
    assert inconsistent == (2 ** (r - 1) if k % 2 == 0 else 0)
    L = incidence_matrix(r, k).entries
    rng = np.random.default_rng([r, k])
    for _ in range(25):
        b = ((L @ rng.integers(0, 2, size=r)) % 2).astype(np.uint8)
        assert np.array_equal(gf2_solve(L, b), _gf2_reference(L, b))
    refused = 0
    for _ in range(25):
        b = rng.integers(0, 2, size=L.shape[0]).astype(np.uint8)
        want = _gf2_reference(L, b)
        refused += want is None
        got = gf2_solve(L, b)
        assert got is None if want is None else np.array_equal(got, want)
    if L.shape[0] > r + 1:
        # at least two rows beyond the rank: a random b is consistent at most 1 time in 4
        assert refused > 0


@pytest.mark.parametrize("r,k", RANK_GRADE_PAIRS)
def test_cached_least_squares_matches_numerics(r, k):
    design = recovery._design(r, k)
    rng = np.random.default_rng([r, k, 1])
    for y in (design.entries @ rng.uniform(-3, 3, size=r), rng.uniform(-3, 3, size=r)):
        want = least_squares(design.entries, y).solution
        got = design.inverse @ y
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_cached_incidence_arrays_are_read_only():
    design = recovery._design(5, 2)
    for array in (design.entries, design.inverse, design.parity):
        with pytest.raises(ValueError):
            array[0, 0] = 0


def _orthogonal(n, seed):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return Q


@pytest.mark.parametrize(
    "A,k",
    [(np.eye(4), 2), (_orthogonal(5, 75), 2), (_orthogonal(5, 76), 3)],
    ids=["identity-4x4-k2", "orthogonal-5x5-k2", "orthogonal-5x5-k3"],
)
def test_preprocess_entry_points_share_one_loop(A, k, monkeypatch):
    n = A.shape[0]
    M = compound(A, k)
    scale = reduced_svd(M).sigma[0]
    for seed in range(10):
        policy = TolerancePolicy(rng_seed=seed)
        pre = preprocess_distinct(M / scale, n, k, policy)
        result = inverse_compound(M, n, n, k, policy)
        assert pre.used and result.report.preprocessing_used
        assert pre.resamples == result.report.resample_count
        assert sign_error(result.outcome.A, A) <= 1e-8
        # pre.M_tilde is the compound of Q A / scale^(1/k)
        A_tilde = inverse_compound(pre.M_tilde, n, n, k, policy).outcome.A
        A_pre = np.linalg.solve(pre.Q, A_tilde) * scale ** (1.0 / k)
        assert sign_error(A_pre, A) <= 1e-8
    # rung 2 alone: its resampling is preprocess_distinct's loop, draw for draw
    _hand_over(monkeypatch)
    for seed in range(10):
        policy = TolerancePolicy(rng_seed=seed)
        pre = preprocess_distinct(M / scale, n, k, policy)
        result = inverse_compound(M, n, n, k, policy)
        assert result.report.route == "svd"
        assert pre.resamples == result.report.resample_count
        assert sign_error(result.outcome.A, A) <= 1e-8


# --- row-blocked QR of the contraction unfolding ---

@pytest.mark.parametrize(
    "n,k,block",
    [(9, 4, recovery._QR_BLOCK_ROWS), (7, 3, 122)],
    ids=["9x9-k4-default-blocks", "7x7-k3-blocks-of-122"],
)
@pytest.mark.parametrize("cond", [None, 1e6], ids=["spread-1-2", "cond-1e6"])
def test_blocked_qr_matches_single_qr(n, k, block, cond, monkeypatch):
    # blocks hold whole columns of F, 2048 // 84 = 24 of them at 9x9 k=4:
    # 9x9 k=4 unfolds into 84 * 126 = 10584 rows, five blocks of 2016 and
    # one of 504.  At 7x7 k=3 blocks of 122 rows hold 5 columns of 21 rows,
    # seven blocks for 35 columns.
    spectrum = None if cond is None else cond ** (-np.arange(n) / (n - 1))
    A = random_rank_r(n, n, n, seed=90 + n, spectrum=spectrum)
    svd = reduced_svd(compound(A, k))
    F = svd.left * np.sqrt(svd.sigma / svd.sigma[0])
    rows = math.comb(n, k - 1) * F.shape[1]  # rows of E^T
    assert rows > block
    monkeypatch.setattr(recovery, "_QR_BLOCK_ROWS", rows)
    single_frame, single_values = recovery._contraction_frame(F, n, k)
    monkeypatch.setattr(recovery, "_QR_BLOCK_ROWS", block)
    frame, values = recovery._contraction_frame(F, n, k)
    assert_allclose(values, single_values, rtol=1e-13, atol=0)
    signs = np.sign(np.sum(frame * single_frame, axis=0))
    assert_allclose(frame * signs, single_frame, rtol=0, atol=1e-12)


# --- rung 1 (contractions of M itself) against rung 2 (the SVD route) ---


def _rung_one_and_two(M, n, m, k, monkeypatch, policy=TolerancePolicy()):
    """inverse_compound as it runs, and with rung 1 handing every input over."""
    first = inverse_compound(M, n, m, k, policy)
    with monkeypatch.context() as patch:
        _hand_over(patch)
        second = inverse_compound(M, n, m, k, policy)
    return first, second


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7, 8])
def test_contraction_rung_matches_svd_rung(r, monkeypatch):
    # square, rectangular both ways, and rank-deficient sources, every k < r
    for k in range(1, r):
        for n, m in [(r, r), (r + 2, r + 1), (r, r + 2), (r + 2, r + 2)]:
            A = random_rank_r(n, m, r, seed=8191 * r + 97 * k + 13 * n + m)
            first, second = _rung_one_and_two(compound(A, k), n, m, k, monkeypatch)
            assert (first.report.route, second.report.route) == ("contraction", "svd")
            assert first.report.inferred_r == second.report.inferred_r == r
            got, want = first.outcome.A, second.outcome.A
            if k % 2:
                assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
            else:
                assert sign_error(got, want) <= 1e-9


def _refusal_corpus():
    rng = np.random.default_rng(83)
    X = rng.standard_normal((6, 6))
    rank_two = compound(random_rank_r(6, 6, 2, seed=84), 3)  # rounding noise
    perturbed = compound(rng.standard_normal((6, 6)), 3)
    perturbed = perturbed + 1e-6 * np.abs(perturbed).max() * rng.standard_normal(perturbed.shape)
    impossible = np.zeros((15, 15))
    impossible[:6, :6] = random_rank_r(6, 6, 5, seed=23)  # rank 5 is no binom(r, 2)
    q = np.array([1.0, 0, 0, 0, 0, 1.0])
    return [
        ("rank-2-6x6-k3", rank_two, 6, 6, 3),
        ("gaussian-6x6-k3", rng.standard_normal((20, 20)), 6, 6, 3),
        ("gaussian-5x5-k2", rng.standard_normal((10, 10)), 5, 5, 2),
        ("perturbed-1e-6-6x6-k3", perturbed, 6, 6, 3),
        ("XXt-plus-6I-4x4-k2", X[:, :6] @ X[:, :6].T + 6 * np.eye(6), 4, 4, 2),
        ("non-binomial-rank-6x6-k2", impossible, 6, 6, 2),
        # the contraction of a 15 x 6 Gaussian M has rank 6 > min(n, m) = 4
        ("r-above-min-6x4-k2", rng.standard_normal((15, 6)), 6, 4, 2),
        # rank one: q = e12 + e34 is no wedge, and its contraction has rank 4
        ("q-qT-4x4-k2", np.outer(q, q), 4, 4, 2),
        # rank one with a wedge on the contracted side and none on the other
        ("wedge-u-gaussian-v-5x5-k2", np.outer(compound(X[:5, :2], 2), rng.standard_normal(10)),
         5, 5, 2),
    ]


@pytest.mark.parametrize("label,M,n,m,k", _refusal_corpus(), ids=[c[0] for c in _refusal_corpus()])
def test_contraction_rung_keeps_every_refusal_tag(label, M, n, m, k, monkeypatch):
    from compound_kit import CompoundKitError

    with monkeypatch.context() as patch:
        svds = _count_decompositions_of(M, patch)
        with pytest.raises(CompoundKitError) as first:
            inverse_compound(M, n, m, k)
    if label in ("q-qT-4x4-k2", "wedge-u-gaussian-v-5x5-k2"):
        # both rank-one M are no compound, and verify refuses what is built
        # for them
        assert first.value.tag == "verification-failed"
    if label == "wedge-u-gaussian-v-5x5-k2":
        assert svds == []  # verify's refusal of rung 1's family ends the run
    with monkeypatch.context() as patch:
        _hand_over(patch)
        with pytest.raises(CompoundKitError) as second:
            inverse_compound(M, n, m, k)
    if label == "non-binomial-rank-6x6-k2":
        # verify refuses rung 1's candidate, which ends the run; rung 2 alone
        # counts rank 5, which is no binom(r, 2)
        assert (first.value.tag, second.value.tag) == (
            "verification-failed", "not-compound-decomposable",
        )
        return
    assert type(first.value) is type(second.value)
    assert first.value.tag == second.value.tag


@pytest.mark.parametrize("cond", [1e6, 1e8, 1e10])
@pytest.mark.parametrize("n,m,r", [(5, 5, 3), (6, 4, 4)])
def test_ill_conditioned_sources_take_the_svd_rung(cond, n, m, r, monkeypatch):
    # the cells of test_inverse_accuracy_on_ill_conditioned_sources: the
    # squared weights of rung 1 cannot separate them, so rung 2 answers (or
    # refuses) exactly as it does alone
    k = r - 1
    spectrum = cond ** (-np.arange(r) / (r - 1))
    A = random_rank_r(n, m, r, seed=67 + r, spectrum=spectrum)
    policy = TolerancePolicy(rank_rtol=1e-12)
    if cond == 1e10 and r == 4:
        with pytest.raises(PreprocessingFailedError):
            inverse_compound(compound(A, k), n, m, k, policy)
        return
    first, second = _rung_one_and_two(compound(A, k), n, m, k, monkeypatch, policy)
    assert first.report.route == second.report.route == "svd"
    assert "contraction_attempt" in first.report.stage_timings
    assert np.array_equal(first.outcome.A, second.outcome.A)


# --- rung 1's right side: the r design products ---


@pytest.mark.parametrize(
    "n,r,k", [(4, 4, 1), (5, 4, 2), (6, 6, 3), (7, 5, 3), (7, 7, 5), (8, 6, 2), (6, 6, 5)]
)
def test_design_wedges_are_the_minors_of_the_design_columns(n, r, k):
    U = np.linalg.qr(np.random.default_rng([n, r, k]).standard_normal((n, r)))[0]
    design = recovery._design(r, k)
    # {0..k-1}, its k faces with k in lex order, then {0..k-2, i} for k < i < r
    sets = [tuple(sorted(set(range(k + 1)) - {j})) for j in range(k, -1, -1)]
    sets += [tuple(range(k - 1)) + (i,) for i in range(k + 1, r)]
    assert [tuple(int(x) for x in row) for row in design.sets] == sets
    for i, (outer, inner) in enumerate(design.pairs.T):
        assert set(sets[outer]) - set(sets[inner]) == {i}
    want = np.array(
        [[np.linalg.det(U[np.ix_(T, S)]) for S in sets] for T in combinations(range(n), k)]
    )
    assert_allclose(recovery._design_wedges(U, k, r), want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_design_right_side_reproduces_the_source(r):
    # square, r < min(n, m), and m > n, every k < r: the exact left frame
    # with arbitrary column signs gives V up to sign, sigma, and the flips
    # that carry U's signs over to V; inverse_compound answers the same
    # sources, contracting M^T where m > n
    policy = TolerancePolicy()
    for k in range(1, r):
        for n, m in [(r, r), (r + 2, r + 1), (r + 1, r + 3)]:
            rng = np.random.default_rng([r, k, n, m])
            A = random_rank_r(n, m, r, seed=int(rng.integers(2**31)))
            U, sigma, Vt = np.linalg.svd(A)
            U = U[:, :r] * rng.choice([-1.0, 1.0], size=r)
            M = compound(A, k)
            f, norms = recovery._design_products(M, U, k, r)
            V = recovery._complement_frame(f, norms, m, k, r)
            got, flips = recovery._design_values(f, norms, V, m, k, r)
            assert_allclose(got, sigma[:r], rtol=1e-12)
            assert_allclose(np.abs(np.sum(V * Vt[:r].T, axis=0)), 1.0, rtol=0, atol=1e-12)
            A_hat = U @ (np.where(flips, -got, got)[:, None] * V.T)
            assert sign_error(A_hat, A) <= 1e-12
            if k % 2:
                assert np.linalg.norm(A_hat - A) <= 1e-12 * np.linalg.norm(A)
            result = inverse_compound(M, n, m, k, policy)
            assert result.report.route == "contraction"
            assert sign_error(result.outcome.A, A) <= 1e-12


@pytest.mark.parametrize("n,m,cond", [(3, 5, 3e5), (4, 4, 1e5)])
def test_design_follows_a_rotated_left_frame(n, m, cond):
    # r = 3, k = 2: the contraction values of u_0 and u_1 differ by about
    # sigma_2^2, so the left frame turns them within their span by about
    # eps (sigma_1 / sigma_2)^2.  V's first columns must turn with them (the
    # primal basis); the complements alone are off by sigma_0 / sigma_1 more,
    # 1e-8 to 1e-7 on these sources
    for seed in range(6):
        A = random_rank_r(n, m, 3, seed=seed, spectrum=cond ** (-np.arange(3) / 2))
        result = inverse_compound(compound(A, 2), n, m, 2)
        assert result.report.route == "contraction"
        assert sign_error(result.outcome.A, A) <= 1e-9


def _count_composed(patch):
    """Wrap ``recovery._compose`` so that the candidates both rungs compose are counted."""
    composed = []
    compose = recovery._compose

    def counting(*args):
        composed.append(args[6].size)  # sigma: one candidate of that rank
        return compose(*args)

    patch.setattr(recovery, "_compose", counting)
    return composed


def _reject(kind, n, k):
    """A Gaussian or a rank-2 M at n = m, two of recover-special's reject kinds."""
    rng = np.random.default_rng([n, k, 173])
    rows = math.comb(n, k)
    if kind == "gaussian":
        return rng.standard_normal((rows, rows))
    return rng.standard_normal((rows, 2)) @ rng.standard_normal((2, rows))


@pytest.mark.parametrize("kind", ["gaussian", "rank-2"])
@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3)], ids=["4x4-k2", "5x5-k2", "6x6-k3"])
def test_a_refused_candidate_is_composed_once_per_rank(kind, n, k, monkeypatch):
    # rung 1's contraction rank is valid and verify refuses its candidate:
    # above rank one the preimage is unique up to sign, so that refusal ends
    # the run, with one candidate composed and no SVD of M, under the
    # default gap_rtol and under a larger one
    M = _reject(kind, n, k)
    composed = _count_composed(monkeypatch)
    svds = _count_decompositions_of(M, monkeypatch)
    for policy in (TolerancePolicy(), TolerancePolicy(gap_rtol=1e-4)):
        composed.clear()
        svds.clear()
        with pytest.raises(VerificationFailedError, match="reconstruction residual"):
            inverse_compound(M, n, n, k, policy)
        assert len(composed) == 1
        assert svds == []


def test_rung_two_still_counts_a_rank_that_is_no_binomial(monkeypatch):
    # rank 5 is no binom(r, 2): rung 1 refuses this M on its contraction
    # rank, 6 > min(n, m) = 4, before composing, and rung 2's rank count
    # refuses it as no compound
    M = random_rank_r(15, 6, 5, seed=12)
    composed = _count_composed(monkeypatch)
    with pytest.raises(NotCompoundDecomposableError, match="is not binom") as err:
        inverse_compound(M, 6, 4, 2)
    assert type(err.value) is NotCompoundDecomposableError
    assert composed == []


def test_a_refusal_at_another_rank_runs_rung_two_in_full(monkeypatch):
    # a verify refusal of rung 1 ends the run at the default gap_rtol, with
    # no SVD of M; under a lowered gap_rtol rung 2 composes its own
    # candidate, of the SVD's rank, and answers a true compound
    A = np.random.default_rng(167).standard_normal((5, 5))
    M = compound(A, 2)

    def refuse(M, peak, n, m, k, policy, report):
        report.inferred_r = 4
        raise VerificationFailedError("rung 1's candidate of rank 4 is refused here")

    monkeypatch.setattr(recovery, "_contract", refuse)
    composed = _count_composed(monkeypatch)
    svds = _count_decompositions_of(M, monkeypatch)
    with pytest.raises(VerificationFailedError, match="refused here"):
        inverse_compound(M, 5, 5, 2)
    assert composed == [] and svds == []
    result = inverse_compound(M, 5, 5, 2, TolerancePolicy(gap_rtol=1e-12))
    assert result.report.route == "svd"
    assert result.report.inferred_r == 5
    assert composed == [5]
    assert len(svds) == 1
    assert sign_error(result.outcome.A, A) <= 1e-12


@pytest.mark.parametrize("cond", [1e6, 1e8, 1e10, 1e12])
@pytest.mark.parametrize("n,m,r", [(5, 5, 3), (6, 4, 4)])
def test_a_lowered_gap_rtol_refuses_only_what_rung_two_refuses(cond, n, m, r, monkeypatch):
    # the sources of test_inverse_accuracy_on_ill_conditioned_sources with
    # gap_rtol lowered to 1e-12: rung 1 then composes from frames closer
    # than the default gap_rtol, and verify refuses a candidate (residual
    # 1.4e-2 at 5x5 cond 1e10) that rung 2 answers at the same r; such a
    # refusal is not rung 1's to keep
    k = r - 1
    spectrum = cond ** (-np.arange(r) / (r - 1))
    M = compound(random_rank_r(n, m, r, seed=67 + r, spectrum=spectrum), k)
    policy = TolerancePolicy(rank_rtol=1e-12, gap_rtol=1e-12)

    def outcome_or_tag():
        try:
            return type(inverse_compound(M, n, m, k, policy).outcome)
        except CompoundKitError as err:
            return err.tag

    full = outcome_or_tag()
    _hand_over(monkeypatch)
    assert full == outcome_or_tag()


def test_rung_one_refuses_non_compounds_through_verify():
    # inputs whose contraction rank passes: a perturbed compound, a Gaussian
    # M and a rank-2 M; the design products are no wedges, and nothing but
    # verify tests that, so rung 1 composes an A and verify refuses it
    rng = np.random.default_rng(127)
    exact = compound(rng.standard_normal((5, 5)), 2)
    noise = rng.standard_normal(exact.shape)
    for M in (
        exact + 1e-6 * np.linalg.norm(exact) / np.linalg.norm(noise) * noise,
        rng.standard_normal((10, 10)),
        rng.standard_normal((10, 2)) @ rng.standard_normal((2, 10)),
    ):
        report = recovery.RecoveryReport()
        with pytest.raises(VerificationFailedError, match="reconstruction residual"):
            recovery._contract(M, recovery._peak(M), 5, 5, 2, TolerancePolicy(), report)
        assert sorted(report.stage_timings) == [
            "compose", "frames", "preprocess", "singular_values", "verify",
        ]


def test_non_compounds_at_even_k_and_m_k_plus_one_get_one_tag():
    # Gaussian 6 x 3 M at n = 4, m = 3, k = 2: every k-vector of R^3 is a
    # wedge and one parity condition is free, so whether the signs read
    # consistently is chance; verify refuses every composed A alike
    tags = set()
    for seed in range(40):
        M = np.random.default_rng(seed).standard_normal((6, 3))
        with pytest.raises(CompoundKitError) as err:
            inverse_compound(M, 4, 3, 2)
        tags.add(err.value.tag)
    assert len(tags) == 1, sorted(tags)


@pytest.mark.parametrize("n,m,k", [(4, 3, 2), (5, 3, 2), (6, 3, 2), (5, 4, 3), (6, 4, 3), (5, 5, 2)])
def test_non_compound_gets_the_tag_of_its_transpose(n, m, k):
    # M^T is the compound of A^T whenever M is that of A, so a non-compound
    # and its transpose are refused alike: Gaussian M and compounds
    # perturbed by 1e-6, on shapes where a one-sided test would see one
    # side's products as wedges and the other's not
    for seed in range(20):
        rng = np.random.default_rng([n, m, k, seed])
        exact = compound(rng.standard_normal((n, m)), k)
        noise = rng.standard_normal(exact.shape)
        for M in (
            rng.standard_normal(exact.shape),
            exact + 1e-6 * np.linalg.norm(exact) / np.linalg.norm(noise) * noise,
        ):
            with pytest.raises(CompoundKitError) as err:
                inverse_compound(M, n, m, k)
            with pytest.raises(CompoundKitError) as err_t:
                inverse_compound(M.T, m, n, k)
            assert err.value.tag == err_t.value.tag, (seed, err.value, err_t.value)


def test_rung_one_compounds_only_narrow_frames(monkeypatch):
    # at 10 x 10, k = 5 the design needs compound(U[:, :6], 5); the one wide
    # compound is verify's, of the 10 x 10 candidate
    shapes = []

    def recording(X, k):
        shapes.append(np.shape(X))
        return compound(X, k)

    monkeypatch.setattr(recovery, "compound", recording)
    A = np.random.default_rng(113).standard_normal((10, 10))
    result = inverse_compound(compound(A, 5), 10, 10, 5)
    assert (result.report.route, result.report.resample_count) == ("contraction", 0)
    assert np.linalg.norm(result.outcome.A - A) <= 1e-12 * np.linalg.norm(A)
    wide = [shape for shape in shapes if shape[1] > 6]
    assert wide == [(10, 10)]
    assert len(shapes) == 2


def test_rung_two_compounds_only_narrow_frames(monkeypatch):
    # handed over, the SVD route shares the design products, so it too builds
    # only compound(U[:, :6], 5) and verify's compound of the candidate
    shapes = []

    def recording(X, k):
        shapes.append(np.shape(X))
        return compound(X, k)

    monkeypatch.setattr(recovery, "compound", recording)
    _hand_over(monkeypatch)
    A = np.random.default_rng(113).standard_normal((10, 10))
    result = inverse_compound(compound(A, 5), 10, 10, 5)
    assert (result.report.route, result.report.resample_count) == ("svd", 0)
    assert np.linalg.norm(result.outcome.A - A) <= 1e-12 * np.linalg.norm(A)
    assert shapes == [(10, 6), (10, 10)]


def _pipeline_batch():
    """(M, n, m, k) for every route of inverse_compound and for its refusals."""
    rng = np.random.default_rng(109)
    wedge = compound(rng.standard_normal((5, 2)), 2)
    return [
        (compound(random_rank_r(5, 5, 4, seed=110), 2), 5, 5, 2),  # generic
        (np.eye(6), 4, 4, 2),  # M = I, resampled
        (compound(random_rank_r(6, 4, 4, seed=111), 3), 6, 4, 3),  # rectangular
        (np.outer(wedge, compound(rng.standard_normal((5, 2)), 2)), 5, 5, 2),  # rank one
        (np.zeros((10, 10)), 5, 5, 2),
        (rng.standard_normal((10, 10)), 5, 5, 2),  # Gaussian M
        (random_rank_r(10, 10, 2, seed=112), 5, 5, 2),  # rank 2 is no binom(r, 2)
        (np.outer(rng.standard_normal(10), rng.standard_normal(10)), 5, 5, 2),
    ]


def _route_or_tag(M, n, m, k):
    try:
        result = inverse_compound(M, n, m, k)
    except CompoundKitError as err:
        return err.tag
    outcome = result.outcome
    answer = outcome.A if isinstance(outcome, UniqueUpToSign) else outcome.representative()
    return type(outcome).__name__, result.report.route, answer.tobytes()


def _forbid_reference_route(patch):
    """Rebind the reference route and its kernels to raisers in every compound_kit module."""
    from compound_kit import exterior, numerics, reference

    banned = {obj for obj in vars(reference).values()
              if inspect.isfunction(obj) and obj.__module__ == reference.__name__}
    banned |= {numerics.kernel_basis, numerics.subspace_intersection, numerics.gf2_solve,
               exterior.wedge_matrix}

    def raiser(name):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"the pipeline called {name}")
        return forbidden

    for name, module in list(sys.modules.items()):
        if name == "compound_kit" or name.startswith("compound_kit."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in banned:
                    patch.setattr(module, attr, raiser(f"{name}.{attr}"))


def test_the_pipeline_never_reaches_the_reference_route(monkeypatch):
    batch = _pipeline_batch()
    as_is = [_route_or_tag(*case) for case in batch]
    with monkeypatch.context() as patch:
        _hand_over(patch)
        handed_over = [_route_or_tag(*case) for case in batch]
    # the batch reaches every route of both rungs and refuses too
    assert {got[1] for got in as_is if isinstance(got, tuple)} == {"contraction", "rank-one", "zero"}
    assert {got[1] for got in handed_over if isinstance(got, tuple)} == {"svd", "rank-one", "zero"}
    assert any(isinstance(got, str) for got in as_is)

    _forbid_reference_route(monkeypatch)
    assert [_route_or_tag(*case) for case in batch] == as_is
    _hand_over(monkeypatch)
    assert [_route_or_tag(*case) for case in batch] == handed_over


def _whole_unfolding(F, n, k):
    """E[a, (S, p)] = eps(a, S) F[S + {a}, p], built whole from enumerated tuples.

    The signed map is rebuilt here from ``itertools.combinations`` and a dict
    of ranks, independent of the package's index tables.
    """
    rank = {t: i for i, t in enumerate(combinations(range(n), k))}
    E = np.zeros((n, math.comb(n, k - 1), F.shape[1]))
    for j, S in enumerate(combinations(range(n), k - 1)):
        for a in set(range(n)) - set(S):
            E[a, j] = (-1) ** sum(x < a for x in S) * F[rank[tuple(sorted(S + (a,)))]]
    return E.reshape(n, -1)


@pytest.mark.parametrize(
    "n,m,r,k,block",
    [(9, 9, 9, 4, recovery._QR_BLOCK_ROWS), (7, 6, 5, 3, 122), (8, 8, 6, 4, 40), (6, 7, 6, 1, 4)],
    ids=["9x9-k4-default", "7x6-r5-k3-blocks-of-122", "8x8-r6-k4-one-column-blocks", "6x7-k1"],
)
def test_blocked_unfolding_matches_single_qr_of_the_whole(n, m, r, k, block, monkeypatch):
    # rung 1's F is M itself; rung 2's is a weighted SVD factor.  Blocks of
    # 40 rows are narrower than one column of F (binom(8, 3) = 56 rows), so
    # each block holds one column.
    A = random_rank_r(n, m, r, seed=95 + n + k)
    M = compound(A, k)
    svd = reduced_svd(M)
    monkeypatch.setattr(recovery, "_QR_BLOCK_ROWS", block)
    for F in (M, svd.left * np.sqrt(svd.sigma)):
        E = _whole_unfolding(F, n, k)
        R = np.linalg.qr(E.T, mode="r")
        _, want_values, Wt = np.linalg.svd(R, full_matrices=False)
        frame, values = recovery._contraction_frame(F, n, k)
        assert_allclose(values, want_values, rtol=0, atol=1e-13 * want_values[0])
        # the top r vectors are determined up to sign; the rest span a null space
        signs = np.sign(np.sum(frame[:, :r] * Wt[:r].T, axis=0))
        assert_allclose(frame[:, :r] * signs, Wt[:r].T, rtol=0, atol=1e-10)


def test_k1_contraction_of_fewer_columns_than_rows():
    # at k = 1 the unfolding of F is F itself, so with m < n the one block
    # E^T has fewer rows than columns, and its R factor is short
    F = np.random.default_rng(132).standard_normal((6, 2))
    frame, values = recovery._contraction_frame(F, 6, 1)
    U, want, _ = np.linalg.svd(F, full_matrices=False)
    assert frame.shape == (6, 2)
    assert_allclose(values, want, rtol=1e-14, atol=0)
    assert_allclose(frame * np.sign(np.sum(frame * U, axis=0)), U, rtol=0, atol=1e-14)
    result = inverse_compound(F, 6, 2, 1)
    assert result.report.route == "contraction"
    assert reconstruction_residual(result.outcome.A, F, 1) <= 1e-14


def test_recovery_peak_memory_stays_within_four_copies_of_M():
    # the whole unfolding of this M would be 12 x 792 x 924 entries, 10x M
    import tracemalloc

    A = random_rank_r(12, 12, 8, seed=96)
    M = compound(A, 6)
    inverse_compound(M, 12, 12, 6)  # build the cached plans and tables outside the measurement
    tracemalloc.start()
    try:
        result = inverse_compound(M, 12, 12, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.report.route == "contraction"
    assert sign_error(result.outcome.A, A) <= 1e-9
    assert peak <= 4 * M.nbytes


def test_wide_k1_recovery_builds_no_table_quadratic_in_m():
    # a 1 x m compound at k = 1 reads the m x 1 signed contraction; the
    # wedge map at that grade, m x m, would be 200 MB here
    import tracemalloc

    m = 5000
    M = np.random.default_rng(98).standard_normal((1, m))
    tracemalloc.start()
    try:
        result = inverse_compound(M, 1, m, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(result.outcome, RankOneFamily)
    assert reconstruction_residual(result.outcome.representative(), M, 1) <= 1e-12
    assert peak <= 64 * M.nbytes


def _count_calls(patch, *names):
    """Wrap the named ``recovery`` functions so that their calls are listed by name."""
    called = []
    for name in names:

        def counting(*args, name=name, call=getattr(recovery, name)):
            called.append(name)
            return call(*args)

        patch.setattr(recovery, name, counting)
    return called


def _k1_input(n, m, spectrum):
    # a Gaussian M, or one whose singular values are the given pair
    rng = np.random.default_rng(99)
    if spectrum is None:
        return rng.standard_normal((n, m))
    U = np.linalg.qr(rng.standard_normal((n, 2)))[0]
    V = np.linalg.qr(rng.standard_normal((m, 2)))[0]
    return U @ np.diag(spectrum) @ V.T


@pytest.mark.parametrize(
    "n,m,spectrum",
    [(3, 1000, None), (1000, 3, None), (2, 1000, (1.0, 1.0)), (1000, 2, (1.0, 1.0))],
    ids=["wide", "tall", "wide-repeated", "tall-repeated"],
)
def test_k1_recovery_builds_nothing_quadratic_in_the_long_side(n, m, spectrum, monkeypatch):
    # compound(A, 1) = A, so M is its own preimage: no r x m x m projectors,
    # no n x n wedge table, and no draw for a repeated spectrum
    import tracemalloc

    M = _k1_input(n, m, spectrum)
    called = _count_calls(
        monkeypatch, "_resample", "_design_products", "_complement_frame", "_design_values",
        "_compose",
    )
    tracemalloc.start()
    try:
        result = inverse_compound(M, n, m, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(result.outcome, UniqueUpToSign)
    assert np.array_equal(result.outcome.A, M) and result.outcome.A is not M
    assert result.report.route == "contraction"
    assert result.report.inferred_r == (2 if spectrum else 3)
    assert result.report.resample_count == 0
    assert sorted(result.report.stage_timings) == ["preprocess", "verify"]
    assert called == []
    assert peak <= 64 * M.nbytes


def test_k1_source_near_the_rank_cutoff_is_its_own_compound(monkeypatch):
    # every matrix is its own 1-compound.  sigma_2 / sigma_1 = 5e-10 lies
    # between the rank cutoffs of the 2-row contraction (2e-10) and of the
    # 8-row SVD (8e-10); rung 1 contracts the 2-row side of M and of M^T
    # alike, so both see rank 2, and the SVD rank one
    rng = np.random.default_rng(97)
    U = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    V = np.linalg.qr(rng.standard_normal((8, 2)))[0]
    policy = TolerancePolicy()
    for M in (U @ np.diag([1.0, 5e-10]) @ V.T, V @ np.diag([1.0, 5e-10]) @ U.T):
        n, m = M.shape
        with monkeypatch.context() as patch:
            result = inverse_compound(M, n, m, 1)
            assert isinstance(result.outcome, UniqueUpToSign), M.shape
            assert result.report.route == "contraction"
            assert result.report.inferred_r == 2
            assert np.array_equal(result.outcome.A, M)
            # where the SVD calls M rank one, the family contracts its one
            # left singular vector, not all of M, whose contraction has rank 2
            family = rank_one_inverse(M, n, m, 1, policy)
            assert reconstruction_residual(family.representative(), M, 1) <= policy.residual_rtol
            _hand_over(patch)
            handed_over = inverse_compound(M, n, m, 1, policy)
            assert isinstance(handed_over.outcome, RankOneFamily)
            assert handed_over.report.route == "rank-one"


def _outcome_or_tag(M, n, m, k, policy):
    """The outcome of ``inverse_compound(M, n, m, k)``, or the tag of its refusal."""
    try:
        return inverse_compound(M, n, m, k, policy).outcome
    except CompoundKitError as err:
        return err.tag


@pytest.mark.filterwarnings("error")
@settings(
    max_examples=300, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    short=st.integers(1, 8), long=st.integers(1, 40), tall=st.booleans(),
    log_cond=st.floats(0, 12), rank_rtol=st.sampled_from([1e-10, 1e-12]),
    seed=st.integers(0, 2**32 - 1),
)
# sigma_2 / sigma_1 = 3.4e-10 at 6 x 2 lies between the cutoffs of a 2-row
# and a 6-row contraction, 2e-10 and 6e-10
@example(short=2, long=6, tall=True, log_cond=-math.log10(3.4e-10), rank_rtol=1e-10, seed=4918)
def test_k1_transposed_graded_source_gets_the_transposed_outcome(
    short, long, tall, log_cond, rank_rtol, seed
):
    # compound(A, 1) = A, so M^T's outcome is M's turned over: the same type
    # or tag, a unique answer transposed byte for byte, and a family whose
    # representative, transposed, reproduces M
    n, m = (long, short) if tall else (short, long)
    r = min(n, m)
    M = random_rank_r(n, m, r, seed, spectrum=(10.0**log_cond) ** (-np.arange(r) / max(r - 1, 1)))
    policy = TolerancePolicy(rank_rtol=rank_rtol)
    given_, turned = _outcome_or_tag(M, n, m, 1, policy), _outcome_or_tag(M.T, m, n, 1, policy)
    assert type(turned) is type(given_) and (
        not isinstance(given_, str) or turned == given_
    ), (given_, turned)
    if isinstance(given_, UniqueUpToSign):
        assert turned.A.tobytes() == given_.A.T.tobytes()
    elif isinstance(given_, RankOneFamily):
        assert reconstruction_residual(turned.representative().T, M, 1) <= policy.residual_rtol


@pytest.mark.parametrize("k", [3, 4])
def test_square_outer_product_gets_one_tag_either_way_round(k):
    # an outer product of two Gaussian vectors is rank one, and its vectors
    # are no wedges.  One orientation's rung 1 accepts a contraction rank
    # above k and composes a candidate; the other refuses its contraction
    # rank, and rung 2 builds the rank-one family.  verify refuses both,
    # which is one cause and one tag
    rows = math.comb(7, k)
    policy = TolerancePolicy()
    differing = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        M = np.outer(rng.standard_normal(rows), rng.standard_normal(rows))
        given_ = _outcome_or_tag(M, 7, 7, k, policy)
        turned = _outcome_or_tag(M.T, 7, 7, k, policy)
        if given_ != turned:
            differing.append((seed, given_, turned))
    assert differing == []


def _noise(n, m, k, seed):
    """The rounding noise of a rank k-1 source's compound: M is zero up to rounding."""
    return compound(random_rank_r(n, m, k - 1, seed), k)


@pytest.mark.parametrize(
    "kind,n,m,k",
    [("rank-2", 7, 7, 5), ("rank-2", 6, 6, 4), ("noise", 3, 3, 2), ("noise", 4, 3, 2),
     ("noise", 4, 4, 3)],
    ids=["rank-2-7x7-k5", "rank-2-6x6-k4", "noise-3x3-k2", "noise-4x3-k2", "noise-4x4-k3"],
)
def test_degenerate_design_gets_one_tag_either_way_round(kind, n, m, k):
    # in one orientation of these inputs a design product is zero, or two of
    # them span the same directions.  No design stage refuses: the candidate
    # composed from them reaches verify, which refuses it, so M and M^T get
    # one tag.  A design stage that refused would hand that orientation to
    # rung 2, which refuses it on its rank count, under another tag
    policy = TolerancePolicy()
    differing = []
    for seed in range(20):
        if kind == "rank-2":
            rng = np.random.default_rng(seed)
            left = rng.standard_normal((math.comb(n, k), 2))
            M = left @ rng.standard_normal((2, math.comb(m, k)))
        else:
            M = _noise(n, m, k, seed)
        outcomes = _outcome_or_tag(M, n, m, k, policy), _outcome_or_tag(M.T, m, n, k, policy)
        given_, turned = (o if isinstance(o, str) else type(o) for o in outcomes)
        if given_ != turned:
            differing.append((seed, given_, turned))
    assert differing == []


@pytest.mark.xfail(raises=VerificationFailedError, strict=True)
def test_noise_compound_answered_as_given_is_answered_transposed():
    # M is exactly zero in four entries, and rung 1 answers it (residual
    # 1.0e-14).  A^T reproduces M^T as well, but M^T's rung 1 meets a zero
    # design product, and verify refuses the non-finite candidate: a false
    # certificate.  Rung 2 would refuse M^T too, on its count ("rank 2 is
    # not binom(r, 2)")
    M = _noise(3, 3, 2, 36)
    policy = TolerancePolicy()
    A = inverse_compound(M, 3, 3, 2, policy).outcome.A
    assert reconstruction_residual(A.T, M.T, 2) <= policy.residual_rtol
    inverse_compound(M.T, 3, 3, 2, policy)


@st.composite
def _k2_sources(draw):
    """(M, n, m, k) for an exact or graded source, n, m <= 6, k >= 2, cond <= 1e6."""
    n, m = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    k = draw(st.integers(2, min(n, m)))
    r = draw(st.integers(k, min(n, m)))
    seed = draw(st.integers(0, 2**32 - 1))
    spectrum = None
    if draw(st.booleans()):  # graded
        spectrum = (10.0 ** draw(st.floats(0, 6))) ** (-np.arange(r) / max(r - 1, 1))
    return compound(random_rank_r(n, m, r, seed, spectrum=spectrum), k), n, m, k


@pytest.mark.filterwarnings("error")
@settings(
    max_examples=300, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_k2_sources())
def test_transposed_compound_gets_the_transposed_outcome(case):
    # compound(A, k)^T = compound(A^T, k), so M^T gets M's outcome type or
    # tag, and its answer or family representative, transposed, reproduces M
    M, n, m, k = case
    policy = TolerancePolicy()
    given_, turned = _outcome_or_tag(M, n, m, k, policy), _outcome_or_tag(M.T, m, n, k, policy)
    assert type(turned) is type(given_) and (
        not isinstance(given_, str) or turned == given_
    ), (given_, turned)
    if isinstance(turned, UniqueUpToSign):
        assert reconstruction_residual(turned.A.T, M, k) <= policy.residual_rtol
    elif isinstance(turned, RankOneFamily):
        assert reconstruction_residual(turned.representative().T, M, k) <= policy.residual_rtol


def test_k1_second_value_just_above_residual_rtol_is_not_certified_as_no_compound():
    # every matrix is its own 1-compound.  sigma = (1, 1.5e-8): the cutoff
    # of the 200-row contraction, 1e-10 * 200 = 2e-8, reads rank one, and
    # the rank-one family misses M by 1.5e-8, so rung 1 answers M itself
    rng = np.random.default_rng(133)
    U = np.linalg.qr(rng.standard_normal((200, 2)))[0]
    V = np.linalg.qr(rng.standard_normal((200, 2)))[0]
    M = U @ np.diag([1.0, 1.5e-8]) @ V.T
    policy = TolerancePolicy()
    result = inverse_compound(M, 200, 200, 1, policy)
    assert (result.report.route, result.report.inferred_r) == ("contraction", 1)
    assert reconstruction_residual(result.outcome.A, M, 1) <= policy.residual_rtol


def test_rank_one_with_a_second_direction_between_the_rank_cutoffs():
    # a wedge outer product plus a second direction at 8e-10 of its size:
    # the SVD of the 10 x 10 M counts values above 1e-9 * s_1 and sees rank
    # one, while the 5-row contraction of all of M counts values above
    # 5e-10 of its largest and sees the second direction
    rng = np.random.default_rng(113)
    u = compound(rng.standard_normal((5, 2)), 2)[:, 0]
    v = compound(rng.standard_normal((5, 2)), 2)[:, 0]
    g, h = rng.standard_normal(10), rng.standard_normal(10)
    M = np.outer(u, v) + 8e-10 * np.linalg.norm(u) * np.linalg.norm(v) * np.outer(
        g / np.linalg.norm(g), h / np.linalg.norm(h)
    )
    policy = TolerancePolicy()
    assert reduced_svd(M, policy).rank == 1
    result = inverse_compound(M, 5, 5, 2, policy)
    assert isinstance(result.outcome, RankOneFamily)
    assert result.report.route == "rank-one"
    assert "svd" in result.report.stage_timings  # rung 1 handed over
    family = rank_one_inverse(M, 5, 5, 2, policy)
    for got in (result.outcome, family):
        assert reconstruction_residual(got.representative(), M, 2) <= policy.residual_rtol


@pytest.mark.parametrize("n, m, seed", [(2, 6, 1), (6, 2, 2)])
def test_graded_one_row_compound_gets_its_family(n, m, seed):
    # M is one row or one column, and the float minors of the graded source
    # leave the contraction of the long side a (k+1)-th value above the rank
    # cutoff but far below residual_rtol: the family passes verify
    A = random_rank_r(n, m, 2, seed, spectrum=[1.0, 1e-8])
    M = compound(A, 2)
    policy = TolerancePolicy()
    result = inverse_compound(M, n, m, 2, policy)
    assert isinstance(result.outcome, RankOneFamily)
    assert result.report.route == "rank-one"
    family = rank_one_inverse(M, n, m, 2, policy)
    for got in (result.outcome, family):
        assert isinstance(got, RankOneFamily)
        assert reconstruction_residual(got.representative(), M, 2) <= policy.residual_rtol
        assert family_contains(A, got, policy)


# --- the tag contract ---

_CONTRACT_KINDS = [
    "exact", "rank-deficient", "repeated-pair", "scaled", "perturbed", "gaussian", "outer",
]


@st.composite
def _contract_inputs(draw):
    """(kind, M, n, m, k) with n, m <= 6 and every k, from one seeded generator."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(1, min(n, m)))
    kind = draw(st.sampled_from(_CONTRACT_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = math.comb(n, k), math.comb(m, k)
    if kind == "gaussian":
        return kind, rng.standard_normal((rows, cols)), n, m, k
    if kind == "outer":
        return kind, np.outer(rng.standard_normal(rows), rng.standard_normal(cols)), n, m, k
    r = min(n, m)
    if kind == "rank-deficient":
        r = int(rng.integers(0, r))
    spectrum = np.sort(rng.uniform(0.5, 2.0, size=r))[::-1]
    if kind == "repeated-pair" and r > 1:
        i = int(rng.integers(0, r - 1))
        spectrum[i + 1] = spectrum[i]
    U = np.linalg.qr(rng.standard_normal((n, max(r, 1))))[0][:, :r]
    V = np.linalg.qr(rng.standard_normal((m, max(r, 1))))[0][:, :r]
    M = compound(U @ np.diag(spectrum) @ V.T, k)
    if kind == "scaled":
        M = M * 10.0 ** float(rng.choice([-200, -100, 100, 200]))
    elif kind == "perturbed":
        noise = 10.0 ** rng.uniform(-12, -4) * np.abs(M).max()
        M = M + noise * rng.standard_normal(M.shape)
    return kind, M, n, m, k


@pytest.mark.filterwarnings("error")
@settings(
    max_examples=300, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_contract_inputs())
# noise-4x3-k2 seed 3 of the test above, whose design has a zero product as given
@example(("noise", _noise(4, 3, 2, 3), 4, 3, 2))
def test_every_call_answers_verified_or_refuses_with_a_tag(case):
    # either a tagged refusal or an outcome that reproduces M; the zero
    # family only for an exactly zero M
    kind, M, n, m, k = case
    policy = TolerancePolicy()
    try:
        outcome = inverse_compound(M, n, m, k, policy).outcome
    except CompoundKitError as err:
        assert isinstance(err.tag, str) and err.tag
        # no design stage refuses: a degenerate design is verify's to judge
        assert err.tag != "decomposition-failed", (kind, str(err))
        # one tag per cause: a missed reconstruction is verification-failed,
        # and not-compound-decomposable is left to the rank count
        if str(err).startswith("reconstruction residual"):
            assert err.tag == "verification-failed", (kind, str(err))
        if err.tag == "not-compound-decomposable":
            assert "is not binom" in str(err), (kind, str(err))
        return
    if isinstance(outcome, RankDeficientFamily):
        assert not np.any(M), kind
        return
    representative = outcome.A if isinstance(outcome, UniqueUpToSign) else outcome.representative()
    assert reconstruction_residual(representative, M, k) <= policy.residual_rtol, kind
