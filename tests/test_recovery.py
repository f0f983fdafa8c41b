import numpy as np
import pytest
from numpy.testing import assert_allclose

from compound_kit import (
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
    infer_base_rank,
    inverse_compound,
    order_compound_singular_values,
    preprocess_distinct,
    rank_one_inverse,
    reconstruction_residual,
    recover_singular_values,
    reduced_svd,
    wedge_decompose,
)
from compound_kit.recovery import _exhaustive_sign_vector
from compound_kit.combinat import incidence_matrix
from compound_kit.testkit import load_fixtures, random_rank_r


def sign_error(got, want):
    scale = np.linalg.norm(want)
    return min(np.linalg.norm(got - want), np.linalg.norm(got + want)) / scale


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
    assert result.report.singular_value_residual <= 1e-8
    assert set(result.report.stage_timings) >= {
        "svd", "preprocess", "frames", "singular_values", "compose", "verify"
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
    from compound_kit import DecompositionFailedError

    with pytest.raises((NotCompoundDecomposableError, DecompositionFailedError)):
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


def test_rank_one_rejects_non_decomposable_vector():
    q = np.array([1.0, 0, 0, 0, 0, 1.0]) / np.sqrt(2)
    M = np.outer(q, q)
    with pytest.raises(NotCompoundDecomposableError):
        rank_one_inverse(M, 4, 4, 2)


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


def test_family_contains_shape_validation():
    fx = load_fixtures()["rank-one-3x3"]
    family = rank_one_inverse(fx.inputs["M"], 3, 3, 2)
    with pytest.raises(InvalidArgumentError):
        family_contains(np.eye(4), family)


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
    with pytest.raises(NotCompoundDecomposableError):
        closed_form_inverse_nminus1(M)


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
