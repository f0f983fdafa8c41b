import numpy as np
import pytest
from numpy.testing import assert_allclose

from compound_kit import (
    InvalidArgumentError,
    RankDeficientSystemError,
    TolerancePolicy,
    gf2_solve,
    incidence_matrix,
    kernel_basis,
    least_squares,
    reduced_svd,
    subspace_intersection,
    wedge,
    wedge_matrix,
)
from compound_kit.testkit import load_fixtures, random_rank_r


def test_policy_defaults_and_validation():
    policy = TolerancePolicy()
    assert policy.rank_rtol == 1e-10
    assert policy.gap_rtol == 1e-6
    assert policy.sign_atol == 1e-8
    assert policy.residual_rtol == 1e-8
    assert policy.max_resample == 16
    with pytest.raises(InvalidArgumentError):
        TolerancePolicy(rank_rtol=0.0)
    with pytest.raises(InvalidArgumentError):
        TolerancePolicy(max_resample=0)


def test_policy_rng_is_deterministic():
    policy = TolerancePolicy(rng_seed=123)
    assert_allclose(policy.rng().standard_normal(4), policy.rng().standard_normal(4))


def test_reduced_svd_identity():
    svd = reduced_svd(np.eye(3))
    assert svd.rank == 3
    assert_allclose(svd.sigma, np.ones(3))
    assert_allclose(svd.matrix(), np.eye(3), rtol=0, atol=1e-14)


def test_reduced_svd_reference_compound_values():
    M = load_fixtures()["recovery-4x4"].inputs["M"]
    svd = reduced_svd(M)
    assert svd.rank == 3
    assert_allclose(svd.sigma, [79.80, 62.12, 45.01], rtol=0, atol=5e-3)


def test_reduced_svd_truncates_and_reconstructs():
    for seed in range(5):
        X = random_rank_r(6, 5, 3, seed=seed)
        svd = reduced_svd(X)
        assert svd.rank == 3
        assert_allclose(svd.matrix(), X, rtol=0, atol=1e-10)
        assert_allclose(svd.left.T @ svd.left, np.eye(3), rtol=0, atol=1e-12)
        assert_allclose(svd.right.T @ svd.right, np.eye(3), rtol=0, atol=1e-12)
        assert np.all(np.diff(svd.sigma) < 0) or svd.rank == 1


def test_reduced_svd_zero_matrix():
    svd = reduced_svd(np.zeros((4, 3)))
    assert svd.rank == 0
    assert svd.left.shape == (4, 0) and svd.right.shape == (3, 0)


def test_reduced_svd_rejects_non_finite():
    with pytest.raises(InvalidArgumentError):
        reduced_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_kernel_basis_simple():
    B = kernel_basis(np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert B.shape == (2, 1)
    assert abs(B[:, 0] @ np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_kernel_basis_full_rank_and_zero():
    assert kernel_basis(np.eye(3)).shape == (3, 0)
    B = kernel_basis(np.zeros((2, 4)))
    assert B.shape == (4, 4)
    assert_allclose(B.T @ B, np.eye(4), rtol=0, atol=1e-14)


def test_kernel_basis_orthonormal_and_annihilated():
    X = random_rank_r(5, 7, 3, seed=9)
    B = kernel_basis(X)
    assert B.shape == (7, 4)
    assert_allclose(X @ B, np.zeros((5, 4)), rtol=0, atol=1e-12)
    assert_allclose(B.T @ B, np.eye(4), rtol=0, atol=1e-12)


def test_kernel_basis_of_wedge_matrix():
    e = np.eye(4)
    B = kernel_basis(wedge_matrix(wedge(e[:, 0], e[:, 1]), 4, 2).data)
    assert B.shape == (4, 2)
    # span must be exactly span(e1, e2)
    proj = B @ B.T
    assert_allclose(proj, np.diag([1.0, 1.0, 0.0, 0.0]), rtol=0, atol=1e-12)


def test_subspace_intersection_adjacent_planes():
    e = np.eye(4)
    got = subspace_intersection(e[:, :2], e[:, 1:3])
    assert got.shape == (4, 1)
    assert abs(got[:, 0] @ e[:, 1]) == pytest.approx(1.0)


def test_subspace_intersection_disjoint_planes():
    e = np.eye(4)
    assert subspace_intersection(e[:, :2], e[:, 2:]).shape == (4, 0)


def test_subspace_intersection_planted_vector():
    rng = np.random.default_rng(17)
    for _ in range(10):
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        B1 = np.linalg.qr(np.column_stack([v, rng.standard_normal((6, 2))]))[0]
        B2 = np.linalg.qr(np.column_stack([v, rng.standard_normal((6, 2))]))[0]
        got = subspace_intersection(B1, B2)
        assert got.shape == (6, 1)
        assert abs(got[:, 0] @ v) == pytest.approx(1.0, abs=1e-10)


def test_subspace_intersection_empty_inputs():
    assert subspace_intersection(np.zeros((5, 0)), np.eye(5)).shape == (5, 0)


def test_subspace_intersection_rejects_mismatched_ambient():
    with pytest.raises(InvalidArgumentError):
        subspace_intersection(np.eye(4), np.eye(5))


def test_least_squares_exact_and_residual():
    sol = least_squares(np.eye(3), [1.0, 2.0, 3.0])
    assert_allclose(sol.solution, [1.0, 2.0, 3.0])
    assert sol.residual == pytest.approx(0.0, abs=1e-14)


def test_least_squares_overdetermined():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((10, 4))
    x = rng.standard_normal(4)
    sol = least_squares(A, A @ x)
    assert_allclose(sol.solution, x, rtol=1e-10, atol=1e-12)
    assert sol.residual <= 1e-10


def test_least_squares_reports_rank_deficiency():
    A = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    with pytest.raises(RankDeficientSystemError):
        least_squares(A, [1.0, 2.0, 3.0])


def test_least_squares_printed_log_system():
    # 2-decimal inputs amplified by the solve; one unit in the last printed
    # digit of the right-hand side moves the output by up to ~1.6e-2
    L = incidence_matrix(3, 2).entries
    sol = least_squares(L, [4.38, 4.13, 3.81])
    assert_allclose(np.exp(sol.solution), [10.50, 7.60, 5.92], rtol=0, atol=2e-2)


def test_gf2_identity_and_substitution():
    x = gf2_solve(np.eye(4, dtype=int), [1, 0, 1, 1])
    assert np.array_equal(x, [1, 0, 1, 1])


def test_gf2_incidence_system_by_substitution():
    A = incidence_matrix(3, 2).entries
    b = np.array([1, 1, 0])
    x = gf2_solve(A, b)
    assert x is not None
    assert np.array_equal((A @ x) % 2, b)
    # oracle: enumerate all assignments; solutions form one complement pair
    solutions = [
        bits
        for bits in range(8)
        if np.array_equal((A @ [(bits >> i) & 1 for i in range(3)]) % 2, b)
    ]
    assert len(solutions) == 2
    assert tuple(x) in {tuple((s >> i) & 1 for i in range(3)) for s in solutions}


def test_gf2_inconsistent_system():
    A = np.array([[1, 0], [1, 0]])
    assert gf2_solve(A, [0, 1]) is None


def test_gf2_wide_system_free_variables():
    A = np.array([[1, 1, 0, 1], [0, 1, 1, 0]])
    b = np.array([1, 1])
    x = gf2_solve(A, b)
    assert x is not None
    assert np.array_equal((A @ x) % 2, b)


def test_gf2_reduces_entries_mod_two():
    A = np.array([[3, 2], [4, 5]])  # == [[1,0],[0,1]] mod 2
    x = gf2_solve(A, [7, 8])  # == [1, 0]
    assert np.array_equal(x, [1, 0])


def test_gf2_random_consistent_systems():
    rng = np.random.default_rng(33)
    for _ in range(25):
        rows, cols = rng.integers(1, 9, size=2)
        A = rng.integers(0, 2, size=(rows, cols))
        x_true = rng.integers(0, 2, size=cols)
        b = (A @ x_true) % 2
        x = gf2_solve(A, b)
        assert x is not None
        assert np.array_equal((A @ x) % 2, b)


def test_gf2_solve_refuses_exactly_the_inconsistent_systems():
    # oracle: enumerate every assignment of up to 6 variables
    rng = np.random.default_rng(34)
    for _ in range(60):
        rows, cols = rng.integers(1, 8), rng.integers(1, 7)
        A = rng.integers(0, 2, size=(rows, cols))
        b = rng.integers(0, 2, size=rows)
        solvable = any(
            np.array_equal((A @ [(bits >> i) & 1 for i in range(cols)]) % 2, b)
            for bits in range(2**cols)
        )
        x = gf2_solve(A, b)
        assert (x is not None) == solvable
        if solvable:
            assert np.array_equal((A @ x) % 2, b)

