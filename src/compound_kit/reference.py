"""The paper's own recovery route, kept as the reference for the pipeline.

The paper recovers the frames of ``M = compound(A, k)`` from the compact SVD
``M = L diag(s) R^T``: every column of L and of R is a decomposable k-vector,
whose wedge-matrix kernel is the span of its k factors, and intersecting
those spans isolates the single directions (:func:`wedge_decompose`).  The
directions are then put in decreasing singular-value order
(:func:`order_compound_singular_values`) and signed against the SVD, the
right-hand signs through a parity system over GF(2)
(:func:`align_and_sign_adjust`).

:func:`compound_kit.recovery.inverse_compound` never calls this module: it
takes both frames from contractions of M instead.  The route stays as the
oracle the tests cross-check that pipeline against, and as the paper's
worked example in :func:`compound_kit.testkit.fixture_checks`.  Its names
are imported from this module, or from :mod:`compound_kit` itself;
:mod:`compound_kit.recovery` binds none of them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .combinat import _tuple_array, binom, incidence_matrix
from .errors import (
    AlignmentFailedError,
    DecompositionFailedError,
    InvalidArgumentError,
    OrderingFailedError,
    SignAdjustmentFailedError,
)
from .exterior import compound, wedge_matrix
from .numerics import (
    DEFAULT_POLICY,
    TolerancePolicy,
    _as_float_matrix,
    gf2_solve,
    kernel_basis,
    subspace_intersection,
)
from .recovery import recover_singular_values

__all__ = [
    "AlignedFactors",
    "align_and_sign_adjust",
    "order_compound_singular_values",
    "wedge_decompose",
]


def wedge_decompose(
    Z, n: int, r: int, k: int, policy: TolerancePolicy = DEFAULT_POLICY
) -> np.ndarray:
    """Factor wedge coordinates into their rank-one direction matrix.

    Parameters
    ----------
    Z : array_like
        Shape (binom(n, k), binom(r, k)); each column holds the coordinates
        of a wedge of k vectors drawn from one unknown r-dimensional frame
        u_1, ..., u_r in R^n, with every k-subset represented.
    n, r, k : int
        Ambient dimension, frame size, and wedge grade, with k < r <= n.

    Returns
    -------
    numpy.ndarray
        Shape (n, r); columns are unit vectors spanning the individual
        directions span(u_i), in discovery order (no particular order or
        sign is promised).

    Notes
    -----
    Each column's wedge-matrix kernel recovers the k-dimensional span of its
    factors.  Intersecting two s-dimensional spans drawn from an r-frame
    yields spans of dimension 2s - r, so the spans are contracted pairwise,
    keeping each distinct meet of that dimension, until they are lines; once
    2s - r drops to one or below, the pairwise meets of dimension one are
    the directions.  For k = 1 the kernels are the directions themselves.
    """
    Z = _as_float_matrix(Z, "Z")
    if not 1 <= k < r or r > n:
        raise InvalidArgumentError(f"need 1 <= k < r <= n, got k={k}, r={r}, n={n}")
    if Z.shape != (binom(n, k), binom(r, k)):
        raise InvalidArgumentError(
            f"Z has shape {Z.shape}, expected ({binom(n, k)}, {binom(r, k)})"
        )

    pool: list[np.ndarray] = []
    for idx, col in enumerate(Z.T):
        if not np.any(col):
            raise DecompositionFailedError(f"column {idx} is exactly zero")
        basis = kernel_basis(wedge_matrix(col, n, k).data, policy)
        if basis.shape[1] != k:
            raise DecompositionFailedError(
                f"column {idx} has kernel dimension {basis.shape[1]}, expected {k}; "
                "column is not a decomposable k-vector"
            )
        # at k = 1 the kernels are the directions, each kept once
        if k > 1 or not _span_seen(pool, basis, policy):
            pool.append(basis)

    s = k
    while s > 1:
        target = max(1, 2 * s - r)
        contracted: list[np.ndarray] = []
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                meet = subspace_intersection(pool[i], pool[j], policy)
                if meet.shape[1] == target and not _span_seen(contracted, meet, policy):
                    contracted.append(meet)
        if not contracted:
            raise DecompositionFailedError(
                f"no intersections of dimension {target} found while contracting"
            )
        pool, s = contracted, target

    if len(pool) != r:
        raise DecompositionFailedError(f"found {len(pool)} direction(s), expected {r}")
    return np.hstack(pool)


def _span_seen(spans: list[np.ndarray], B: np.ndarray, policy: TolerancePolicy) -> bool:
    for C in spans:
        if np.linalg.norm(B - C @ (C.T @ B)) <= policy.sign_atol * math.sqrt(B.shape[1]):
            return True
    return False


def order_compound_singular_values(
    M, V_hat, k: int, policy: TolerancePolicy = DEFAULT_POLICY
) -> np.ndarray:
    """Compound singular values of M in the column order of ``V_hat``.

    For M with right singular vectors spanned by compound(V_hat, k), the
    matrix ``(M M^T C)^T C`` with ``C = compound(V_hat, k)`` is diagonal with
    the squared compound singular values on the diagonal, each attached to
    the compound column it scales.  This pins which singular value goes with
    which column, independent of magnitude order.
    """
    M = _as_float_matrix(M, "M")
    V_hat = _as_float_matrix(V_hat, "V_hat")
    C = compound(V_hat, k)
    if C.shape[0] != M.shape[0]:
        raise InvalidArgumentError(
            f"M has {M.shape[0]} rows but compound(V_hat, k) has {C.shape[0]} rows"
        )
    squared = np.diag((M @ (M.T @ C)).T @ C).copy()
    if np.any(squared <= 0):
        raise OrderingFailedError(
            f"squared compound singular values must be positive, got min {squared.min():.3e}"
        )
    return np.sqrt(squared)


class AlignedFactors(NamedTuple):
    V_tilde: np.ndarray
    W_tilde: np.ndarray


def align_and_sign_adjust(
    V_hat,
    W_hat,
    L,
    R,
    sigma_compound,
    k: int,
    policy: TolerancePolicy = DEFAULT_POLICY,
    *,
    exhaustive_sign_search: bool = False,
) -> AlignedFactors:
    """Order the decomposed factors and fix column signs against the SVD of M.

    Parameters
    ----------
    V_hat, W_hat : array_like
        Direction matrices from :func:`wedge_decompose` for the row and
        column side, shape (n, r) and (m, r), columns in arbitrary order and
        sign.
    L, R, sigma_compound : array_like
        Compact SVD of the (preprocessed) compound, ``M = L diag(s) R^T``
        with s decreasing.
    k : int
        Compound grade.
    exhaustive_sign_search : bool, optional
        Solve the final sign system by scanning all 2^r sign patterns
        instead of GF(2) elimination.  Exponential; kept as a
        cross-checking oracle, never used by default.

    Returns
    -------
    AlignedFactors
        ``V_tilde`` and ``W_tilde`` with columns ordered by decreasing
        recovered singular value and signed so that
        ``compound(V_tilde, k) == L`` columnwise and
        ``V_tilde diag(sigma) W_tilde^T`` reproduces the compound's source
        up to one global sign.

    Notes
    -----
    Ordering: each side's singular values are recovered independently
    (:func:`compound_kit.recovery.recover_singular_values`), the columns are
    sorted by decreasing value, and the lex-ordered k-fold products of the
    sorted values then match ``sigma_compound`` by sorted position.  Signs:
    each column of L must equal a column of compound(V_tilde, k) up to sign
    within ``sign_atol``; flipped columns of R mark the k-subsets whose sign
    product must change on the W side, and a parity system over GF(2)
    converts those subset constraints into per-column flips of W.
    """
    V_hat = _as_float_matrix(V_hat, "V_hat")
    W_hat = _as_float_matrix(W_hat, "W_hat")
    L = _as_float_matrix(L, "L")
    R = _as_float_matrix(R, "R")
    s = np.asarray(sigma_compound, dtype=float).ravel()
    r = V_hat.shape[1]
    if W_hat.shape[1] != r:
        raise InvalidArgumentError(
            f"V_hat has {r} columns but W_hat has {W_hat.shape[1]}"
        )
    if not 1 <= k < r:
        raise InvalidArgumentError(f"need 1 <= k < r, got k={k}, r={r}")
    rho = binom(r, k)
    if s.size != rho or L.shape[1] != rho or R.shape[1] != rho:
        raise InvalidArgumentError(
            f"expected binom({r}, {k}) = {rho} compound columns, got "
            f"{s.size} values, L with {L.shape[1]}, R with {R.shape[1]}"
        )

    M_tilde = L @ (s[:, None] * R.T)
    sig_left = recover_singular_values(
        order_compound_singular_values(M_tilde, V_hat, k, policy), r, k, policy
    )
    sig_right = recover_singular_values(
        order_compound_singular_values(M_tilde.T, W_hat, k, policy), r, k, policy
    )
    V_sorted = V_hat[:, np.argsort(-sig_left, kind="stable")]
    W_sorted = W_hat[:, np.argsort(-sig_right, kind="stable")]
    sig = np.sort(sig_left)[::-1]

    # lex-position of each SVD column: products of sorted values, largest first
    products = np.prod(sig[_tuple_array(r, k)], axis=1)
    svd_to_lex = np.argsort(-products, kind="stable")
    L_lex = np.empty_like(L)
    R_lex = np.empty_like(R)
    L_lex[:, svd_to_lex] = L
    R_lex[:, svd_to_lex] = R

    flips = _column_sign_matches(L_lex, compound(V_sorted, k), policy, side="left")
    R_lex[:, flips] *= -1.0
    parity = _column_sign_matches(R_lex, compound(W_sorted, k), policy, side="right")

    incidence = incidence_matrix(r, k).entries
    solve = _exhaustive_sign_vector if exhaustive_sign_search else gf2_solve
    x = solve(incidence, parity.astype(np.uint8))
    if x is None:
        raise SignAdjustmentFailedError("column sign parity system has no solution")
    W_tilde = W_sorted * np.where(x.astype(bool), -1.0, 1.0)[None, :]
    return AlignedFactors(V_tilde=V_sorted, W_tilde=W_tilde)


def _column_sign_matches(
    target: np.ndarray, candidate: np.ndarray, policy: TolerancePolicy, side: str
) -> np.ndarray:
    """Per-column flags: True where -candidate matches target, False where +candidate does."""
    flips = np.zeros(target.shape[1], dtype=bool)
    for j in range(target.shape[1]):
        plus = np.linalg.norm(target[:, j] - candidate[:, j])
        minus = np.linalg.norm(target[:, j] + candidate[:, j])
        if min(plus, minus) > policy.sign_atol:
            raise AlignmentFailedError(
                f"{side} column {j} matches no sign of its compound column "
                f"(distances {plus:.3e} / {minus:.3e} > {policy.sign_atol:.1e})"
            )
        flips[j] = minus < plus
    return flips


def _exhaustive_sign_vector(incidence: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """The first of all 2^r sign patterns x with ``incidence @ x = b`` mod 2, or None."""
    r = incidence.shape[1]
    for bits in range(2**r):
        x = np.fromiter(((bits >> i) & 1 for i in range(r)), dtype=np.uint8, count=r)
        if np.array_equal((incidence @ x) % 2, b % 2):
            return x
    return None
