"""Shared numerical kernels under one explicit tolerance policy.

Every rank decision, gap test, and residual check in the package flows
through a :class:`TolerancePolicy` so that floating-point judgement calls are
made in exactly one place and can be tuned per call site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError, RankDeficientSystemError

__all__ = [
    "DEFAULT_POLICY",
    "LeastSquaresSolution",
    "ReducedSvd",
    "TolerancePolicy",
    "gf2_solve",
    "gf2_solver",
    "kernel_basis",
    "least_squares",
    "reduced_svd",
    "subspace_intersection",
]


@dataclass(frozen=True)
class TolerancePolicy:
    """Knobs for all floating-point decisions.

    Parameters
    ----------
    rank_rtol : float
        Relative cutoff for numerical rank: values above
        ``rank_rtol * v_max * size`` count toward the rank, with ``size``
        ``max(shape)`` for the singular values of a matrix and the row count
        n for those of a contraction (:func:`_numerical_rank`).
    gap_rtol : float
        Minimum relative gap ``(s_i - s_{i+1}) / s_1`` between consecutive
        retained singular values for them to count as distinct.
    sign_atol : float
        Absolute tolerance when matching unit columns up to sign.
    residual_rtol : float
        Relative ceiling on reconstruction and least-squares residuals.
    max_resample : int
        Attempts allowed when drawing random change-of-basis matrices.
    rng_seed : int
        Seed for all randomness; identical inputs and policy give
        bit-identical results.  Preprocessing keeps what it derives from
        each random matrix, keyed by that matrix's bytes, so a recovery that
        draws the same matrix again reuses it.
    """

    rank_rtol: float = 1e-10
    gap_rtol: float = 1e-6
    sign_atol: float = 1e-8
    residual_rtol: float = 1e-8
    max_resample: int = 16
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("rank_rtol", "gap_rtol", "sign_atol", "residual_rtol"):
            if not getattr(self, name) > 0:
                raise InvalidArgumentError(f"{name} must be positive")
        if self.max_resample < 1:
            raise InvalidArgumentError("max_resample must be at least 1")

    def rng(self) -> np.random.Generator:
        """A fresh generator for the policy's stream: each call replays the same draws."""
        return np.random.default_rng(self.rng_seed)


DEFAULT_POLICY = TolerancePolicy()


def _as_float_matrix(X, name: str = "matrix") -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InvalidArgumentError(f"{name} must be 2-D, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InvalidArgumentError(f"{name} contains non-finite entries")
    return X


def _numerical_rank(values: np.ndarray, size: int, policy: TolerancePolicy) -> int:
    """Number of the decreasing ``values`` above the rank cutoff ``rank_rtol * values[0] * size``.

    The one rank cutoff of the package.  ``size`` is ``max(shape)`` for the
    singular values of a matrix and the row count n for a contraction.
    """
    cutoff = policy.rank_rtol * (values[0] if values.size else 0.0) * size
    return int(np.count_nonzero(values > cutoff))


@dataclass(frozen=True)
class ReducedSvd:
    """Compact SVD keeping only singular values above the policy rank cutoff."""

    left: np.ndarray
    sigma: np.ndarray
    right: np.ndarray

    @property
    def rank(self) -> int:
        return int(self.sigma.size)

    def matrix(self) -> np.ndarray:
        return self.left @ (self.sigma[:, None] * self.right.T)


def reduced_svd(X, policy: TolerancePolicy = DEFAULT_POLICY) -> ReducedSvd:
    """Compact SVD of ``X`` truncated at the policy rank cutoff.

    ``left`` and ``right`` have orthonormal columns and ``sigma`` is
    decreasing; ``left @ diag(sigma) @ right.T`` reconstructs ``X`` up to the
    discarded tail.
    """
    X = _as_float_matrix(X)
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    rank = _numerical_rank(s, max(X.shape), policy)
    return ReducedSvd(
        left=U[:, :rank].copy(),
        sigma=s[:rank].copy(),
        right=Vt[:rank].T.copy(),
    )


def kernel_basis(X, policy: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Orthonormal basis of the null space of ``X``, shape (cols, nullity)."""
    X = _as_float_matrix(X)
    _, s, Vt = np.linalg.svd(X, full_matrices=True)
    rank = _numerical_rank(s, max(X.shape), policy)
    return Vt[rank:].T.copy()


def subspace_intersection(B1, B2, policy: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """Orthonormal basis of span(B1) intersected with span(B2).

    ``B1`` and ``B2`` are orthonormal-column bases of subspaces of the same
    ambient space.  A vector lies in both spans exactly when it can be written
    ``B1 @ c1 = B2 @ c2``, so the intersection is read off the null space of
    ``[B1, -B2]``; the result is re-orthonormalized.
    """
    B1 = _as_float_matrix(B1, "B1")
    B2 = _as_float_matrix(B2, "B2")
    if B1.shape[0] != B2.shape[0]:
        raise InvalidArgumentError(
            f"ambient dimensions differ: {B1.shape[0]} vs {B2.shape[0]}"
        )
    n = B1.shape[0]
    if B1.shape[1] == 0 or B2.shape[1] == 0:
        return np.zeros((n, 0))
    N = kernel_basis(np.hstack([B1, -B2]), policy)
    if N.shape[1] == 0:
        return np.zeros((n, 0))
    raw = B1 @ N[: B1.shape[1]]
    Q, _ = np.linalg.qr(raw)
    return Q


class LeastSquaresSolution(NamedTuple):
    solution: np.ndarray
    residual: float


def least_squares(A, y) -> LeastSquaresSolution:
    """Minimum-residual solution of ``A x = y`` for full-column-rank ``A``."""
    A = _as_float_matrix(A, "A")
    y = np.asarray(y, dtype=float).ravel()
    if y.size != A.shape[0]:
        raise InvalidArgumentError(
            f"right-hand side length {y.size} does not match {A.shape[0]} rows"
        )
    x, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < A.shape[1]:
        raise RankDeficientSystemError(
            f"coefficient matrix has rank {rank} < {A.shape[1]} columns"
        )
    residual = float(np.linalg.norm(A @ x - y))
    return LeastSquaresSolution(solution=x, residual=residual)


def gf2_solver(A) -> np.ndarray:
    """Solve matrix ``P`` of ``A x = b`` over GF(2): ``x = (P @ b) & 1``.

    Gauss-Jordan elimination with XOR row updates on ``[A | I]``; the
    identity block records the row operations, so each pivot row of it maps a
    right-hand side to that pivot's variable, and free variables are set to
    zero.  ``P`` (uint8, cols x rows) depends on ``A`` alone, so one
    elimination serves every right-hand side.  ``x`` solves the system
    exactly when one exists; callers check ``(A @ x) & 1 == b`` to refuse an
    inconsistent ``b``.  Entries of ``A`` are reduced mod 2 on entry.
    """
    A = np.atleast_2d(np.asarray(A))
    rows, cols = A.shape
    work = np.hstack([(A % 2).astype(np.uint8), np.eye(rows, dtype=np.uint8)])
    pivot_cols: list[int] = []
    row = 0
    for col in range(cols):
        candidates = np.flatnonzero(work[row:, col])
        if candidates.size == 0:
            continue
        pivot = row + int(candidates[0])
        if pivot != row:
            work[[row, pivot]] = work[[pivot, row]]
        others = work[:, col].astype(bool)
        others[row] = False
        work[others] ^= work[row]
        pivot_cols.append(col)
        row += 1
        if row == rows:
            break
    P = np.zeros((cols, rows), dtype=np.uint8)
    P[pivot_cols] = work[: len(pivot_cols), cols:]
    return P


def gf2_solve(A, b) -> np.ndarray | None:
    """One solution of ``A x = b`` over GF(2), or ``None`` if inconsistent.

    Reads the solve matrix of :func:`gf2_solver` (free variables zero) and
    checks the solution against the system.  Entries of ``A`` and ``b`` are
    reduced mod 2 on entry.
    """
    A = np.atleast_2d(np.asarray(A) % 2).astype(np.uint8)
    rhs = (np.asarray(b).ravel() % 2).astype(np.uint8)
    if rhs.size != A.shape[0]:
        raise InvalidArgumentError(
            f"right-hand side length {rhs.size} does not match {A.shape[0]} rows"
        )
    # uint8 products wrap modulo 256, which keeps their parity
    x = (gf2_solver(A) @ rhs) & 1
    if not np.array_equal((A @ x) & 1, rhs):
        return None
    return x
