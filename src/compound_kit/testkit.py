"""Independent oracles, seeded generators, and bundled reference fixtures.

The oracles here deliberately avoid the production code paths: determinants
come from cofactor expansion over Python numbers (exact for integer input),
index tuples from a recursive enumerator, and tuple ranks from linear search.
They exist so the fast implementations can be checked against something that
cannot share their bugs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .combinat import IndexTuple, lex_tuples
from .errors import InvalidArgumentError
from .numerics import DEFAULT_POLICY, TolerancePolicy

_FIXTURE_DIR = Path(__file__).parent / "fixtures"

#: Cofactor expansion is factorial; the oracle is for small cross-checks only.
MAX_ORACLE_GRADE = 4


def random_rank_r(
    n: int,
    m: int,
    r: int,
    seed: int,
    spectrum=None,
) -> np.ndarray:
    """Random n x m matrix of exact rank r with well-separated singular values.

    Orthonormal factors come from QR of Gaussian draws.  The default spectrum
    is drawn from [1, 2] and redrawn until consecutive relative gaps exceed
    ten times the default ``gap_rtol``, so generated matrices never sit on
    the preprocessing boundary by accident.
    """
    if not 0 <= r <= min(n, m):
        raise InvalidArgumentError(f"need 0 <= r <= min(n, m) = {min(n, m)}, got r={r}")
    if r == 0:
        return np.zeros((n, m))
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.standard_normal((n, r)))[0]
    V = np.linalg.qr(rng.standard_normal((m, r)))[0]
    if spectrum is None:
        floor = 10 * DEFAULT_POLICY.gap_rtol
        for _ in range(64):
            values = np.sort(rng.uniform(1.0, 2.0, size=r))[::-1]
            if r == 1 or np.all((values[:-1] - values[1:]) / values[0] >= floor):
                break
        spectrum = values
    spectrum = np.asarray(spectrum, dtype=float).ravel()
    if spectrum.size != r or np.any(spectrum <= 0):
        raise InvalidArgumentError("spectrum must be r positive values")
    return U @ (spectrum[:, None] * V.T)


def _cofactor_det(a: list[list]) -> object:
    """Determinant by first-row cofactor expansion; exact on int/Fraction entries."""
    size = len(a)
    if size == 1:
        return a[0][0]
    total = 0
    for j in range(size):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        term = a[0][j] * _cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _ascending_tuples(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Strictly increasing 0-based k-tuples over range(n), lex order, recursively."""

    def rec(start: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for v in range(start, n - remaining + 1):
            for rest in rec(v + 1, remaining - 1):
                yield (v, *rest)

    yield from rec(0, k)


def reference_compound(X, k: int) -> np.ndarray:
    """Slow compound oracle: cofactor determinants over Python scalars.

    Exact for integer input (no floating point anywhere), so it can certify
    the batched implementation digit for digit.  Limited to
    k <= :data:`MAX_ORACLE_GRADE`.
    """
    if k > MAX_ORACLE_GRADE:
        raise InvalidArgumentError(f"oracle supports k <= {MAX_ORACLE_GRADE}, got {k}")
    X = np.asarray(X)
    if X.ndim != 2:
        raise InvalidArgumentError(f"matrix must be 2-D, got shape {X.shape}")
    n, m = X.shape
    if not 1 <= k <= min(n, m):
        raise InvalidArgumentError(f"need 1 <= k <= min(n, m) = {min(n, m)}, got k={k}")
    rows = list(_ascending_tuples(n, k))
    cols = list(_ascending_tuples(m, k))
    entries = X.tolist()
    out = np.empty((len(rows), len(cols)))
    for i, I in enumerate(rows):
        for j, J in enumerate(cols):
            block = [[entries[a][b] for b in J] for a in I]
            out[i, j] = _cofactor_det(block)
    return out


def indexof_by_search(t: IndexTuple) -> int:
    """1-based rank of a tuple by linear search; oracle for the closed form."""
    for pos, candidate in enumerate(lex_tuples(t.ambient, t.grade), start=1):
        if candidate.entries == t.entries:
            return pos
    raise InvalidArgumentError(f"tuple {t.entries} not found")  # unreachable for valid input


@dataclass(frozen=True)
class Fixture:
    """A named input/expected bundle with a note on how to trust it.

    ``origin`` starts with one of three markers: ``reference-values``
    (hand-checked worked values, stored to the precision given),
    ``identity`` (forced by an algebraic identity), or ``oracle`` (computed
    by an independent oracle in this module).
    """

    name: str
    inputs: dict
    expected: dict
    origin: str


def _load_csv(name: str) -> np.ndarray:
    data = np.loadtxt(_FIXTURE_DIR / name, delimiter=",", ndmin=2)
    return data


def load_fixtures() -> dict[str, Fixture]:
    """All bundled fixtures, keyed by name."""
    recovery = Fixture(
        name="recovery-4x4",
        inputs={
            "A": _load_csv("recovery4_A.csv"),
            "M": _load_csv("recovery4_M.csv"),
            "k": 2,
        },
        expected={
            # 2-decimal prints of the factorizations A = V diag(sigma) W^T
            # and M = L diag(s) R^T, plus the aligned factors the pipeline
            # should reach (W_tilde is W_hat with its last column flipped).
            "V": _load_csv("recovery4_V.csv"),
            "sigma": _load_csv("recovery4_sigma.csv").ravel(),
            "W": _load_csv("recovery4_W.csv"),
            "L": _load_csv("recovery4_L.csv"),
            "s": _load_csv("recovery4_s.csv").ravel(),
            "R": _load_csv("recovery4_R.csv"),
            "V_hat": _load_csv("recovery4_V_hat.csv"),
            "W_hat": _load_csv("recovery4_W_hat.csv"),
            "W_tilde": _load_csv("recovery4_W_tilde.csv"),
            "log_rhs": _load_csv("recovery4_log_rhs.csv").ravel(),
        },
        origin="reference-values: 4x4 rank-3 recovery walkthrough, k = 2",
    )
    rank_one = Fixture(
        name="rank-one-3x3",
        inputs={
            "A": _load_csv("rank_one_A.csv"),
            "B": _load_csv("rank_one_B.csv"),
            "M": _load_csv("rank_one_M.csv"),
            "k": 2,
        },
        expected={
            "U": _load_csv("rank_one_U.csv"),
            "V": _load_csv("rank_one_V.csv"),
            "T": _load_csv("rank_one_T.csv"),
        },
        origin="reference-values: two rank-2 preimages of one rank-one compound",
    )
    non_decomposable = Fixture(
        name="non-decomposable-q",
        inputs={"q": _load_csv("nondecomposable_q.csv").ravel(), "n": 4, "k": 2},
        expected={"decomposable": False},
        origin="reference-values: unit 2-vector in R^4 that is not a wedge",
    )
    return {f.name: f for f in (recovery, rank_one, non_decomposable)}


@dataclass(frozen=True)
class FixtureCheck:
    name: str
    detail: str
    run: Callable[[], bool]


def fixture_checks(policy: TolerancePolicy = DEFAULT_POLICY) -> list[FixtureCheck]:
    """Self-contained checks over the bundled fixtures, for tests and the CLI.

    Printed fixture values carry two decimals, so comparisons against them
    use an absolute tolerance of 5e-3 (half a final digit) unless the values
    are integers, which must match exactly.
    """
    from . import exterior, recovery  # local import to keep module load light

    fx = load_fixtures()
    checks: list[FixtureCheck] = []

    def add(name: str, detail: str, run: Callable[[], bool]) -> None:
        checks.append(FixtureCheck(name=name, detail=detail, run=run))

    rec = fx["recovery-4x4"]
    A, M = rec.inputs["A"], rec.inputs["M"]

    add(
        "compound-integer-example",
        "oracle and batched compounds both reproduce the integer compound exactly",
        lambda: np.array_equal(reference_compound(A, 2), M)
        and np.allclose(exterior.compound(A, 2), M, rtol=0, atol=1e-9),
    )
    add(
        "svd-values",
        "singular values of the compound match the printed 2-decimal values",
        lambda: np.allclose(
            np.linalg.svd(M, compute_uv=False)[:3], rec.expected["s"], rtol=0, atol=5e-3
        ),
    )
    add(
        "recovery-roundtrip",
        "full pipeline returns the original matrix up to one global sign",
        lambda: _matches_up_to_sign(
            recovery.inverse_compound(M, 4, 4, 2, policy).outcome.A, A, 1e-8
        ),
    )
    add(
        "wedge-factors",
        "aligned left factor matches the printed one, column signs free",
        lambda: _columns_match_up_to_sign(
            _run_aligned(recovery, M)[0], rec.expected["V_hat"], 5e-3
        ),
    )
    add(
        "sign-adjustment",
        "sign pass from the printed rounded factors reproduces the printed W_tilde",
        lambda: _matches_up_to_sign(
            _aligned_from_printed(recovery, rec), rec.expected["W_tilde"], 5e-3
        ),
    )
    add(
        "singular-value-system",
        "log-linear solve on the printed right-hand side recovers the printed values",
        # both sides of the comparison were rounded to 2 decimals upstream of
        # the solve, and the solve amplifies that by |L^+|; 2e-2 covers it
        lambda: np.allclose(
            np.exp(
                np.linalg.lstsq(
                    np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]),
                    rec.expected["log_rhs"],
                    rcond=None,
                )[0]
            ),
            rec.expected["sigma"],
            rtol=0,
            atol=2e-2,
        ),
    )

    ro = fx["rank-one-3x3"]

    def _rank_one_check() -> bool:
        A1, B1, M1 = ro.inputs["A"], ro.inputs["B"], ro.inputs["M"]
        U, V, T = ro.expected["U"], ro.expected["V"], ro.expected["T"]
        return (
            np.array_equal(reference_compound(A1, 2), M1)
            and np.array_equal(reference_compound(B1, 2), M1)
            and np.array_equal(U @ V.T, A1)
            and np.array_equal(U @ T @ V.T, B1)
            and round(float(np.linalg.det(T)), 12) == 1.0
        )

    add(
        "rank-one-preimages",
        "two distinct rank-2 matrices share one rank-one compound via det-1 inner factor",
        _rank_one_check,
    )

    nd = fx["non-decomposable-q"]
    add(
        "non-decomposable-q",
        "the reference unit 2-vector is rejected with kernel dimension below 2",
        lambda: (
            (res := exterior.is_decomposable(nd.inputs["q"], 4, 2, policy)).decomposable is False
            and res.kernel.shape[1] < 2
        ),
    )
    return checks


def run_fixture_checks(policy: TolerancePolicy = DEFAULT_POLICY) -> list[tuple[str, bool, str]]:
    """Run every fixture check; returns (name, passed, detail) rows."""
    results = []
    for check in fixture_checks(policy):
        try:
            passed = bool(check.run())
        except Exception as exc:  # a crashing check is a failing check
            results.append((check.name, False, f"{check.detail} [raised {type(exc).__name__}: {exc}]"))
            continue
        results.append((check.name, passed, check.detail))
    return results


def _matches_up_to_sign(got: np.ndarray, want: np.ndarray, atol: float) -> bool:
    return bool(
        np.allclose(got, want, rtol=0, atol=atol) or np.allclose(-got, want, rtol=0, atol=atol)
    )


def _columns_match_up_to_sign(got: np.ndarray, want: np.ndarray, atol: float) -> bool:
    if got.shape != want.shape:
        return False
    return all(
        _matches_up_to_sign(got[:, j], want[:, j], atol) for j in range(got.shape[1])
    )


def _rank3_svd(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    U, s, Vt = np.linalg.svd(M)
    return U[:, :3], s[:3], Vt[:3].T


def _run_aligned(recovery_mod, M: np.ndarray):
    """Aligned (V_tilde, W_tilde) computed by the pipeline from scratch on M."""
    L, s, R = _rank3_svd(M)
    V_hat = recovery_mod.wedge_decompose(L, 4, 3, 2)
    W_hat = recovery_mod.wedge_decompose(R, 4, 3, 2)
    aligned = recovery_mod.align_and_sign_adjust(V_hat, W_hat, L, R, s, 2)
    return aligned.V_tilde, aligned.W_tilde


def _aligned_from_printed(recovery_mod, rec: Fixture) -> np.ndarray:
    """W_tilde from the printed rounded V_hat/W_hat against the exact SVD of M."""
    L, s, R = _rank3_svd(rec.inputs["M"])
    # printed factors carry 2-decimal rounding, so sign matching cannot hold
    # at the production tolerance; the policy knobs are the sanctioned loosening
    loose = TolerancePolicy(sign_atol=0.1, residual_rtol=1e-2)
    aligned = recovery_mod.align_and_sign_adjust(
        rec.expected["V_hat"], rec.expected["W_hat"], L, R, s, 2, loose
    )
    return aligned.W_tilde
