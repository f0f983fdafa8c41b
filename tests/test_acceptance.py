"""End-to-end acceptance checks, one test per numbered criterion.

Each test exercises a complete behavior at its stated tolerance and appends
one ``criterion NN [...] PASS/FAIL`` line to the summary section printed at
the end of the run.  Criterion 2 has two variants: the literal one feeds the
2-decimal printed right-hand side into the log-linear system and cannot meet
the 5e-3 target (the inputs carry ~5e-3 rounding error each, which the solve
amplifies to ~1.4e-2), so it is marked as a strict expected failure; the
substance variant solves the same system from the exactly computed compound
singular values and passes within 5e-3.
"""

import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

from compound_kit import (
    DEFAULT_POLICY,
    RankOneFamily,
    TolerancePolicy,
    UniqueUpToSign,
    adjugate,
    align_and_sign_adjust,
    binom,
    closed_form_inverse_nminus1,
    compound,
    family_contains,
    inverse_compound,
    is_decomposable,
    recover_singular_values,
    sign_reversal_pair,
)
from compound_kit import reference
from compound_kit.cli import run_bench
from compound_kit.testkit import load_fixtures, random_rank_r


def _record(lines, num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"criterion {num:02d} [{name}] {status}"
    if detail:
        line += f": {detail}"
    lines.append(line)
    assert passed, line


def _min_sign_error(A_hat, A):
    scale = np.linalg.norm(A)
    return min(np.linalg.norm(A_hat - A), np.linalg.norm(A_hat + A)) / scale


# ---------------------------------------------------------------------------
# criterion 1: full recovery of the bundled 4x4 example


def test_criterion_01_bundled_4x4_round_trip(acceptance_lines):
    fx = load_fixtures()["recovery-4x4"]
    A, M = fx.inputs["A"], fx.inputs["M"]
    start = time.perf_counter()
    result = inverse_compound(M, 4, 4, 2)
    elapsed = time.perf_counter() - start
    assert isinstance(result.outcome, UniqueUpToSign)
    err = _min_sign_error(result.outcome.A, A)
    _record(
        acceptance_lines, 1, "bundled 4x4 round trip",
        err <= 1e-8 and elapsed < 1.0,
        f"rel err {err:.2e} <= 1e-08, {elapsed * 1e3:.1f} ms < 1 s",
    )


# ---------------------------------------------------------------------------
# criterion 2: singular values from the log-linear system


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "the printed right-hand side is rounded to 2 decimals; the resulting "
        "singular values deviate from the printed targets by up to ~1.4e-2, "
        "which cannot meet the 5e-3 target (see the substance variant below)"
    ),
)
def test_criterion_02_singular_values_from_printed_logs_literal(acceptance_lines):
    fx = load_fixtures()["recovery-4x4"]
    log_rhs = fx.expected["log_rhs"]          # 2-decimal prints of log s
    target = fx.expected["sigma"]             # (10.50, 7.60, 5.92)
    sig = recover_singular_values(np.exp(log_rhs), r=3, k=2)
    max_dev = np.max(np.abs(sig - target))
    _record(
        acceptance_lines, 2, "singular values from printed logs (literal)",
        max_dev <= 5e-3,
        f"max abs dev {max_dev:.2e} <= 5e-03 (inputs rounded to 2 decimals)",
    )


def test_criterion_02_singular_values_from_exact_compound(acceptance_lines):
    fx = load_fixtures()["recovery-4x4"]
    M = fx.inputs["M"]
    target = fx.expected["sigma"]
    d = np.linalg.svd(M, compute_uv=False)[:3]
    sig = recover_singular_values(d, r=3, k=2)
    max_dev = np.max(np.abs(sig - target))
    _record(
        acceptance_lines, 2, "singular values from exact compound",
        max_dev <= 5e-3,
        f"max abs dev {max_dev:.2e} <= 5e-03 against the printed targets",
    )


# ---------------------------------------------------------------------------
# criterion 3: sign adjustment from sign-scrambled printed frames


def test_criterion_03_sign_adjustment_of_printed_frames(acceptance_lines):
    fx = load_fixtures()["recovery-4x4"]
    e = fx.expected
    # printed values carry two decimals, so matching tolerances are loose
    loose = TolerancePolicy(sign_atol=0.1, residual_rtol=1e-2)
    aligned = align_and_sign_adjust(
        e["V_hat"], e["W_hat"], e["L"], e["R"], e["s"], 2, loose
    )
    dev = min(
        np.max(np.abs(aligned.W_tilde - e["W_tilde"])),
        np.max(np.abs(aligned.W_tilde + e["W_tilde"])),
    )
    _record(
        acceptance_lines, 3, "sign adjustment of printed frames",
        dev <= 5e-3,
        f"max abs dev {dev:.2e} <= 5e-03 up to one global sign",
    )


# ---------------------------------------------------------------------------
# criterion 4: rank-one compound yields the bundled reference family


def test_criterion_04_rank_one_family_membership(acceptance_lines):
    fx = load_fixtures()["rank-one-3x3"]
    A, B, M = fx.inputs["A"], fx.inputs["B"], fx.inputs["M"]
    outcome = inverse_compound(M, 3, 3, 2).outcome
    assert isinstance(outcome, RankOneFamily)
    in_a = family_contains(A, outcome)
    in_b = family_contains(B, outcome)
    _record(
        acceptance_lines, 4, "rank-one family contains both preimages",
        in_a and in_b,
        f"A in family: {in_a}, B in family: {in_b}",
    )


# ---------------------------------------------------------------------------
# criterion 5: the classic non-decomposable 2-vector is rejected


def test_criterion_05_non_decomposable_vector_rejected(acceptance_lines):
    fx = load_fixtures()["non-decomposable-q"]
    result = is_decomposable(fx.inputs["q"], n=4, k=2)
    kernel_dim = result.kernel.shape[1]
    _record(
        acceptance_lines, 5, "non-decomposable 2-vector rejected",
        result.decomposable is False and kernel_dim < 2,
        f"decomposable={result.decomposable}, kernel dim {kernel_dim} < 2",
    )


# ---------------------------------------------------------------------------
# criterion 6: closed form at k = n-1 agrees with the full pipeline


def test_criterion_06_closed_form_matches_pipeline(acceptance_lines):
    worst = 0.0
    for n in (4, 5):
        for seed in range(50):
            A = random_rank_r(n, n, n, seed=1000 * n + seed)
            M = compound(A, n - 1)
            B = closed_form_inverse_nminus1(M)
            A_hat = inverse_compound(M, n, n, n - 1).outcome.A
            worst = max(worst, _min_sign_error(A_hat, B))
    _record(
        acceptance_lines, 6, "closed form vs pipeline at k = n-1",
        worst <= 1e-8,
        f"worst rel difference {worst:.2e} <= 1e-08 over 100 seeded matrices",
    )


# ---------------------------------------------------------------------------
# criterion 7: compound calculus identities


def _norm_close(lhs, rhs, rtol):
    scale = max(1e-300, float(np.linalg.norm(rhs)))
    return float(np.linalg.norm(lhs - rhs)) <= rtol * max(1.0, scale)


def test_criterion_07_compound_calculus_identities(acceptance_lines):
    rng = np.random.default_rng(7)
    rtol = 1e-8
    instances = 0
    failures = []

    for i in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        p = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(n, m, p) + 1))
        X = rng.standard_normal((n, p))
        Y = rng.standard_normal((p, m))

        if not _norm_close(compound(X @ Y, k), compound(X, k) @ compound(Y, k), rtol):
            failures.append((i, "product rule"))
        t = float(rng.uniform(0.5, 2.0))
        if not _norm_close(compound(t * X, k), t**k * compound(X, k), rtol):
            failures.append((i, "scaling"))
        if not _norm_close(compound(X.T, k), compound(X, k).T, rtol):
            failures.append((i, "transpose"))

        S = rng.standard_normal((n, n)) + n * np.eye(n)  # safely invertible
        kq = min(k, n)
        if not _norm_close(compound(np.linalg.inv(S), kq), np.linalg.inv(compound(S, kq)), rtol):
            failures.append((i, "inverse"))

        d = rng.uniform(0.5, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        D = compound(np.diag(d), kq)
        from compound_kit.exterior import _tuple_array
        expected_diag = np.prod(d[_tuple_array(n, kq)], axis=1)
        if not _norm_close(D, np.diag(expected_diag), rtol):
            failures.append((i, "diagonal"))

        r = int(rng.integers(1, min(n, m) + 1))
        A = random_rank_r(n, m, r, seed=10_000 + i)
        for kk in range(1, min(n, m) + 1):
            C = compound(A, kk)
            if kk <= r:
                rank = np.linalg.matrix_rank(C, tol=1e-9 * max(C.shape))
                if rank != binom(r, kk):
                    failures.append((i, f"rank at k={kk}"))
            else:
                if np.linalg.norm(C) > rtol * max(1.0, np.linalg.norm(A) ** kk):
                    failures.append((i, f"vanishing at k={kk} > rank"))

        det_lhs = np.linalg.det(compound(S, kq))
        det_rhs = np.linalg.det(S) ** binom(n - 1, kq - 1)
        if abs(det_lhs - det_rhs) > rtol * max(1.0, abs(det_rhs)):
            failures.append((i, "determinant power rule"))

        instances += 1

    _record(
        acceptance_lines, 7, "compound calculus identities",
        instances >= 100 and not failures,
        f"{instances} seeded instances, failures: {failures[:3] or 'none'}",
    )


# ---------------------------------------------------------------------------
# criterion 8: adjugate identities


def test_criterion_08_adjugate_identities(acceptance_lines):
    rng = np.random.default_rng(8)
    rtol = 1e-10
    failures = []
    for i in range(100):
        n = int(rng.integers(3, 7))
        A = rng.standard_normal((n, n))
        S, P = sign_reversal_pair(n)
        det = np.linalg.det(A)

        lhs = S @ P @ compound(A, n - 1).T @ P @ S
        if not _norm_close(lhs, adjugate(A), rtol):
            failures.append((i, "adjugate via compound transpose"))
        if not _norm_close(adjugate(adjugate(A)), det ** (n - 2) * A, rtol):
            failures.append((i, "double adjugate"))
        if not _norm_close(compound(compound(A, n - 1), n - 1), det ** (n - 2) * A, rtol):
            failures.append((i, "double compound"))
    _record(
        acceptance_lines, 8, "adjugate identities",
        not failures,
        f"100 seeded matrices (3x3..6x6), failures: {failures[:3] or 'none'}",
    )


# ---------------------------------------------------------------------------
# criteria 9 and 10 share one full sweep of the recovery pipeline


@dataclass(frozen=True)
class SweepOutcome:
    recoveries: int
    worst_min_sign_err: float
    worst_odd_k_signed_err: float
    elapsed_s: float
    exhaustive_calls: int


@pytest.fixture(scope="session")
def sweep():
    """Recover every (n, m, r, k) cell with n, m <= 7, 2 <= r <= 5, 20 seeds.

    The exhaustive sign search is rebound to a counter in every compound_kit
    module that binds it, so criterion 10 can confirm that the exponential
    fallback is never consulted, whichever module a call goes through.
    """
    calls = {"count": 0}
    original = reference._exhaustive_sign_vector

    def counting(*args, **kwargs):
        calls["count"] += 1
        return original(*args, **kwargs)

    bindings = [
        (module, attr)
        for name, module in list(sys.modules.items())
        if name == "compound_kit" or name.startswith("compound_kit.")
        for attr, obj in list(vars(module).items())
        if obj is original
    ]
    for module, attr in bindings:
        setattr(module, attr, counting)
    worst_min_sign = 0.0
    worst_odd_signed = 0.0
    recoveries = 0
    start = time.perf_counter()
    try:
        for n in range(2, 8):
            for m in range(2, 8):
                for r in range(2, min(n, m, 5) + 1):
                    for k in range(1, r):
                        for j in range(20):
                            seed = j + 31 * (n + 7 * m + 49 * r + 343 * k)
                            A = random_rank_r(n, m, r, seed=seed)
                            M = compound(A, k)
                            outcome = inverse_compound(M, n, m, k).outcome
                            A_hat = outcome.A
                            worst_min_sign = max(worst_min_sign, _min_sign_error(A_hat, A))
                            if k % 2 == 1:
                                signed = np.linalg.norm(A_hat - A) / np.linalg.norm(A)
                                worst_odd_signed = max(worst_odd_signed, signed)
                            recoveries += 1
    finally:
        for module, attr in bindings:
            setattr(module, attr, original)
    return SweepOutcome(
        recoveries=recoveries,
        worst_min_sign_err=worst_min_sign,
        worst_odd_k_signed_err=worst_odd_signed,
        elapsed_s=time.perf_counter() - start,
        exhaustive_calls=calls["count"],
    )


def test_criterion_09_full_recovery_sweep(acceptance_lines, sweep):
    passed = (
        sweep.worst_min_sign_err <= 1e-7
        and sweep.worst_odd_k_signed_err <= 1e-7
        and sweep.elapsed_s < 60.0
    )
    _record(
        acceptance_lines, 9, "full recovery sweep",
        passed,
        (
            f"{sweep.recoveries} recoveries, worst rel err {sweep.worst_min_sign_err:.2e}"
            f" <= 1e-07, odd-k exact-sign err {sweep.worst_odd_k_signed_err:.2e},"
            f" {sweep.elapsed_s:.1f} s < 60 s"
        ),
    )


def test_criterion_10_scaling_and_sign_solve(acceptance_lines, sweep):
    records = run_bench([6, 8, 10, 12], k=2, reps=3, seed=0)
    sizes = sorted({rec.n for rec in records})
    means = [np.mean([rec.total_s for rec in records if rec.n == n]) for n in sizes]
    slope = float(np.polyfit(np.log(sizes), np.log(means), 1)[0])
    passed = slope <= 7.0 and sweep.exhaustive_calls == 0
    _record(
        acceptance_lines, 10, "polynomial scaling, parity-only sign solve",
        passed,
        (
            f"log-log slope {slope:.2f} <= 7 over n in {sizes},"
            f" exhaustive sign fallback calls during sweep: {sweep.exhaustive_calls}"
        ),
    )


# ---------------------------------------------------------------------------
# criterion 11: identity compound needs (and survives) preprocessing


def test_criterion_11_identity_compound_preprocessing(acceptance_lines):
    worst = 0.0
    max_resamples = 0
    used_everywhere = True
    for seed in range(10):
        result = inverse_compound(np.eye(6), 4, 4, 2, TolerancePolicy(rng_seed=seed))
        report = result.report
        used_everywhere &= report.preprocessing_used
        max_resamples = max(max_resamples, report.resample_count)
        A_hat = result.outcome.A
        worst = max(worst, np.max(np.abs(compound(A_hat, 2) - np.eye(6))))
    passed = (
        used_everywhere
        and max_resamples <= DEFAULT_POLICY.max_resample
        and worst <= 1e-8
    )
    _record(
        acceptance_lines, 11, "identity compound via preprocessing",
        passed,
        (
            f"10 seeds, preprocessing used in all, max resamples {max_resamples}"
            f" <= {DEFAULT_POLICY.max_resample}, worst entry dev {worst:.2e} <= 1e-08"
        ),
    )
