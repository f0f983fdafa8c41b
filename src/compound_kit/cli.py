"""Command-line interface.

Subcommands: ``compound``, ``inverse``, ``verify``, ``adjugate``,
``fixtures``, ``bench``.  Exit codes: 0 success, 1 the input is not a
compound of the requested shape (or verification failed), 2 a numerical
stage failed, 3 bad arguments or I/O.  Failures print
``error: <tag>: <message>`` on stderr with a stable machine-readable tag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import (
    CompoundKitError, InvalidArgumentError, MatrixIOError, NotCompoundDecomposableError,
    VerificationFailedError,
)
from .exterior import adjugate, adjugate_via_compound, compound
from .matio import _write_text, parse_matrix, render_matrix, write_matrix
from .numerics import TolerancePolicy
from .recovery import (
    RankDeficientFamily,
    RankOneFamily,
    UniqueUpToSign,
    inverse_compound,
    reconstruction_residual,
)
from .testkit import random_rank_r, run_fixture_checks

SEED_ENV_VAR = "COMPOUND_KIT_SEED"


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; route them through our exit-code map."""

    def error(self, message):
        raise InvalidArgumentError(message)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except CompoundKitError as exc:
        print(f"error: {exc.tag}: {exc}", file=sys.stderr)
        return exc.exit_code


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="compound-kit",
        description="Multiplicative compound matrices and inverse-compound recovery.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compound", help="k-th multiplicative compound of a matrix")
    p.add_argument("--in", dest="infile", required=True, help="input matrix (CSV or JSON)")
    p.add_argument("--k", type=int, required=True, help="minor size")
    p.add_argument("--out", help="output file; stdout as CSV when omitted")
    p.set_defaults(handler=_cmd_compound)

    p = sub.add_parser("inverse", help="recover a matrix from its k-th compound")
    p.add_argument("--in", dest="infile", required=True, help="compound matrix (CSV or JSON)")
    p.add_argument("--n", type=int, required=True, help="row count of the matrix to recover")
    p.add_argument("--m", type=int, required=True, help="column count of the matrix to recover")
    p.add_argument("--k", type=int, required=True, help="compound grade")
    p.add_argument("--seed", type=int, help=f"random seed (default: ${SEED_ENV_VAR} or 0)")
    p.add_argument(
        "--canonical-sign",
        action="store_true",
        help="for even k, pick the sign making the first nonzero entry positive",
    )
    p.add_argument("--json-report", help="write a JSON recovery report to this file")
    p.add_argument(
        "--out",
        help="output file; rank-one families write three files with suffixes .U/.S/.V",
    )
    p.set_defaults(handler=_cmd_inverse)

    p = sub.add_parser("verify", help="check that compound(A, k) reproduces M")
    p.add_argument("--a", required=True, help="candidate matrix file")
    p.add_argument("--m", required=True, help="compound matrix file")
    p.add_argument("--k", type=int, required=True, help="compound grade")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("adjugate", help="adjugate of a square matrix")
    p.add_argument("--in", dest="infile", required=True, help="input matrix (CSV or JSON)")
    p.add_argument(
        "--via-compound",
        action="store_true",
        help="use the compound-transpose identity instead of cofactors",
    )
    p.add_argument("--out", help="output file; stdout as CSV when omitted")
    p.set_defaults(handler=_cmd_adjugate)

    p = sub.add_parser("fixtures", help="run the bundled reference fixtures")
    p.set_defaults(handler=_cmd_fixtures)

    p = sub.add_parser("bench", help="time recovery stages across sizes")
    p.add_argument("--max-n", type=int, required=True, help="largest square size to time")
    p.add_argument("--k", type=int, required=True, help="compound grade")
    p.add_argument("--reps", type=int, required=True, help="repetitions per size")
    p.add_argument("--seed", type=int, help=f"random seed (default: ${SEED_ENV_VAR} or 0)")
    p.add_argument("--csv", help="also write per-stage timings to this CSV file")
    p.set_defaults(handler=_cmd_bench)

    return parser


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise InvalidArgumentError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _emit_matrix(X: np.ndarray, out: str | None) -> None:
    if out is None:
        sys.stdout.write(render_matrix(X, "csv"))
    else:
        write_matrix(out, X)


def _cmd_compound(args) -> int:
    X = parse_matrix(args.infile)
    _emit_matrix(compound(X, args.k), args.out)
    return 0


_OUTCOME_LABELS = {
    UniqueUpToSign: "unique",
    RankOneFamily: "rank_one_family",
    RankDeficientFamily: "rank_deficient",
}


def _cmd_inverse(args) -> int:
    M = parse_matrix(args.infile)
    policy = TolerancePolicy(rng_seed=_resolve_seed(args))
    result = inverse_compound(
        M, args.n, args.m, args.k, policy, canonical_sign=args.canonical_sign
    )
    outcome, report = result.outcome, result.report

    # the report goes first, so a report that cannot be written leaves no answer behind
    if args.json_report:
        payload = {
            "outcome": _OUTCOME_LABELS[type(outcome)],
            "route": report.route,
            "sign_ambiguous": isinstance(outcome, UniqueUpToSign) and outcome.sign_ambiguous,
            "residual": report.reconstruction_residual,
            "inferred_r": report.inferred_r,
            "preprocessing_used": report.preprocessing_used,
            "resamples": report.resample_count,
            "timings_ms": {k: v * 1e3 for k, v in report.stage_timings.items()},
        }
        _write_text(args.json_report, json.dumps(payload, indent=2) + "\n")

    if isinstance(outcome, RankOneFamily):
        fmt = "json" if args.out and args.out.lower().endswith(".json") else "csv"
        written = []
        try:
            for name, X in zip("USV", (outcome.U, outcome.Sigma, outcome.V)):
                if args.out is None:
                    sys.stdout.write(f"{name}:\n" + render_matrix(X, "csv"))
                else:
                    write_matrix(f"{args.out}.{name}", X, fmt)
                    written.append(f"{args.out}.{name}")
        except MatrixIOError:
            for path in written:  # a family is written whole or not at all
                os.remove(path)
            raise
    else:
        A = outcome.A if isinstance(outcome, UniqueUpToSign) else outcome.representative()
        _emit_matrix(A, args.out)
    return 0


def _cmd_verify(args) -> int:
    A = parse_matrix(args.a)
    M = parse_matrix(args.m)
    policy = TolerancePolicy()
    residual = reconstruction_residual(A, M, args.k)
    print(f"residual: {residual:.6e}")
    if not residual <= policy.residual_rtol:
        message = f"reconstruction residual {residual:.3e} exceeds {policy.residual_rtol:.1e}"
        raise VerificationFailedError(message)
    return 0


def _cmd_adjugate(args) -> int:
    X = parse_matrix(args.infile)
    result = adjugate_via_compound(X) if args.via_compound else adjugate(X)
    _emit_matrix(result, args.out)
    return 0


def _cmd_fixtures(args) -> int:
    rows = run_fixture_checks()
    width = max(len(name) for name, _, _ in rows)
    failures = 0
    for name, passed, detail in rows:
        status = "ok" if passed else "FAIL"
        print(f"{name:<{width}}  {status:<4}  {detail}")
        failures += not passed
    print(f"{len(rows) - failures}/{len(rows)} fixture checks passed")
    if failures:
        raise NotCompoundDecomposableError(f"{failures} fixture check(s) failed")
    return 0


@dataclass(frozen=True)
class BenchRecord:
    n: int
    rep: int
    total_s: float
    stage_timings: dict[str, float]


def run_bench(sizes, k: int, reps: int, seed: int = 0) -> list[BenchRecord]:
    """Time full recoveries of compounds of random full-rank square matrices.

    Each record carries the wall-clock total and the pipeline's own stage
    timings.  Every run is verified (the pipeline does so internally), so
    the timings cover honest end-to-end recoveries.
    """
    records = []
    for n in sizes:
        if not 1 <= k < n:
            raise InvalidArgumentError(f"need 1 <= k < n, got k={k}, n={n}")
        for rep in range(reps):
            A = random_rank_r(n, n, n, seed=seed + 7919 * n + rep)
            M = compound(A, k)
            policy = TolerancePolicy(rng_seed=seed + rep)
            start = time.perf_counter()
            result = inverse_compound(M, n, n, k, policy)
            total = time.perf_counter() - start
            records.append(
                BenchRecord(
                    n=n,
                    rep=rep,
                    total_s=total,
                    stage_timings=dict(result.report.stage_timings),
                )
            )
    return records


def _cmd_bench(args) -> int:
    if args.max_n < args.k + 1:
        raise InvalidArgumentError(f"--max-n must exceed --k, got {args.max_n} <= {args.k}")
    sizes = list(range(args.k + 1, args.max_n + 1))
    records = run_bench(sizes, args.k, args.reps, seed=_resolve_seed(args))

    stages = sorted({name for rec in records for name in rec.stage_timings})
    # the CSV goes first, so a CSV that cannot be written leaves no table behind
    if args.csv:
        lines = ["n,rep,total_ms," + ",".join(f"{s}_ms" for s in stages)]
        for rec in records:
            cells = ",".join(f"{rec.stage_timings.get(s, 0.0) * 1e3:.6f}" for s in stages)
            lines.append(f"{rec.n},{rec.rep},{rec.total_s * 1e3:.6f},{cells}")
        _write_text(args.csv, "\n".join(lines) + "\n")

    print(f"{'n':>4} {'rep':>4} {'total_ms':>10}  " + "  ".join(f"{s}_ms" for s in stages))
    for rec in records:
        cells = "  ".join(f"{rec.stage_timings.get(s, 0.0) * 1e3:.3f}" for s in stages)
        print(f"{rec.n:>4} {rec.rep:>4} {rec.total_s * 1e3:>10.3f}  {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
