"""Run one seeded corpus through ``inverse_compound`` from two source trees and diff the outcomes.

Usage::

    python tools/outcome_diff.py OLD_TREE NEW_TREE [--seeds 1 2 3 4] [--cases 5000] [--handover]

Each tree is a checkout holding ``src/compound_kit``.  The corpus is built
from the seeds alone, with the benchmark's own determinants
(``perfbench/cases.py``) and without either tree's code: exact compounds,
graded spectra (condition 1e2 to 1e10, half of them under
``rank_rtol=1e-12``), repeated and orthogonal spectra, rank-deficient
sources, scales 1e+-50 to 1e+-200, perturbations 1e-12 to 1e-4 of max|M|,
Gaussian M, rank-2 M, outer products and noise-level M (the rounding noise
of a rank k-1 source's compound), all with 2 <= n, m <= 7 and every k.  Each tree
runs the whole corpus in its own subprocess, with BLAS pinned to one thread
and every warning turned into an error; an exception without a tag, a
warning among them, is recorded as ``untagged:<type>``.  With
``--handover`` both workers rebind ``recovery._contract``, rung 1, to raise a
``CompoundKitError``, so that every input is handed over and the SVD route
(rung 2) runs alone.  That works on every tree that catches rung 1's
refusals around a call of ``recovery._contract``, whether in
``inverse_compound`` or in a wrapper of its own.

For every input the outcome type, the refusal tag, the route, ``inferred_r``,
``resample_count``, the stage names and the bytes of the answer are
compared, and the count of differing inputs is printed per field, with the
first few differing inputs.  The inputs that differ in the answer bytes
alone are counted per kind and per (n, k), so that a drift of rounding or
memory layout is located without a bisect.  Every input whose outcome or
tag differs is counted per kind and per pair of old and new outcome-or-tag
(the tag of a refusal, otherwise the outcome type).  Every input whose
outcome is ``untagged:*`` in either tree is printed too, however many there
are, with its kind, shape, k, ``rank_rtol`` and the exception's message.  The exit
status is 1 when any field differs.

Without ``--handover`` each worker also wraps ``recovery._contract`` and
records rung 1's refusal of every input as ``tag: message``, with the
numbers in the message masked as ``#``.  Per tree, every triple of the
input's corpus kind, that rung-1 reason and the input's final
outcome-or-tag is counted, so that the inputs rung 2 answers and the
refusals whose tag rung 2 changes are read off by kind and cause.

For the kinds whose source is the answer (exact, graded, repeated,
orthogonal, rank-deficient, and scaled, whose source is scaled by ``c^(1/k)``),
the worst relative error ``|A - source| / |source|`` of each tree's
``UniqueUpToSign`` answers is printed per kind, up to sign at even k, with
both matrices divided by ``max|source|`` before the norms are taken; graded
is printed also as error / cond.  Every answer's
``report.reconstruction_residual`` is recorded, and the worst of each
tree's ``RankOneFamily`` answers is printed per kind.  Neither enters the
exit status.
Standard library and NumPy only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from cases import minors  # noqa: E402  (the benchmark's independent compound)

KINDS = (
    "exact", "graded", "repeated", "orthogonal", "rank-deficient", "scaled", "perturbed",
    "gaussian", "rank-2", "outer", "noise",
)
FIELDS = ("outcome", "tag", "route", "inferred_r", "resample_count", "stages", "answer")
SOURCED = ("exact", "graded", "repeated", "orthogonal", "rank-deficient", "scaled")
SHOW = 5  # differing inputs printed
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def source(rng: np.random.Generator, n: int, m: int, spectrum: np.ndarray) -> np.ndarray:
    """U diag(spectrum) V^T with random orthonormal U (n x r) and V (m x r)."""
    r = spectrum.size
    U = np.linalg.qr(rng.standard_normal((n, max(r, 1))))[0][:, :r]
    V = np.linalg.qr(rng.standard_normal((m, max(r, 1))))[0][:, :r]
    return U @ (spectrum[:, None] * V.T)


def make_case(rng: np.random.Generator, kind: str):
    """One corpus input: (kind, M, n, m, k, rank_rtol or None, (source, cond) or None).

    The source is kept for the kinds in :data:`SOURCED`, with the condition
    number of its spectrum.
    """
    n, m = int(rng.integers(2, 8)), int(rng.integers(2, 8))
    k = int(rng.integers(1, min(n, m) + 1))
    shape = (math.comb(n, k), math.comb(m, k))
    r = min(n, m)
    rank_rtol = None
    if kind == "gaussian":
        return kind, rng.standard_normal(shape), n, m, k, None, None
    if kind == "rank-2":
        M = rng.standard_normal((shape[0], 2)) @ rng.standard_normal((2, shape[1]))
        return kind, M, n, m, k, None, None
    if kind == "outer":
        outer = np.outer(rng.standard_normal(shape[0]), rng.standard_normal(shape[1]))
        return kind, outer, n, m, k, None, None
    spectrum = np.sort(rng.uniform(0.5, 2.0, size=r))[::-1]
    if kind == "graded":
        spectrum = float(10.0 ** rng.uniform(2, 10)) ** (-np.arange(r) / max(r - 1, 1))
        rank_rtol = 1e-12 if rng.random() < 0.5 else None
    elif kind == "repeated" and r > 1:
        i = int(rng.integers(0, r - 1))
        spectrum[i + 1 : i + 2 + int(rng.integers(0, r - 1 - i))] = spectrum[i]
    elif kind == "orthogonal":
        spectrum = np.ones(r)
    elif kind == "rank-deficient":
        spectrum = spectrum[: int(rng.integers(k, max(k, r - 1) + 1))]
    elif kind == "noise":
        spectrum = spectrum[: k - 1]
    A = source(rng, n, m, spectrum)
    with np.errstate(all="ignore"):  # a singular block may meet a subnormal pivot
        M = minors(A, k)
    if kind == "scaled":
        exponent = float(rng.choice([-1, 1]) * rng.uniform(50, 200))
        M = M * 10.0**exponent
        A = A * 10.0 ** (exponent / k)
    elif kind == "perturbed":
        M = M + 10.0 ** rng.uniform(-12, -4) * np.abs(M).max() * rng.standard_normal(shape)
    truth = (A, float(spectrum[0] / spectrum[-1])) if kind in SOURCED else None
    return kind, M, n, m, k, rank_rtol, truth


def corpus(seeds: list[int], cases: int) -> list[tuple]:
    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for index in range(cases):
            out.append(make_case(rng, KINDS[index % len(KINDS)]))
    return out


def relative_error(A: np.ndarray, truth: np.ndarray, k: int) -> float:
    """``|A - truth| / |truth|``, up to sign at even k, after dividing both by ``max|truth|``."""
    peak = float(np.max(np.abs(truth)))
    A, truth = A / peak, truth / peak
    error = np.linalg.norm(A - truth)
    if k % 2 == 0:
        error = min(error, np.linalg.norm(A + truth))
    return float(error / np.linalg.norm(truth))


def run_tree(src: Path, corpus_path: Path, out_path: Path, handover: bool) -> None:
    """The worker: every corpus input through the tree's ``inverse_compound``, as JSON records."""
    sys.path.insert(0, str(src))
    import compound_kit as ck

    if src.resolve() not in Path(ck.__file__).resolve().parents:
        raise SystemExit(f"imported {ck.__file__}, not the tree under {src}")
    if handover:

        def refuse(*args):
            raise ck.CompoundKitError("rung 1 refuses every input under --handover")

        ck.recovery._contract = refuse
    else:
        contract = ck.recovery._contract

        def census(*args):
            try:
                return contract(*args)
            except Exception as err:  # where rung 1 recurses for M^T, the outermost call records last
                tag = getattr(err, "tag", f"untagged:{type(err).__name__}")
                record["rung1"] = f"{tag}: {NUMBER.sub('#', str(err))}"
                raise

        ck.recovery._contract = census
    records = []
    for kind, M, n, m, k, rank_rtol, truth in pickle.loads(corpus_path.read_bytes()):
        policy = ck.TolerancePolicy() if rank_rtol is None else ck.TolerancePolicy(rank_rtol=rank_rtol)
        record = dict.fromkeys(FIELDS + ("error", "message", "rung1", "residual"))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                result = ck.inverse_compound(M, n, m, k, policy)
        except ck.CompoundKitError as err:
            record.update(outcome="refused", tag=err.tag)
        except Exception as err:  # a warning turned error, or an untagged failure
            record.update(
                outcome="refused", tag=f"untagged:{type(err).__name__}", message=str(err)
            )
        else:
            outcome, report = result.outcome, result.report
            if isinstance(outcome, ck.UniqueUpToSign):
                arrays = (outcome.A,)
                if truth is not None:
                    record["error"] = relative_error(outcome.A, truth[0], k)
            elif isinstance(outcome, ck.RankOneFamily):
                arrays = (outcome.U, outcome.Sigma, outcome.V)
            else:
                arrays = (np.array([outcome.n, outcome.m, outcome.k]),)
            record.update(
                outcome=type(outcome).__name__,
                route=report.route,
                inferred_r=report.inferred_r,
                resample_count=report.resample_count,
                residual=report.reconstruction_residual,
                stages=sorted(report.stage_timings),
                answer=hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()[:16],
            )
        records.append(record)
    out_path.write_text(json.dumps(records))


def outcome_or_tag(record: dict) -> str:
    """The refusal tag of a refused input, otherwise its outcome type."""
    return record["tag"] if record["outcome"] == "refused" else record["outcome"]


def tally(records: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for record in records:
        key = outcome_or_tag(record)
        counts[key] = counts.get(key, 0) + 1
    return counts


def worst_errors(records: list[dict], inputs: list[tuple]) -> dict[str, float]:
    """The worst relative error per sourced kind, and of graded also divided by cond."""
    worst: dict[str, float] = {}
    for record, (kind, *_, truth) in zip(records, inputs):
        if record["error"] is None:
            continue
        worst[kind] = max(worst.get(kind, 0.0), record["error"])
        if kind == "graded":
            worst["graded/cond"] = max(worst.get("graded/cond", 0.0), record["error"] / truth[1])
    return worst


def worst_family_residuals(records: list[dict], inputs: list[tuple]) -> dict[str, float]:
    """The worst reconstruction residual of the ``RankOneFamily`` answers, per kind."""
    worst: dict[str, float] = {}
    for record, (kind, *_) in zip(records, inputs):
        if record["outcome"] == "RankOneFamily":
            worst[kind] = max(worst.get(kind, 0.0), record["residual"])
    return worst


def main() -> int:
    if sys.argv[1:2] == ["--worker"]:
        run_tree(*map(Path, sys.argv[2:5]), handover=sys.argv[5:6] == ["--handover"])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path, help="checkout holding src/compound_kit")
    parser.add_argument("new", type=Path, help="checkout holding src/compound_kit")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4])
    parser.add_argument("--cases", type=int, default=5000, help="inputs per seed")
    parser.add_argument(
        "--handover", action="store_true", help="hand every input over to the SVD route (rung 2)"
    )
    args = parser.parse_args()

    inputs = corpus(args.seeds, args.cases)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory() as tmp:
        corpus_path = Path(tmp) / "corpus.pkl"
        corpus_path.write_bytes(pickle.dumps(inputs))
        runs = []
        for label, tree in (("old", args.old), ("new", args.new)):
            out_path = Path(tmp) / f"{label}.json"
            command = [sys.executable, __file__, "--worker", str(tree / "src"), str(corpus_path),
                       str(out_path)] + ["--handover"] * args.handover
            subprocess.run(command, check=True, env=env)
            runs.append(json.loads(out_path.read_text()))
    old, new = runs

    print(f"{len(inputs)} inputs, seeds {' '.join(map(str, args.seeds))}, {args.cases} per seed"
          + (", rung 2 alone (--handover)" if args.handover else ""))
    old_tally, new_tally = tally(old), tally(new)
    for key in sorted(set(old_tally) | set(new_tally)):
        print(f"  {key:28s} old {old_tally.get(key, 0):6d}  new {new_tally.get(key, 0):6d}")
    print("worst relative error of the UniqueUpToSign answers against their source:")
    old_worst, new_worst = worst_errors(old, inputs), worst_errors(new, inputs)
    for key in ("exact", "graded", "graded/cond", *SOURCED[2:]):
        old_value, new_value = old_worst.get(key, math.nan), new_worst.get(key, math.nan)
        print(f"  {key:28s} old {old_value:.1e}  new {new_value:.1e}")
    print("worst reconstruction residual of the RankOneFamily answers:")
    old_worst, new_worst = worst_family_residuals(old, inputs), worst_family_residuals(new, inputs)
    for key in [kind for kind in KINDS if kind in old_worst or kind in new_worst]:
        old_value, new_value = old_worst.get(key, math.nan), new_worst.get(key, math.nan)
        print(f"  {key:28s} old {old_value:.1e}  new {new_value:.1e}")
    differing = [
        i for i in range(len(inputs)) if any(old[i][name] != new[i][name] for name in FIELDS)
    ]
    print(f"differences ({len(differing)} inputs differ in at least one field):")
    for name in FIELDS:
        count = sum(old[i][name] != new[i][name] for i in differing)
        print(f"  {name:16s} {count}")
    answer_only = [
        i for i in differing
        if all(old[i][name] == new[i][name] for name in FIELDS if name != "answer")
    ]
    if answer_only:
        kinds = Counter(inputs[i][0] for i in answer_only)
        grades = Counter((inputs[i][2], inputs[i][4]) for i in answer_only)
        print(f"  answer alone   {len(answer_only)}, by kind: "
              + ", ".join(f"{kind} {count}" for kind, count in sorted(kinds.items())))
        print("    by (n, k): "
              + ", ".join(f"({n}, {k}) {count}" for (n, k), count in sorted(grades.items())))
    moves = Counter(
        (inputs[i][0], outcome_or_tag(old[i]), outcome_or_tag(new[i])) for i in differing
        if outcome_or_tag(old[i]) != outcome_or_tag(new[i])
    )
    if moves:
        print(f"  outcome or tag moves ({sum(moves.values())} inputs), per kind:")
        for (kind, was, now), count in sorted(moves.items()):
            print(f"    {kind:16s} {was} -> {now}: {count}")
    for i in differing[:SHOW]:
        kind, _, n, m, k, rank_rtol, _ = inputs[i]
        fields = {name: (old[i][name], new[i][name]) for name in FIELDS if old[i][name] != new[i][name]}
        print(f"  input {i}: {kind} n={n} m={m} k={k} rank_rtol={rank_rtol}: {fields}")
    untagged = [
        (i, label, record) for i in range(len(inputs))
        for label, record in (("old", old[i]), ("new", new[i]))
        if (record["tag"] or "").startswith("untagged:")
    ]
    print(f"untagged outcomes ({len(untagged)}):")
    for i, label, record in untagged:
        kind, _, n, m, k, rank_rtol, _ = inputs[i]
        print(f"  input {i} ({label}): {kind} n={n} m={m} k={k} rank_rtol={rank_rtol}: "
              f"{record['tag']}: {record['message']}")
    if not args.handover:
        for label, records in (("old", old), ("new", new)):
            census = Counter(
                (kind, record["rung1"], outcome_or_tag(record))
                for record, (kind, *_) in zip(records, inputs) if record["rung1"]
            )
            print(f"rung-1 refusals by kind, reason and final outcome-or-tag ({label}, "
                  f"{sum(census.values())} inputs):")
            for (kind, reason, final), count in sorted(census.items()):
                print(f"  {count:6d}  {kind:16s} {reason} -> {final}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
