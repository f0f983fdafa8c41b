"""One workload in its own process: set up, run whole passes, report raw metrics.

Started by ``run.py`` with the BLAS and OpenMP thread variables already set
to 1 in its environment.  Protocol on stdout: the line ``READY`` once set-up
is done (the parent times set-up up to it), the line ``SPEED <factor>`` with
this process's host-speed factor (see below), then, unless ``--setup-only``
was given, the timed passes and one line ``RESULT <json>``.

The loop is closed with one client: each operation starts after the previous
one and its check have finished.  A pass is one run over the whole case
list; passes repeat until the next one would overrun the time budget, with
at least ``MIN_PASSES``.  Checks run outside the timed region.

Timings are medians: each case's latency is its median over the passes,
percentiles are taken over those per-case medians, and throughput divides
the correct operations of one pass by the sum of the per-case medians.

The speed of a shared host drifts by tens of percent over seconds to
minutes, which no run length within the budget averages out.  So a fixed
reference loop (``_reference_loop``: NumPy and interpreter work that never
calls the program) is timed before each operation, and reported times are
host-speed adjusted: an operation's wall time is multiplied by
``REFERENCE_S`` over the median time of the ``SPEED_WINDOW`` reference loops
nearest to it, and a set-up time by the factor its process prints on its
``SPEED`` line.  Adjusted times read as seconds on a host where the loop takes
exactly ``REFERENCE_S``; the unadjusted wall times are reported beside them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import cases as workloads
import tracing
from run import THREAD_VARS

#: Functions whose calls and self time are reported per layer.
LAYER_FUNCTIONS = (
    "recovery.inverse_compound", "recovery.wedge_decompose", "recovery.preprocess_distinct",
    "recovery.align_and_sign_adjust", "recovery.order_compound_singular_values",
    "recovery.recover_singular_values", "recovery.rank_one_inverse",
    "recovery.reconstruction_residual", "exterior.compound", "exterior.wedge_matrix",
    "numerics.subspace_intersection", "numerics.kernel_basis", "numerics.reduced_svd",
    "numerics.least_squares", "numerics.gf2_solve", "combinat.incidence_matrix",
)


MIN_PASSES = 3
REFERENCE_S = 6.5e-4  # about the loop's time on a 2-vCPU Xeon VM
SPEED_WINDOW = 9
_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((12, 12))


def _import_program(src: Path):
    import compound_kit
    import compound_kit.testkit  # noqa: F401  (the forward oracle)

    if src not in Path(compound_kit.__file__).resolve().parents:
        raise SystemExit(f"compound_kit imported from {compound_kit.__file__}, not from {src}")
    return compound_kit


def _operation(case, ck):
    if case.kind == "forward":
        M = ck.compound(case.A, case.k)
        return M, ck.reconstruction_residual(case.A, M, case.k)
    return ck.inverse_compound(case.M, case.n, case.m, case.k)


def _warm_up(cases, ck) -> None:
    """Fill the lru_cache'd tuple tables for every (dimension, k) the cases use."""
    for d, k in sorted({(d, c.k) for c in cases for d in range(c.k, max(c.n, c.m) + 1)}):
        ck.compound(np.ones((d, k)), k)
        if k < d:
            ck.wedge_matrix(np.ones(math.comb(d, k)), d, k)


def _reference_loop() -> float:
    """Seconds for a fixed mix of small LAPACK calls and interpreted arithmetic."""
    start = perf_counter()
    for _ in range(10):
        np.linalg.svd(_REFERENCE_MATRIX)
    total = 0
    for i in range(2000):
        total += i * i
    return perf_counter() - start


def _speed_scale(reference: list) -> np.ndarray:
    """REFERENCE_S over the rolling median of the reference times, in time order."""
    flat = np.array(reference).ravel()
    half = SPEED_WINDOW // 2
    local = [np.median(flat[max(0, i - half):i + half + 1]) for i in range(flat.size)]
    return (REFERENCE_S / np.array(local)).reshape(np.shape(reference))


def _run_phase(cases, ck, budget_s: float, tracer=None) -> dict:
    latencies, reference = [], []
    verdicts, outcomes, rejects = Counter(), Counter(), Counter()
    numpy_warnings = passes = 0
    start = perf_counter()
    while True:
        latencies.append([])
        reference.append([])
        for case in cases:
            reference[-1].append(_reference_loop())
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                error = output = None
                if tracer is not None:
                    tracer.begin_op()
                t0 = perf_counter()
                try:
                    output = _operation(case, ck)
                except Exception as exc:  # every failure is classified below
                    error = exc
                elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.end_op(elapsed)
            latencies[-1].append(elapsed)
            numpy_warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
            verdicts[workloads.check(case, output, error, ck)] += 1
            if error is not None:
                tag = error.tag if isinstance(error, ck.CompoundKitError) else "untagged"
                rejects[tag] += 1
            elif case.kind != "forward":
                outcomes[type(output.outcome).__name__] += 1
            del output, error
        passes += 1
        spent = perf_counter() - start
        if passes >= MIN_PASSES and spent + spent / passes > budget_s:
            break
    return {
        "latencies": latencies, "reference": reference, "verdicts": verdicts, "outcomes": outcomes,
        "rejects": rejects, "numpy_warnings": numpy_warnings, "passes": passes,
    }


def _timings(latencies: np.ndarray, correct_per_pass: float, prefix: str = "") -> dict:
    per_case = np.median(latencies, axis=0)
    return {
        f"{prefix}ops_per_s": correct_per_pass / float(per_case.sum()),
        f"{prefix}latency_p50_ms": float(np.percentile(per_case, 50)) * 1e3,
        f"{prefix}latency_p90_ms": float(np.percentile(per_case, 90)) * 1e3,
    }


def _end_to_end(phase: dict) -> dict:
    raw = np.array(phase["latencies"])
    cases = raw.shape[1]
    correct_per_pass = phase["verdicts"]["ok"] / phase["passes"]
    return {
        **_timings(raw * _speed_scale(phase["reference"]), correct_per_pass),
        **_timings(raw, correct_per_pass, prefix="wall_"),
        "reference_loop_ms": float(np.median(phase["reference"])) * 1e3,
        "success_ratio": correct_per_pass / cases,
        "fail_ratio": 1.0 - correct_per_pass / cases,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(phase: dict, tracer: tracing.Tracer, untraced_ops_per_s: float, ck) -> dict:
    passes = phase["passes"]
    ops = passes * len(phase["latencies"][0])
    out = {}
    for name in LAYER_FUNCTIONS:
        out[f"{name}.calls"] = tracer.calls[name] / passes
        out[f"{name}.self_ms"] = tracer.self_s[name] * 1e3 / ops
    for name in ("exterior.compound.minors", "exterior.wedge_matrix.entries"):
        out[name] = tracer.counters[name] / passes
    out["exterior.compound.stack_mb"] = tracer.counters["exterior.compound.stack_mb"]
    intersections = tracer.calls["numerics.subspace_intersection"]
    out["numerics.subspace_intersection.useful_ratio"] = (
        tracer.counters["numerics.subspace_intersection.useful"] / intersections if intersections else 0.0
    )
    out["recovery.preprocess.used"] = tracer.counters["recovery.preprocess_distinct.used"] / passes
    out["recovery.preprocess.resamples"] = (
        tracer.children["recovery.preprocess_distinct", "exterior.compound"] / passes
    )
    for label, cls in (("unique", ck.UniqueUpToSign), ("rank_one_family", ck.RankOneFamily),
                       ("rank_deficient", ck.RankDeficientFamily)):
        out[f"recovery.outcome.{label}"] = phase["outcomes"][cls.__name__] / passes
    tags = {cls.tag for cls in _subclasses(ck.CompoundKitError)} | {"untagged"}
    for tag in sorted(tags):
        out[f"recovery.reject.{tag}"] = phase["rejects"][tag] / passes
    out["recovery.numpy_warnings"] = phase["numpy_warnings"] / passes
    for name in ("recovery.wedge_decompose", "exterior.compound"):
        out[f"{name}.share"] = tracer.inclusive_s[name] / tracer.op_s
    out["trace.overhead_ratio"] = untraced_ops_per_s / _end_to_end(phase)["ops_per_s"]
    return out


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _environment() -> dict:
    try:
        config = np.show_config(mode="dicts") or {}
    except TypeError:  # NumPy before 1.26 only prints its configuration
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ck = _import_program(args.src.resolve())
    cases = workloads.WORKLOADS[args.workload](args.seed)
    _warm_up(cases, ck)
    print("READY", flush=True)
    speed = REFERENCE_S / float(np.median([_reference_loop() for _ in range(SPEED_WINDOW)]))
    print(f"SPEED {speed!r}", flush=True)
    if args.setup_only:
        return 0

    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = _run_phase(cases, ck, budget)
    result = {
        "environment": _environment(),
        "attempted": untraced["passes"] * len(cases),
        "failed": untraced["passes"] * len(cases) - untraced["verdicts"]["ok"],
        "cases": len(cases),
        "wrong_answers": untraced["verdicts"]["wrong"],
        "passes": untraced["passes"],
        "metrics": _end_to_end(untraced),
    }
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = _run_phase(cases, ck, budget, tracer)
        result["wrong_answers"] += traced["verdicts"]["wrong"]
        result["traced_passes"] = traced["passes"]
        result["metrics"] = _per_layer(traced, tracer, result["metrics"]["ops_per_s"], ck)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
