"""compound-kit benchmark: one workload per invocation, from the root of a checkout.

    python3 perfbench/run.py --workload recover-generic --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):
``recover-generic``, ``recover-special`` and ``forward``.  The program is
imported from ``src/`` of the current directory; without it the benchmark
exits with code 2 and prints no result.

Each workload runs in its own process (``worker.py``) with BLAS and OpenMP
pinned to one thread.  Set-up time is measured from process start to the
first timed operation, in the measuring process and in set-up-only probes
started before and after it, and reported as the median.  Times in the
result are host-speed adjusted as ``worker.py`` describes; the unadjusted
wall times are printed too.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` spends half the budget untraced and half with every public
function of the layer modules wrapped (``tracing.py``), and prints the
per-layer metrics: counts per pass over the case list, self times in
unadjusted wall milliseconds per operation.  Human-readable lines come
first; the last line of stdout is the JSON result.  ``correct`` is false
when any operation returned a wrong answer; ``failed`` counts operations
without the expected outcome, including valid inputs the program rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COMPUTED

HERE = Path(__file__).resolve().parent
SETUP_PROBES_EACH_SIDE = 3
#: Hard limit on one worker process, well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 150
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchmarkError(Exception):
    pass


def _worker_env(src: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _start_worker(args, src: Path, setup_only: bool):
    """Start a worker and read its READY and SPEED lines.

    Returns the process, the wall-clock set-up seconds and the process's
    host-speed factor.
    """
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--src", str(src),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=_worker_env(src), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    speed = proc.stdout.readline().split()
    if line.strip() != "READY" or len(speed) != 2 or speed[0] != "SPEED":
        _stop(proc)
        raise BenchmarkError(f"worker did not reach its first operation (exit {proc.returncode})")
    return proc, setup_s, float(speed[1])


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _setup_probe(args, src: Path) -> tuple:
    proc, seconds, speed = _start_worker(args, src, setup_only=True)
    try:
        proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        _stop(proc)
    return seconds, speed


def _measure(args, src: Path):
    # probes on both sides of the measuring process spread the set-up samples
    # over the run, so one slow phase of the host does not set the median
    setup = [_setup_probe(args, src) for _ in range(SETUP_PROBES_EACH_SIDE)]
    proc, seconds, speed = _start_worker(args, src, setup_only=False)
    setup.append((seconds, speed))
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    finally:
        _stop(proc)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        raise BenchmarkError(f"worker failed (exit {proc.returncode})")
    setup += [_setup_probe(args, src) for _ in range(SETUP_PROBES_EACH_SIDE)]
    result = json.loads(lines[-1][len("RESULT "):])
    result["metrics"]["setup_s"] = statistics.median(seconds * speed for seconds, speed in setup)
    result["metrics"]["wall_setup_s"] = statistics.median(seconds for seconds, _ in setup)
    result["setup_samples"] = len(setup)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    spec_file, src = root / "BENCHMARK.json", root / "src"
    if not (src / "compound_kit" / "__init__.py").is_file():
        print(f"error: no compound_kit package under {src}", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        result = _measure(args, src.resolve())
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    raw = result["metrics"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in raw]
    if missing:
        print(f"error: the worker did not report {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in declared}

    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} operations "
          f"in {result['passes']} passes over {result['cases']} cases, {result['failed']} failed, "
          f"{result['wrong_answers']} wrong answers; set-up over {result['setup_samples']} processes")
    if args.trace:
        print(f"traced: {result['traced_passes']} passes; counts are per pass, self_ms per operation")
    else:
        print("timings: host-speed adjusted (see worker.py); latencies are per-case medians over the passes")
        print(f"  reference loop median {raw['reference_loop_ms']:.6g} ms; unadjusted wall time: "
              + ", ".join(f"{name} {raw['wall_' + name]:.6g}"
                          for name in ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms")))
        print(f"  fail_ratio = {raw['fail_ratio']:.6g} ratio (n={result['cases']})")
    for name, metric in metrics.items():
        samples = result["setup_samples"] if name == "setup_s" else result["cases"]
        note = " (computed from shapes, not measured)" if name in COMPUTED else ""
        print(f"  {name} = {metric['value']:.6g} {metric['unit']} (n={samples}){note}")
    print(json.dumps({
        "correct": result["wrong_answers"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
