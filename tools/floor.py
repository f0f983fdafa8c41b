"""Measure the per-call floor of ``inverse_compound`` in one or more source trees.

Usage::

    python tools/floor.py [TREE ...] [--calls 2000]

Each tree is a checkout holding ``src/compound_kit``; without one, the tree
this tool lives in is measured.  Five small inputs are recovered: Gaussian
sources at 4x4 k=2, 5x5 k=3 and 6x6 k=3, ``M = I`` at 4x4 k=2 and an
orthogonal 5x5 k=3 source (the last two need a random draw).  Two more are
refused, and their ``CompoundKitError`` is caught: a Gaussian 6 x 6 M at
4x4 k=2 and a 5x5 k=2 compound perturbed by 1e-6 of its max|M|, each of
whose rung-1 candidate ``verify`` refuses.  Their M are built from fixed
seeds with the benchmark's own determinants (``perfbench/cases.py``), so
every tree recovers the same bytes.

Each tree runs in its own subprocess with BLAS pinned to one thread.  After
one warm-up recovery of each input, ``--calls`` rounds call every input once
in turn, and each input's minimum wall time is printed in milliseconds;
then one more recovery of each input runs under ``cProfile``, and its count
of function calls is printed.  The minimum is the floor that the host's
noise leaves least changed, and the count does not depend on the host.
Trees run one after the other, so compare them from one command.
Standard library and NumPy only.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from cases import minors  # noqa: E402  (the benchmark's independent compound)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def inputs() -> list[tuple[str, np.ndarray, int, int, int]]:
    """(label, M, n, m, k) of the seven inputs."""
    sources = [
        (f"gaussian {n}x{n} k={k}", np.random.default_rng([n, k]).standard_normal((n, n)), k)
        for n, k in ((4, 2), (5, 3), (6, 3))
    ]
    sources.append(("identity 4x4 k=2", np.eye(4), 2))
    sources.append(("orthogonal 5x5 k=3", _orthogonal(np.random.default_rng([5, 3, 1]), 5), 3))
    found = [(label, minors(A, k), *A.shape, k) for label, A, k in sources]
    rng = np.random.default_rng([5, 2, 6])
    found.append(("refused gaussian M", rng.standard_normal((6, 6)), 4, 4, 2))
    exact = minors(rng.standard_normal((5, 5)), 2)
    noise = 1e-6 * np.abs(exact).max() * rng.standard_normal(exact.shape)
    found.append(("refused perturbed", exact + noise, 5, 5, 2))
    return found


def run_tree(src: Path, calls: int) -> None:
    """The worker: the floor of every input in the tree under ``src``, as one JSON line."""
    sys.path.insert(0, str(src))
    import compound_kit as ck

    if src.resolve() not in Path(ck.__file__).resolve().parents:
        raise SystemExit(f"imported {ck.__file__}, not the tree under {src}")

    def once(M, n, m, k) -> float:
        """Seconds of one recovery, whether it answers or refuses."""
        start = time.perf_counter()
        try:
            ck.inverse_compound(M, n, m, k)
        except ck.CompoundKitError:
            pass
        return time.perf_counter() - start

    cases = inputs()
    for _, M, n, m, k in cases:
        once(M, n, m, k)
    best = [float("inf")] * len(cases)
    for _ in range(calls):
        for i, (_, M, n, m, k) in enumerate(cases):
            best[i] = min(best[i], once(M, n, m, k))
    counts = []
    for _, M, n, m, k in cases:
        profile = cProfile.Profile()
        try:
            profile.runcall(ck.inverse_compound, M, n, m, k)
        except ck.CompoundKitError:
            pass
        counts.append(pstats.Stats(profile).total_calls)
    print(json.dumps({"min_ms": [t * 1e3 for t in best], "calls": counts}))


def main() -> int:
    if sys.argv[1:2] == ["--worker"]:
        run_tree(Path(sys.argv[2]), int(sys.argv[3]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", type=Path, nargs="*", help="checkouts holding src/compound_kit")
    parser.add_argument("--calls", type=int, default=2000, help="timed calls per input")
    args = parser.parse_args()

    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    labels = [label for label, *_ in inputs()]
    print(f"minimum of {args.calls} interleaved calls (ms) and cProfile calls per recovery, "
          f"numpy {np.__version__}, 1 BLAS thread")
    for tree in args.trees or [ROOT]:
        command = [sys.executable, __file__, "--worker", str(tree / "src"), str(args.calls)]
        found = subprocess.run(command, check=True, env=env, capture_output=True, text=True)
        result = json.loads(found.stdout)
        print(tree)
        for label, ms, count in zip(labels, result["min_ms"], result["calls"]):
            print(f"  {label:20s} {ms:7.3f} ms  {count:5d} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
