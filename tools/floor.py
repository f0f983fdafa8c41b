"""Measure the per-call floor of ``inverse_compound`` in one or more source trees.

Usage::

    python tools/floor.py [TREE ...] [--calls 2000]

Each tree is a checkout holding ``src/compound_kit``; without one, the tree
this tool lives in is measured.  Seven small inputs are recovered: Gaussian
sources at 4x4 k=2, 5x5 k=3 and 6x6 k=3, ``M = I`` at 4x4 k=2 and an
orthogonal 5x5 k=3 source (the last two need a random draw), and ``M = I``
at 4x4 k=3 and an orthogonal 6x6 k=5 source, which are square with
k = n - 1 and are answered by the closed form.  Two more are
refused, and their ``CompoundKitError`` is caught: a Gaussian 6 x 6 M at
4x4 k=2 and a 5x5 k=2 compound perturbed by 1e-6 of its max|M|, each of
whose rung-1 candidate ``verify`` refuses.  The last two have one row: the
compound of a graded 3x6 source at k=3 (condition 1e9), a rank-one family
whose contraction reads a rank above k, and a Gaussian 1 x 21 M at 2x7
k=2, whose family is refused.  Their M are built from fixed seeds with the
benchmark's own determinants (``perfbench/cases.py``), so every tree
recovers the same bytes.

The ``--calls`` are split into ``ROUNDS`` rounds.  In each round every
tree runs in its own subprocess with BLAS pinned to one thread, the trees
one after the other: in the order given in even rounds and in the reverse
order in odd ones, so that with two trees each runs first in half of the
rounds, and a tree is not read slower only for running first.  After one
warm-up recovery of each input, a worker calls every input once in turn,
its share of ``--calls`` times; then one more recovery of each input runs
under ``cProfile``, and its count of function calls is kept.  Each input's
minimum wall time over all rounds is printed in milliseconds, with the
count of the first round, after the order the rounds used.  The minimum is
the floor that the host's noise leaves least changed, and the count does
not depend on the host.  Compare trees from one command.
Standard library and NumPy only.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
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
#: Rounds the ``--calls`` are split into; the tree order alternates between
#: them.  Each round is a fresh process per tree, whose memory layout alone
#: can move its floor by a few percent, so the minimum is taken over ten.
ROUNDS = 10


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def inputs() -> list[tuple[str, np.ndarray, int, int, int]]:
    """(label, M, n, m, k) of the eleven inputs."""
    sources = [
        (f"gaussian {n}x{n} k={k}", np.random.default_rng([n, k]).standard_normal((n, n)), k)
        for n, k in ((4, 2), (5, 3), (6, 3))
    ]
    sources.append(("identity 4x4 k=2", np.eye(4), 2))
    sources.append(("orthogonal 5x5 k=3", _orthogonal(np.random.default_rng([5, 3, 1]), 5), 3))
    sources.append(("identity 4x4 k=3", np.eye(4), 3))
    sources.append(("orthogonal 6x6 k=5", _orthogonal(np.random.default_rng([6, 5, 1]), 6), 5))
    found = [(label, minors(A, k), *A.shape, k) for label, A, k in sources]
    rng = np.random.default_rng([5, 2, 6])
    found.append(("refused gaussian M", rng.standard_normal((6, 6)), 4, 4, 2))
    exact = minors(rng.standard_normal((5, 5)), 2)
    noise = 1e-6 * np.abs(exact).max() * rng.standard_normal(exact.shape)
    found.append(("refused perturbed", exact + noise, 5, 5, 2))
    rng = np.random.default_rng([3, 6, 3])
    graded = (_orthogonal(rng, 3) * 1e9 ** (-np.arange(3) / 2)) @ _orthogonal(rng, 6)[:3]
    found.append(("graded one-row M", minors(graded, 3), 3, 6, 3))
    found.append(("refused one-row M", rng.standard_normal((1, 21)), 2, 7, 2))
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
    parser.add_argument(
        "--calls", type=int, default=2000, help=f"timed calls per input, split into {ROUNDS} rounds"
    )
    args = parser.parse_args()

    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    labels = [label for label, *_ in inputs()]
    trees = args.trees or [ROOT]
    share = max(1, -(-args.calls // ROUNDS))  # the calls of one round, rounded up
    orders = [range(len(trees))[:: (-1) ** i] for i in range(ROUNDS)]
    best = [[math.inf] * len(labels) for _ in trees]
    counts: list[list[int]] = [[] for _ in trees]
    for order in orders:
        for t in order:
            command = [sys.executable, __file__, "--worker", str(trees[t] / "src"), str(share)]
            found = subprocess.run(command, check=True, env=env, capture_output=True, text=True)
            result = json.loads(found.stdout)
            best[t] = [min(old, new) for old, new in zip(best[t], result["min_ms"])]
            counts[t] = counts[t] or result["calls"]
    print(f"minimum of {ROUNDS} x {share} interleaved calls (ms) and cProfile calls per "
          f"recovery, numpy {np.__version__}, 1 BLAS thread")
    print("tree order of the rounds: " + " | ".join(
        " ".join(str(t + 1) for t in order) for order in orders))
    for t, tree in enumerate(trees):
        print(f"{t + 1}: {tree}")
        for label, ms, count in zip(labels, best[t], counts[t]):
            print(f"  {label:20s} {ms:7.3f} ms  {count:5d} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
