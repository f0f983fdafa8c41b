"""The review tools in ``tools/`` run end to end on this tree."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(tool: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / tool), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def test_outcome_diff_finds_two_runs_of_one_tree_identical():
    # two worker processes on one tree: outcomes and answer bytes must agree
    done = _run("outcome_diff.py", str(ROOT), str(ROOT), "--seeds", "1", "--cases", "22")
    assert done.returncode == 0, done.stdout + done.stderr
    assert "(0 inputs differ in at least one field)" in done.stdout


def test_floor_measures_every_input():
    done = _run("floor.py", str(ROOT), "--calls", "3")
    assert done.returncode == 0, done.stderr
    rows = [line for line in done.stdout.splitlines() if line.endswith(" calls")]
    assert len(rows) == 11, done.stdout
