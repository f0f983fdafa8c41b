"""The test harness itself: ``tests/conftest.py`` keeps a session going past a failure."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

TESTS = Path(__file__).resolve().parent

_TWO_TESTS = """
import pytest
from hypothesis import given, settings, strategies as st


@pytest.mark.filterwarnings("error")
@settings(max_examples=5, derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_after():
    pass
"""


def test_failing_hypothesis_test_under_warnings_as_errors_leaves_the_session_running(tmp_path):
    # a failing hypothesis test whose marker turns warnings into errors, then
    # a passing test; with this suite's conftest loaded, pytest reports the
    # failure and runs the second test rather than stopping on INTERNALERROR
    (tmp_path / "test_two.py").write_text(textwrap.dedent(_TWO_TESTS))
    env = dict(os.environ, PYTHONPATH=str(TESTS))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "conftest",
         "test_two.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout, done.stdout + done.stderr
