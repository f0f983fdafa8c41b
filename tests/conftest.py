"""Shared pytest plumbing.

The acceptance tests append one human-readable pass/fail line per criterion
to :data:`ACCEPTANCE_LINES`; this hook prints them as a dedicated section at
the end of the run so they are visible even when stdout capture is on.

``hypothesis`` reports a failing example from its ``pytest_runtest_makereport``
hook, which imports ``hypothesis.extra._patching`` the first time a test
fails.  That import pulls in ``libcst``, whose use of ``mypy_extensions``
emits a ``DeprecationWarning``; under a test's
``@pytest.mark.filterwarnings("error")``, still in force in that hook, the
warning is raised and aborts the whole session with INTERNALERROR, so no
later test runs.  The module is imported here once, with that warning
ignored, so that a failing test is reported as a failure and the session
goes on.  Without ``libcst`` the hook skips the import, and so does this.
"""

import contextlib
import warnings

import pytest

with contextlib.suppress(ImportError), warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_lines():
    return ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
