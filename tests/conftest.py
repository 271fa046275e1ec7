"""Shared pytest plumbing: the acceptance-criteria report and child-process env.

Acceptance tests append one line per criterion to the session report; the
terminal-summary hook prints them after the test run so the pass/fail
verdicts are visible even though test-time stdout is captured.
"""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

ACCEPTANCE_KEY = pytest.StashKey()


@pytest.fixture(scope="session")
def acceptance_report(request):
    """Mutable list of per-criterion report lines, printed at session end."""
    return request.config.stash.setdefault(ACCEPTANCE_KEY, [])


@pytest.fixture
def src_env():
    """os.environ with ``src`` first on PYTHONPATH, for child Python processes:
    ``pythonpath`` in pyproject.toml reaches only pytest's own process."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = config.stash.get(ACCEPTANCE_KEY, None)
    if not lines:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in sorted(lines):
        terminalreporter.write_line(line)
