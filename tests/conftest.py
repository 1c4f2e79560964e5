"""Shared test set-up.

Pytest captures stdout from passing tests, which would hide the one
line per criterion that test_acceptance emits; the terminal summary hook
prints the collected lines instead.  ``agfit_env`` is the environment for
tests that start a Python subprocess which must import this tree's agfit.
"""

import os
import sys
from pathlib import Path

import pytest

import agfit

SRC = str(Path(agfit.__file__).resolve().parents[1])


@pytest.fixture
def agfit_env():
    extra = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + extra if extra else SRC)


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
