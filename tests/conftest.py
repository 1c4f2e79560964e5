"""Shared test set-up.

Pytest captures stdout from passing tests, which would hide the one
line per criterion that test_acceptance emits; the terminal summary hook
prints the collected lines instead.  ``agfit_env`` is the environment for
tests that start a Python subprocess which must import this tree's agfit;
``cli_program`` runs ``agfit.cli`` as a program in such a subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import agfit

SRC = str(Path(agfit.__file__).resolve().parents[1])


@pytest.fixture
def agfit_env():
    extra = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + extra if extra else SRC)


# Runs agfit.cli as ``python -m agfit.cli`` does.  At exit it writes one
# JSON line to stderr: the names of the loaded modules, the BLAS thread
# variables, and the thread count of each OpenBLAS library loaded, read
# by the benchmark's ``blas_facts`` (empty where /proc/self/maps is absent).
CLI_PROGRAM = r"""
import atexit, json, os, runpy, sys

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def report():
    modules = sorted(sys.modules)
    threads = []
    if os.path.exists("/proc/self/maps"):
        sys.path.insert(0, PERFBENCH)
        from run import blas_facts

        threads = list(blas_facts().values())
    print(json.dumps({
        "modules": modules,
        "env": {v: os.environ.get(v) for v in BLAS_VARIABLES},
        "openblas_threads": threads,
    }), file=sys.stderr)


atexit.register(report)
runpy.run_module("agfit.cli", run_name="__main__", alter_sys=True)
""".replace("PERFBENCH", repr(str(Path(__file__).resolve().parents[1] / "perfbench")))


@pytest.fixture
def cli_program(agfit_env):
    """Run ``agfit.cli`` as a program: (exit code, stdout, exit report).

    ``env`` entries are added to the environment; an entry of None
    removes the variable.
    """

    def run(*argv, env=()):
        child = dict(agfit_env)
        for name, value in dict(env).items():
            if value is None:
                child.pop(name, None)
            else:
                child[name] = value
        proc = subprocess.run(
            [sys.executable, "-c", CLI_PROGRAM, *argv], env=child,
            capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout, json.loads(proc.stderr.splitlines()[-1])

    return run


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT_LINES", None) if mod else None
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
