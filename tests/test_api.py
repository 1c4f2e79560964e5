"""Public names, what importing the package loads, and the README's account."""

import dataclasses
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import agfit
from agfit import FitConfig

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_all_names_resolve():
    missing = [name for name in agfit.__all__ if not hasattr(agfit, name)]
    assert missing == []


def test_all_is_sorted_without_duplicates():
    assert list(agfit.__all__) == sorted(set(agfit.__all__))


def test_readme_fitconfig_table_lists_every_field():
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| field | default | meaning |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append(re.match(r"\| `(\w+)` \|", line).group(1))
    assert rows == [f.name for f in dataclasses.fields(FitConfig)]


def test_import_loads_no_scipy(agfit_env):
    code = (
        "import sys, agfit, agfit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=agfit_env, capture_output=True,
        text=True, check=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"


def test_benchmark_traced_names_resolve():
    # the benchmark's tracer wraps these names in place; an import dropped
    # from agfit as unused would break the traced run
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (mod, attr) for mod, attr, _ in spans.TRACED
        if not hasattr(importlib.import_module(mod), attr)
    ]
    assert missing == []
