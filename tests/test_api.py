"""Public names, what importing the package loads, and the README's account."""

import dataclasses
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

import agfit
import agfit.cli
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


def _run_python(code, env):
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True, timeout=60,
    ).stdout.strip()


def test_import_loads_no_scipy(agfit_env):
    code = (
        "import sys, agfit, agfit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _run_python(code, agfit_env) == "[]"


def test_import_loads_no_numpy(agfit_env):
    code = (
        "import sys, agfit, agfit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    assert _run_python(code, agfit_env) == "[]"


def test_check_command_loads_no_numpy(cli_program):
    code, out, report = cli_program("check", str(ROOT / "src/agfit/data/moth_graph.csv"))
    assert code == 0
    assert "maximal: yes" in out
    assert [m for m in report["modules"] if m.split(".")[0] == "numpy"] == []


def test_fit_command_skips_unused_numpy_modules(cli_program):
    # numpy loads numpy.random and numpy.ma on first use; a fit without
    # restarts draws no random numbers and masks no arrays
    data = ROOT / "src/agfit/data"
    code, _, report = cli_program(
        "fit", "--graph", str(data / "moth_graph.csv"), "--cov", str(data / "moth_corr.csv"),
        "--n", "72",
    )
    assert code == 0
    assert "numpy" in report["modules"]
    numpy_packages = {m.split(".")[1] for m in report["modules"] if m.startswith("numpy.")}
    assert numpy_packages & {"random", "ma"} == set()
    assert [m for m in report["modules"] if m in ("agfit.sim", "agfit.datasets")] == []


@pytest.mark.parametrize("first", [
    "import agfit.fit",
    "import agfit.sim",
    "from agfit import sample_mvn",
    "import agfit.fit as fit_module",
    "from agfit.fit import FitConfig",
])
def test_fit_is_the_function_in_every_import_order(first, agfit_env):
    # importing the submodule agfit.fit binds it to the package attribute
    # of the same name unless the package drops that binding
    code = (
        f"{first}\n"
        "import sys, types, agfit\n"
        "from agfit import fit\n"
        "print(isinstance(fit, types.FunctionType), agfit.fit is fit, "
        "sys.modules['agfit.fit'].fit is fit)"
    )
    assert _run_python(code, agfit_env) == "True True True"


def test_star_import_binds_every_public_name(agfit_env):
    code = (
        "import agfit\n"
        "listed = set(agfit.__all__) <= set(dir(agfit))\n"
        "ns = {}\n"
        "exec('from agfit import *', ns)\n"
        "print(len(agfit.__all__), listed, sorted(set(ns) - {'__builtins__'}) == agfit.__all__)"
    )
    assert _run_python(code, agfit_env) == "63 True True"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        agfit.no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        agfit.cli.no_such_name


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


def test_benchmark_tracer_leaves_no_wrapper_behind(agfit_env):
    # The CLI binds its numerical names on first use.  When that first use
    # is the tracer's own lookup, made after it has wrapped the same
    # function in its defining module, the CLI must still bind the
    # function itself, or the restored CLI keeps calling a stale wrapper.
    code = (
        "import importlib, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "import spans\n"
        "for m in ('cli', 'fit', 'mseparation', 'params', 'sim', 'stats'):\n"
        "    importlib.import_module('agfit.' + m)\n"
        "with spans.Tracer().installed():\n"
        "    pass\n"
        "print(sorted({(m, a) for m, a, _ in spans.TRACED\n"
        "              if getattr(importlib.import_module(m), a).__module__ == 'spans'}))"
    )
    assert _run_python(code, agfit_env) == "[]"
