"""The public names of the package and the README's account of them."""

import dataclasses
import re
from pathlib import Path

import agfit
from agfit import FitConfig

README = Path(__file__).resolve().parents[1] / "README.md"


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
