"""The public names of the package."""

import agfit


def test_all_names_resolve():
    missing = [name for name in agfit.__all__ if not hasattr(agfit, name)]
    assert missing == []


def test_all_is_sorted_without_duplicates():
    assert list(agfit.__all__) == sorted(set(agfit.__all__))
