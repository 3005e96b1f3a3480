"""The package's public surface: the README's library quickstart, run as a
doctest, so the documented API and its printed outputs cannot drift apart
without failing here, and the names the package exports."""

import doctest
from pathlib import Path

import toricjets

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quickstart():
    result = doctest.testfile(
        str(README), module_relative=False, optionflags=doctest.NORMALIZE_WHITESPACE)
    assert result.attempted > 0 and result.failed == 0


def test_every_exported_name_is_bound_and_listed_once():
    assert len(set(toricjets.__all__)) == len(toricjets.__all__)
    assert [name for name in toricjets.__all__ if not hasattr(toricjets, name)] == []
