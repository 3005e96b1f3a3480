"""The README's library quickstart, run as a doctest: the documented API
and its printed outputs cannot drift apart without failing here."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quickstart():
    result = doctest.testfile(
        str(README), module_relative=False, optionflags=doctest.NORMALIZE_WHITESPACE)
    assert result.attempted > 0 and result.failed == 0
