import doctest
from pathlib import Path

import pytest

import descents.algebra
import descents.backend
import descents.combinatorics
import descents.cosets
import descents.perms

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("source", [
    descents.perms,
    descents.combinatorics,
    descents.cosets,
    descents.algebra,
    descents.backend,
    pytest.param(README, id="README.md"),
])
def test_module_doctests(source):
    if isinstance(source, Path):
        result = doctest.testfile(str(source), module_relative=False)
    else:
        result = doctest.testmod(source)
    assert result.attempted > 0
    assert result.failed == 0
