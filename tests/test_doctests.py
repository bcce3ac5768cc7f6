import doctest

import pytest

import descents.algebra
import descents.backend
import descents.combinatorics
import descents.cosets
import descents.perms


@pytest.mark.parametrize("module", [
    descents.perms,
    descents.combinatorics,
    descents.cosets,
    descents.algebra,
    descents.backend,
])
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
