"""Route independence: the package functions each certificate runs.

Two routes that share no code certify each product.  The oracle expands
the table product over descent classes and compares it with a
group-algebra convolution; the coset lemma walks the double set, checks
each witness's presentation and table, checks that the tables hit are the
margin matrices, and compares its tally of meets with the product.  Each
certificate runs here under ``sys.setprofile`` on every pair of degree at
most 4, and every package function it enters is recorded with the package
functions above it on the stack.  The products and the lemma's caches are
warmed first, so a cached product enters no ``_solomon`` body; the row
fillings are cleared, so the lemma's table listing is seen.
"""

import os
import sys

import pytest

import descents
from descents import (
    all_compositions,
    all_generator_subsets,
    combinatorics,
    oracle_mismatch,
    verify_subset_pair,
)

PACKAGE = os.path.dirname(descents.__file__) + os.sep

# the table route's listing and sweep, a table's reading word, and the
# body that builds a product
TABLE_ROUTE = {
    "backend.reading_word_counts",
    "backend._merged_row",
    "combinatorics.contingency_tables",
    "combinatorics._row_fillings",
    "combinatorics.MarginMatrix.reading_word",
    "algebra._solomon",
}


def entered(run):
    """Call ``run()`` under a profile; return the set of ``(function,
    callers)`` pairs, each a package function it entered, named
    ``module.qualname``, with the package functions above it, innermost
    first."""
    seen = set()

    def name(frame):
        code = frame.f_code
        if not code.co_filename.startswith(PACKAGE):
            return None
        module = os.path.basename(code.co_filename)[:-len(".py")]
        return f"{module}.{code.co_qualname}"

    def profile(frame, event, arg):
        if event != "call" or name(frame) is None:
            return
        callers = []
        up = frame.f_back
        while up is not None:
            if name(up) is not None:
                callers.append(name(up))
            up = up.f_back
        seen.add((name(frame), tuple(callers)))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def composition_pairs():
    return [(kappa, nu) for n in range(1, 5)
            for kappa in all_compositions(n) for nu in all_compositions(n)]


def subset_pairs():
    return [(j, k) for n in range(1, 5)
            for j in all_generator_subsets(n)
            for k in all_generator_subsets(n)]


def test_oracle_runs_no_table_route_and_no_lemma():
    pairs = composition_pairs()
    for kappa, nu in pairs:
        assert oracle_mismatch(kappa, nu) is None
    seen = entered(lambda: [oracle_mismatch(kappa, nu)
                            for kappa, nu in pairs])
    functions = {f for f, _ in seen}
    assert "backend.convolve" in functions
    assert [f for f in functions if f.startswith("cosets.")] == []
    assert functions.isdisjoint(TABLE_ROUTE)


@pytest.mark.parametrize("parabolic", [True, False])
def test_lemma_runs_no_backend_code(parabolic):
    pairs = subset_pairs()
    for j, k in pairs:
        assert verify_subset_pair(j, k, parabolic=parabolic).passed
    combinatorics._row_fillings.cache_clear()
    seen = entered(lambda: [verify_subset_pair(j, k, parabolic=parabolic)
                            for j, k in pairs])
    functions = {f for f, _ in seen}
    assert "cosets.verify_subset_pair" in functions
    assert "combinatorics._row_fillings" in functions
    assert [f for f in functions if f.startswith("backend.")] == []
    # the bijection's reference is the one way into the tables: the
    # lemma calls contingency_tables itself, reaches the row fillings
    # only through it, and reads no table's reading word
    table_route = {(f, callers) for f, callers in seen if f in TABLE_ROUTE}
    assert {f for f, _ in table_route} == {
        "combinatorics.contingency_tables", "combinatorics._row_fillings"}
    for f, callers in table_route:
        if f == "combinatorics.contingency_tables":
            assert callers[0] == "cosets.verify_subset_pair"
        else:
            assert "combinatorics.contingency_tables" in callers
