"""Property tests: the reading-word sweep against the table walk, and the
algebra laws on random elements.

The examples come from a fixed seed (``derandomize=True``), so every run
checks the same cases.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from descents import Composition, DescentElement, backend

PROPERTY = settings(derandomize=True, deadline=None, max_examples=200)


def parts(cuts):
    """The composition whose cut points are the true entries of ``cuts``."""
    out, size = [], 1
    for cut in cuts:
        if cut:
            out.append(size)
            size = 1
        else:
            size += 1
    return tuple(out + [size])


def cut_lists(n):
    return st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)


@st.composite
def composition_pairs(draw, max_n):
    n = draw(st.integers(1, max_n))
    return n, parts(draw(cut_lists(n))), parts(draw(cut_lists(n)))


@st.composite
def element_triples(draw, max_n):
    """Three elements of one degree, each up to four basis terms."""
    n = draw(st.integers(1, max_n))
    comps = st.builds(lambda cuts: Composition(parts(cuts)), cut_lists(n))
    coefficients = st.sampled_from((-3, -2, -1, 1, 2, 3))
    return [DescentElement(n, draw(st.dictionaries(comps, coefficients,
                                                   max_size=4)))
            for _ in range(3)]


@PROPERTY
@given(composition_pairs(8))
def test_reading_word_counts_tally_the_tables(pair):
    n, kappa, nu = pair
    tally = Counter(tuple(v for row in table for v in row if v)
                    for table in backend.enumerate_tables(nu, kappa))
    assert backend.reading_word_counts(nu, kappa, n) == tally


@PROPERTY
@given(element_triples(6))
def test_element_products_associate_and_distribute(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
