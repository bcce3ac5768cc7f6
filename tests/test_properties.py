"""Property tests: the reading-word sweep against the table walk, element
products against their basis products, the algebra laws on random
elements, the coset lemma with its table bijection on random subset
pairs, and the runs of subset graphs against a breadth-first search.

The examples come from a fixed seed (``derandomize=True``), so every run
checks the same cases.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from descents import (
    Composition,
    DescentElement,
    GeneratorSubset,
    OrderedPresentation,
    backend,
    contingency_tables,
    element_multiply,
    graph_of_subset,
    ordered_presentation,
    solomon_multiply,
    subset_to_composition,
    verify_subset_pair,
)

from _oracles import breadth_first_components, subset_edges

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


def member_sets(n):
    return st.sets(st.integers(1, n - 1)) if n > 1 else st.just(set())


@st.composite
def subsets(draw, max_n):
    """A generator subset of any degree up to ``max_n``."""
    n = draw(st.integers(1, max_n))
    return GeneratorSubset(n, draw(member_sets(n)))


@st.composite
def subset_pairs(draw, max_n):
    """Two generator subsets of one degree."""
    n = draw(st.integers(1, max_n))
    members = member_sets(n)
    return GeneratorSubset(n, draw(members)), GeneratorSubset(n, draw(members))


@st.composite
def elements(draw, max_n, count):
    """``count`` elements of one degree, each up to four basis terms."""
    n = draw(st.integers(1, max_n))
    comps = st.builds(lambda cuts: Composition(parts(cuts)), cut_lists(n))
    coefficients = st.sampled_from((-3, -2, -1, 1, 2, 3))
    return [DescentElement(n, draw(st.dictionaries(comps, coefficients,
                                                   max_size=4)))
            for _ in range(count)]


@PROPERTY
@given(composition_pairs(8))
def test_reading_word_counts_tally_the_tables(pair):
    n, kappa, nu = pair
    tally = Counter(tuple(v for row in table for v in row if v)
                    for table in contingency_tables(Composition(nu),
                                                    Composition(kappa)))
    assert backend.reading_word_counts(nu, kappa, n) == tally


@PROPERTY
@given(elements(6, 2))
def test_element_product_sums_basis_products(pair):
    a, b = pair
    expected = {}
    for kappa, ca in a.terms.items():
        for nu, cb in b.terms.items():
            for eta, c in solomon_multiply(kappa, nu).terms.items():
                expected[eta] = expected.get(eta, 0) + ca * cb * c
    product = element_multiply(a, b)
    assert product.terms == {eta: c for eta, c in expected.items() if c}
    # a composition equals its parts tuple, so the comparison above would
    # not notice a bare tuple key
    assert all(type(eta) is Composition for eta in product.terms)


@PROPERTY
@given(elements(6, 3))
def test_element_products_associate_and_distribute(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@PROPERTY
@given(subset_pairs(7))
def test_lemma_and_bijection_hold_on_subset_pairs(pair):
    # the exhaustive lemma sweeps stop at n=6; random pairs reach n=7
    j, k = pair
    report = verify_subset_pair(j, k, parabolic=False, max_degree=7)
    assert report.passed, report.to_text()
    tables = contingency_tables(subset_to_composition(k),
                                subset_to_composition(j), max_degree=7)
    assert report.witnesses == len(list(tables))


@PROPERTY
@given(subsets(12))
def test_subset_graph_runs_give_the_components(j):
    # the runs read in one scan against a breadth-first search; the
    # unchecked presentation must survive a checked rebuild
    presentation = ordered_presentation(graph_of_subset(j))
    assert presentation == breadth_first_components(j.n,
                                                    subset_edges(j.members))
    assert type(presentation) is OrderedPresentation
    assert OrderedPresentation(presentation) == presentation
