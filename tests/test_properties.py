"""Property tests: the reading-word sweep against the table walk, element
products against their basis products, the algebra laws on random
elements, the coset lemma with its table bijection on random subset
pairs, and the union-find components against a breadth-first search.

The examples come from a fixed seed (``derandomize=True``), so every run
checks the same cases.
"""

from collections import Counter, deque

from hypothesis import given, settings
from hypothesis import strategies as st

from descents import (
    Composition,
    DescentElement,
    GeneratorSubset,
    OrderedPresentation,
    SubsetGraph,
    backend,
    contingency_tables,
    element_multiply,
    ordered_presentation,
    solomon_multiply,
    subset_to_composition,
    verify_subset_pair,
)

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
def subset_pairs(draw, max_n):
    """Two generator subsets of one degree."""
    n = draw(st.integers(1, max_n))
    members = st.sets(st.integers(1, n - 1)) if n > 1 else st.just(set())
    return GeneratorSubset(n, draw(members)), GeneratorSubset(n, draw(members))


@st.composite
def graphs(draw, max_n):
    """A degree and a list of edges between any two distinct vertices, in
    any order and orientation."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(1, n)
    edge = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    return n, draw(st.lists(edge, max_size=2 * n)) if n > 1 else []


def breadth_first_components(n, edges):
    """Components of the graph, each a sorted tuple, by least element."""
    adjacent = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    seen, components = set(), []
    for start in range(1, n + 1):
        if start in seen:
            continue
        seen.add(start)
        component, queue = [start], deque([start])
        while queue:
            for w in adjacent[queue.popleft()] - seen:
                seen.add(w)
                component.append(w)
                queue.append(w)
        components.append(tuple(sorted(component)))
    return tuple(components)


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
                    for table in backend.enumerate_tables(nu, kappa))
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
@given(graphs(9))
def test_union_find_roots_give_the_components(graph):
    # the one-pass roots of the union-find against a breadth-first search;
    # the unchecked presentation must survive a checked rebuild
    n, edges = graph
    presentation = ordered_presentation(SubsetGraph(n, edges))
    assert presentation == breadth_first_components(n, edges)
    assert type(presentation) is OrderedPresentation
    assert OrderedPresentation(presentation) == presentation
