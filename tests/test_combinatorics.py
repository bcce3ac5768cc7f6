import copy
import itertools
import math
import pickle

import pytest

from descents import (
    Composition,
    DescentElement,
    GeneratorSubset,
    GroupAlgebraElement,
    MarginMatrix,
    OrderedPresentation,
    Permutation,
    SubsetGraph,
    all_compositions,
    all_generator_subsets,
    composition_to_subset,
    contingency_tables,
    graph_of_subset,
    intersect,
    ordered_presentation,
    subset_to_composition,
    to_dot,
)

from _oracles import brute_tables


def test_composition_validation():
    with pytest.raises(ValueError):
        Composition((2, 0, 1))
    with pytest.raises(ValueError):
        Composition(())
    assert Composition((3,)).n == 3
    assert Composition.from_text("1,3,2") == (1, 3, 2)
    assert Composition((1, 3, 2)).to_text() == "1,3,2"


def test_composition_is_its_parts_tuple():
    c = Composition((1, 3, 2))
    # equal to its plain parts tuple and hashed like it, so a dict keyed by
    # compositions finds a composition by its parts
    assert c == (1, 3, 2) and c.parts is c
    assert hash(c) == hash(tuple(c))
    assert {c: 1}[(1, 3, 2)] == 1
    assert (c.n, len(c), list(c)) == (6, 3, [1, 3, 2])
    for name in ("n", "parts", "other"):
        with pytest.raises(AttributeError):
            setattr(c, name, None)
    with pytest.raises(ValueError,
                       match="^a composition needs at least one part$"):
        Composition(())
    with pytest.raises(ValueError, match=r"^parts must be positive "
                                         r"integers: \(0, 1\)$"):
        Composition((0, 1))
    with pytest.raises(ValueError, match=r"^parts must be positive "
                                         r"integers: \(1\.0,\)$"):
        Composition((1.0,))
    with pytest.raises(ValueError, match=r"^parts must be positive "
                                         r"integers: \(True, 2\)$"):
        Composition((True, 2))
    # a checked element still takes only compositions as keys
    with pytest.raises(ValueError, match="keyed by Composition"):
        DescentElement(3, {(1, 2): 1})


@pytest.mark.parametrize("value, items", [
    (Permutation((2, 3, 1)), (2, 3, 1)),
    (OrderedPresentation([[1, 3], [2]]), ((1, 3), (2,))),
    (MarginMatrix([[1, 0], [1, 1]]), ((1, 0), (1, 1))),
], ids=["Permutation", "OrderedPresentation", "MarginMatrix"])
def test_value_tuple_types_are_their_tuples(value, items):
    # each equals its plain tuple and hashes like it, so a dict keyed by
    # values of the type finds one by that tuple
    assert isinstance(value, tuple) and value == items
    assert hash(value) == hash(items)
    assert {value: 1}[items] == 1
    for name in ("n", "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_value_tuple_types_derive_their_sizes_and_keep_messages():
    assert Permutation((2, 3, 1)).n == 3
    assert OrderedPresentation([[1, 3], [2]]).n == 3
    z = MarginMatrix([[1, 0], [1, 1]])
    assert (z.row_margins, z.col_margins) == ((1, 2), (2, 1))
    assert type(z.row_margins) is type(z.col_margins) is Composition
    for make, message in [
        (lambda: Permutation(()), r"^degree must be at least 1$"),
        (lambda: Permutation((1, 1, 3)),
         r"^not a permutation of 1\.\.3: \(1, 1, 3\)$"),
        # bool and float items are not integers, even where they equal one
        (lambda: Permutation((1.0, 2.0)),
         r"^not a permutation of 1\.\.2: \(1\.0, 2\.0\)$"),
        (lambda: Permutation((True, 2)),
         r"^not a permutation of 1\.\.2: \(True, 2\)$"),
        (lambda: MarginMatrix([[True, 0], [0, 2]]),
         r"^entries must be non-negative integers$"),
        (lambda: MarginMatrix([[1], [1, 1]]),
         r"^matrix shape does not match margins$"),
        (lambda: MarginMatrix([[2, -1], [0, 2]]),
         r"^entries must be non-negative integers$"),
        (lambda: MarginMatrix([[1, 0], [1]]),
         r"^matrix shape does not match margins$"),
        (lambda: MarginMatrix([[0, 1], [0, 1]]),
         r"^parts must be positive integers: \(0, 2\)$"),
        # the entries are checked before the margins read from them
        (lambda: MarginMatrix([[-1, 2]]),
         r"^entries must be non-negative integers$"),
        (lambda: MarginMatrix([[1.5, 0.5]]),
         r"^entries must be non-negative integers$"),
        (lambda: OrderedPresentation([[True], [2, 3]]),
         r"^blocks must partition 1\.\.3$"),
        (lambda: OrderedPresentation([[1.0], [2, 3]]),
         r"^blocks must partition 1\.\.3$"),
    ]:
        with pytest.raises(ValueError, match=message):
            make()


@pytest.mark.parametrize("value", [
    Composition((1, 3, 2)),
    Permutation((2, 3, 1)),
    OrderedPresentation([[1, 3], [2]]),
    MarginMatrix([[1, 0], [1, 1]]),
    GeneratorSubset(4, [1, 3]),
    SubsetGraph(4, [(1, 3), (2, 4)]),
    DescentElement(3, {Composition((2, 1)): 2, Composition((3,)): -1}),
    GroupAlgebraElement(3, {Permutation((2, 1, 3)): 5}),
], ids=lambda v: type(v).__name__)
def test_value_types_copy_and_pickle(value):
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                  copy.deepcopy(value)):
        assert type(clone) is type(value) and clone == value
        assert repr(clone) == repr(value)


def test_subset_from_text():
    assert GeneratorSubset.from_text(5, "").members == frozenset()
    assert GeneratorSubset.from_text(5, "2,4").members == frozenset({2, 4})
    with pytest.raises(ValueError):
        GeneratorSubset.from_text(5, "5")
    with pytest.raises(ValueError):
        GeneratorSubset.from_text(5, "0")
    with pytest.raises(ValueError, match=r"^generator index True outside "
                                         r"1\.\.2$"):
        GeneratorSubset(3, [True])
    for degree in (3.0, True):
        with pytest.raises(ValueError,
                           match=rf"^degree must be an integer: {degree}$"):
            GeneratorSubset(degree, [1])


def test_subset_composition_round_trip():
    for n in range(1, 8):
        for j in all_generator_subsets(n):
            comp = subset_to_composition(j)
            assert comp.n == n
            assert composition_to_subset(comp) == j
        for kappa in all_compositions(n):
            j = composition_to_subset(kappa)
            assert subset_to_composition(j) == kappa


def test_subset_composition_known_values():
    # components of {2,3,7} inside 1..9 have sizes 1,3,1,1,2,1
    j = GeneratorSubset(9, {2, 3, 7})
    assert subset_to_composition(j) == (1, 3, 1, 1, 2, 1)
    # full set gives the one-part composition, empty set all ones
    assert subset_to_composition(GeneratorSubset(4, {1, 2, 3})) == (4,)
    assert subset_to_composition(GeneratorSubset(4)) == (1, 1, 1, 1)


def test_enumeration_counts():
    for n in range(1, 9):
        subsets = all_generator_subsets(n)
        comps = all_compositions(n)
        assert len(subsets) == 2 ** (n - 1)
        assert len(comps) == 2 ** (n - 1)
        assert len(set(subsets)) == len(subsets)
        # the two orders correspond under the bijection
        assert [composition_to_subset(c) for c in comps] == subsets


def test_enumeration_order_frozen():
    got = all_compositions(3)
    assert got == [(1, 1, 1), (2, 1), (3,), (1, 2)]
    got4 = [s.sorted_members() for s in all_generator_subsets(4)]
    assert got4 == [(), (1,), (1, 2), (1, 2, 3), (1, 3), (2,), (2, 3), (3,)]


def test_graph_of_subset_edges():
    g = graph_of_subset(GeneratorSubset(9, {2, 3, 7}))
    assert g.sorted_edges() == [(2, 3), (3, 4), (7, 8)]
    assert graph_of_subset(GeneratorSubset(3)).sorted_edges() == []


def test_graph_image_and_intersection():
    x = Permutation((3, 1, 4, 2))
    g = SubsetGraph(4, [(1, 2), (3, 4)])
    assert g.image_under(x).sorted_edges() == [(1, 3), (2, 4)]
    h = SubsetGraph(4, [(1, 3), (1, 2)])
    assert intersect(g.image_under(x), h).sorted_edges() == [(1, 3)]


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        SubsetGraph(3, [(1, 4)])
    with pytest.raises(ValueError):
        SubsetGraph(3, [(2, 2)])
    # a bool or float equal to a vertex is not one
    with pytest.raises(ValueError, match=r"^edge \(True,2\) outside 1\.\.3$"):
        SubsetGraph(3, [(True, 2)])
    with pytest.raises(ValueError, match=r"^edge \(1,2\.0\) outside 1\.\.3$"):
        SubsetGraph(3, [(1, 2.0)])
    with pytest.raises(ValueError, match=r"^degree must be an integer: 3\.0$"):
        SubsetGraph(3.0, [(1, 2)])
    # orientation of the pair does not matter
    assert SubsetGraph(3, [(3, 1)]) == SubsetGraph(3, [(1, 3)])


def test_ordered_presentation_via_union_find():
    g = SubsetGraph(6, [(1, 4), (4, 2), (3, 5)])
    pres = ordered_presentation(g)
    assert [list(b) for b in pres] == [[1, 2, 4], [3, 5], [6]]
    assert pres.block_sizes() == (3, 2, 1)
    assert pres.to_text() == "({1,2,4},{3,5},{6})"


def test_ordered_presentation_validation():
    OrderedPresentation([[1], [2, 3]])
    with pytest.raises(ValueError,
                       match="^blocks must be listed by least element$"):
        OrderedPresentation([[2, 3], [1]])  # least elements out of order
    with pytest.raises(ValueError, match="^blocks must be disjoint$"):
        OrderedPresentation([[1, 2], [2, 3]])  # overlap
    with pytest.raises(ValueError, match=r"^blocks must partition 1\.\.2$"):
        OrderedPresentation([[1], [3]])  # not a partition of 1..n
    with pytest.raises(ValueError,
                       match="^presentation needs at least one block$"):
        OrderedPresentation([])  # no blocks
    with pytest.raises(ValueError, match="^blocks must be non-empty$"):
        OrderedPresentation([[1], []])  # an empty block
    # the first block at fault names the fault, as a scan would
    with pytest.raises(ValueError, match="^blocks must be disjoint$"):
        OrderedPresentation([[1, 2], [2], []])
    with pytest.raises(ValueError, match="^blocks must be non-empty$"):
        OrderedPresentation([[1], [], [1, 2]])
    # a vertex listed twice in one block is no overlap of two blocks, but
    # no partition either
    with pytest.raises(ValueError, match=r"^blocks must partition 1\.\.2$"):
        OrderedPresentation([[1, 1], [2]])
    with pytest.raises(ValueError,
                       match="^blocks must be listed by least element$"):
        OrderedPresentation([[2, 2], [1]])


def test_presentation_of_subset_graph_matches_runs():
    # components of a subset graph are exactly the runs of consecutive
    # generators, so the presentation must list them left to right
    for n in range(1, 8):
        for j in all_generator_subsets(n):
            pres = ordered_presentation(graph_of_subset(j))
            assert pres.block_sizes() == subset_to_composition(j)
            flat = [v for b in pres for v in b]
            assert flat == list(range(1, n + 1))
            # built unchecked by union-find: a validating rebuild agrees
            if n <= 5:
                rebuilt = OrderedPresentation(pres)
                assert rebuilt == pres
                assert rebuilt.n == pres.n == n


def test_to_dot_contains_clusters_and_edges():
    g = graph_of_subset(GeneratorSubset(4, {1, 3}))
    dot = to_dot(g)
    assert dot.startswith("graph")
    assert "subgraph cluster_0" in dot
    assert 'label="{1,2}"' in dot
    assert "1 -- 2;" in dot
    assert "3 -- 4;" in dot
    assert dot.count("--") == 2
    assert dot.rstrip().endswith("}")


def test_margin_matrix_validation():
    # the margins are read from the rows
    z = MarginMatrix([[1, 0], [1, 1]])
    assert (z.row_margins, z.col_margins) == ((1, 2), (2, 1))
    assert z.to_text() == "[1 0; 1 1]"


def test_reading_word_row_major():
    z = MarginMatrix([[1, 0], [1, 1]])
    assert z.reading_word() == (1, 1, 1)
    z2 = MarginMatrix([[0, 2], [3, 0], [0, 1]])
    assert z2.reading_word() == (2, 3, 1)
    assert type(z2.reading_word()) is Composition


def test_contingency_tables_match_brute_force():
    cases = [
        ((1, 2), (2, 1)),
        ((2, 2), (1, 2, 1)),
        ((3, 1, 2), (2, 2, 2)),
        ((1, 1, 1, 1), (2, 2)),
        ((4,), (1, 3)),
        ((2, 3), (5,)),
    ]
    for nu, kappa in cases:
        got = list(contingency_tables(Composition(nu), Composition(kappa)))
        want = brute_tables(nu, kappa)
        assert len(got) == len(set(got)), "duplicate table"
        assert set(got) == want
        for z in got:
            assert (z.row_margins, z.col_margins) == (nu, kappa)


def test_contingency_tables_pass_validation():
    # the tables are built unchecked; each must survive a validating
    # rebuild and have the margins it was asked for
    for n in range(1, 6):
        comps = all_compositions(n)
        for kappa in comps:
            for nu in comps:
                for z in contingency_tables(nu, kappa):
                    assert MarginMatrix(z) == z
                    assert (z.row_margins, z.col_margins) == (nu, kappa)


def test_contingency_tables_degree_bound():
    with pytest.raises(ValueError, match="above bound 12"):
        next(contingency_tables(Composition((13,)), Composition((13,))))
    got = list(contingency_tables(Composition((13,)), Composition((13,)),
                                  max_degree=13))
    assert got == [((13,),)]


def test_unchecked_graphs_match_validated_rebuild():
    # image_under and intersection build their graphs unchecked; each must
    # equal a validating rebuild from its edges
    for n in range(1, 6):
        group = [Permutation(p) for p in
                 itertools.permutations(range(1, n + 1))]
        for j in all_generator_subsets(n):
            g = graph_of_subset(j)
            for x in group:
                image = g.image_under(x)
                assert image == SubsetGraph(n, image.edges)
                for k in all_generator_subsets(n):
                    both = intersect(image, graph_of_subset(k))
                    assert both == SubsetGraph(n, both.edges)
                    assert both.edges == image.edges & graph_of_subset(k).edges


def test_contingency_tables_mismatched_sums():
    with pytest.raises(ValueError):
        list(contingency_tables(Composition((2, 1)), Composition((4,))))


def test_contingency_table_count_identity():
    # one table per double representative: at n=3 the grand total over all
    # ordered subset pairs is 33
    total = 0
    for j in all_compositions(3):
        for k in all_compositions(3):
            total += sum(1 for _ in contingency_tables(j, k))
    assert total == 33
