import copy
import itertools
import pickle
from unittest import mock

import pytest

from descents import (
    Composition,
    DescentElement,
    GeneratorSubset,
    GroupAlgebraElement,
    MarginMatrix,
    OrderedPresentation,
    Permutation,
    algebra,
    all_compositions,
    all_generator_subsets,
    basis_element,
    composition_to_subset,
    contingency_tables,
    cosets,
    enumerate_double_set,
    enumerate_group,
    enumerate_left_reps,
    intersection_table,
    oracle_mismatch,
    oracle_multiply,
    ordered_presentation,
    solomon_multiply,
    subset_to_composition,
    to_dot,
    to_group_algebra,
)

from _oracles import (
    breadth_first_components,
    brute_tables,
    intersection_graph_edges,
    subset_edges,
)


def test_composition_validation():
    with pytest.raises(ValueError):
        Composition((2, 0, 1))
    with pytest.raises(ValueError):
        Composition(())
    assert Composition((3,)).n == 3
    assert Composition.from_text("1,3,2") == (1, 3, 2)
    assert Composition((1, 3, 2)).to_text() == "1,3,2"
    with pytest.raises(ValueError, match=r"^bad composition text: '1,a'$"):
        Composition.from_text("1,a")


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
    DescentElement(3, {Composition((2, 1)): 2, Composition((3,)): -1}),
    GroupAlgebraElement(3, {Permutation((2, 1, 3)): 5}),
], ids=lambda v: type(v).__name__)
def test_value_types_copy_and_pickle(value):
    for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                  copy.deepcopy(value)):
        assert type(clone) is type(value) and clone == value
        assert repr(clone) == repr(value)


@pytest.mark.parametrize("value", [
    GeneratorSubset(4, [1, 3]),
], ids=lambda v: type(v).__name__)
def test_subset_values_are_immutable(value):
    for name in ("n", "members", "mask", "other"):
        with pytest.raises(AttributeError, match="is immutable$"):
            setattr(value, name, None)


def _pairs(items):
    return itertools.product(items, items)


def _tables(n):
    return [z for kappa, nu in _pairs(all_compositions(n))
            for z in contingency_tables(nu, kappa)]


def _mismatch_images(n):
    # with the table product emptied, the verdict's permutation is built
    # from the raw convolution's byte words
    with mock.patch.object(algebra, "solomon_multiply",
                           lambda kappa, nu, max_degree: DescentElement(n)):
        return [oracle_mismatch(kappa, nu)[0]
                for kappa, nu in _pairs(all_compositions(n))]


# Every producer that builds a tuple value type unchecked, with
# ``tuple.__new__``, and the values it returns at degree n.
TRUSTED_BUILDS = {
    "Permutation.identity": (Permutation,
                             lambda n: [Permutation.identity(n)]),
    "Permutation.__mul__": (Permutation, lambda n: [
        x * y for x, y in _pairs(list(enumerate_group(n)))]),
    "Permutation.inverse": (Permutation, lambda n: [
        x.inverse() for x in enumerate_group(n)]),
    "enumerate_group": (Permutation, lambda n: list(enumerate_group(n))),
    "algebra_multiply": (Permutation, lambda n: [
        x for kappa, nu in _pairs(all_compositions(n))
        for x in oracle_multiply(kappa, nu).terms]),
    "MarginMatrix.reading_word": (Composition, lambda n: [
        z.reading_word() for z in _tables(n)]),
    "ordered_presentation": (OrderedPresentation, lambda n: [
        ordered_presentation(GeneratorSubset(n, [
            u for u, _ in intersection_graph_edges(x, j.members, k.members)]))
        for j, k in _pairs(all_generator_subsets(n))
        for x in enumerate_double_set(j, k)]),
    "contingency_tables": (MarginMatrix, _tables),
    "enumerate_left_reps": (Permutation, lambda n: [
        x for k in all_generator_subsets(n) for x in enumerate_left_reps(k)]),
    "intersection_table": (MarginMatrix, lambda n: [
        intersection_table(x, j, k)
        for j, k in _pairs(all_generator_subsets(n))
        for x in enumerate_double_set(j, k)]),
    "cosets._presentation_subgroup": (Permutation, lambda n: [
        w for j in all_generator_subsets(n)
        for w in cosets._presentation_subgroup(
            ordered_presentation(j))]),
    "solomon_multiply": (Composition, lambda n: [
        eta for kappa, nu in _pairs(all_compositions(n))
        for eta in solomon_multiply(kappa, nu).terms]),
    "to_group_algebra": (Permutation, lambda n: [
        x for kappa in all_compositions(n)
        for x in to_group_algebra(basis_element(kappa)).terms]),
    "oracle_mismatch": (Permutation, _mismatch_images),
    "subset_to_composition": (Composition, lambda n: [
        subset_to_composition(j) for j in all_generator_subsets(n)]),
}


@pytest.mark.parametrize("cls, build", TRUSTED_BUILDS.values(),
                         ids=TRUSTED_BUILDS.keys())
def test_trusted_builds_give_their_type_and_pass_the_check(cls, build):
    # a plain tuple would compare equal, so the type is asserted too
    for n in range(1, 6):
        values = build(n)
        assert values
        for v in values:
            assert type(v) is cls and cls(v) == v, v


def test_subset_from_text():
    assert GeneratorSubset.from_text(5, "").members == ()
    assert GeneratorSubset.from_text(5, "2,4").members == (2, 4)
    with pytest.raises(ValueError):
        GeneratorSubset.from_text(5, "5")
    with pytest.raises(ValueError):
        GeneratorSubset.from_text(5, "0")
    with pytest.raises(ValueError, match=r"^bad subset text: '1,x'$"):
        GeneratorSubset.from_text(4, "1,x")
    # each item is checked before any is sorted
    with pytest.raises(ValueError, match=r"^generator index 'a' outside "
                                         r"1\.\.3$"):
        GeneratorSubset(4, [1, "a"])
    with pytest.raises(ValueError, match=r"^generator index True outside "
                                         r"1\.\.2$"):
        GeneratorSubset(3, [True])
    for degree in (3.0, True):
        with pytest.raises(ValueError,
                           match=rf"^degree must be an integer: {degree}$"):
            GeneratorSubset(degree, [1])
    with pytest.raises(ValueError, match="^degree must be at least 1$"):
        GeneratorSubset(0)


def test_subset_mask_is_its_members_bits():
    # bit i-1 for generator i, the convention of every descent mask
    for n in range(1, 8):
        subsets = all_generator_subsets(n)
        assert len({j.mask for j in subsets}) == len(subsets)
        for j in subsets:
            assert j.mask == sum(1 << (i - 1) for i in j.members)
            assert j.members == tuple(sorted(set(j.members)))
            twin = GeneratorSubset(n, sorted(j.members))
            assert twin == j and hash(twin) == hash(j)
            assert twin.mask == j.mask
            for clone in (pickle.loads(pickle.dumps(j)), copy.copy(j),
                          copy.deepcopy(j)):
                assert clone.mask == j.mask and clone == j
            # the degree is part of the value: the same bits one degree up
            # make a different subset
            assert GeneratorSubset(n + 1, j.members) != j
            assert GeneratorSubset(n + 1, j.members).mask == j.mask


def test_subset_mask_meets_inverse_descents_off_x_j():
    # x^{-1} lies in X_J (no descent in J) exactly when its descent mask,
    # found by brute force, misses J's mask
    for n in range(1, 6):
        group = list(itertools.permutations(range(1, n + 1)))
        for j in all_generator_subsets(n):
            for images in group:
                inverse = tuple(images.index(v) + 1 for v in range(1, n + 1))
                descents = sum(1 << (h - 1) for h in range(1, n)
                               if inverse[h - 1] > inverse[h])
                in_x_j = all(inverse[h - 1] < inverse[h] for h in j.members)
                assert (descents & j.mask == 0) == in_x_j


def test_subset_composition_round_trip():
    for n in range(1, 8):
        for j in all_generator_subsets(n):
            comp = subset_to_composition(j)
            assert comp.n == n
            assert composition_to_subset(comp) == j
        for kappa in all_compositions(n):
            j = composition_to_subset(kappa)
            assert subset_to_composition(j) == kappa


def test_composition_mask_is_the_subset_mask():
    # the proper partial sums of kappa are the indices its subset misses
    from descents.combinatorics import _composition_mask
    for n in range(1, 9):
        for kappa in all_compositions(n):
            mask = _composition_mask(kappa)
            assert type(mask) is int
            assert mask == composition_to_subset(kappa).mask


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
    got4 = [s.members for s in all_generator_subsets(4)]
    assert got4 == [(), (1,), (1, 2), (1, 2, 3), (1, 3), (2,), (2, 3), (3,)]


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
            pres = ordered_presentation(j)
            components = breadth_first_components(n, subset_edges(j.members))
            assert pres == components
            assert subset_to_composition(j) == tuple(map(len, components))
            flat = [v for b in pres for v in b]
            assert flat == list(range(1, n + 1))
            if n <= 5:
                rebuilt = OrderedPresentation(pres)
                assert rebuilt == pres
                assert rebuilt.n == pres.n == n


def test_to_dot_contains_clusters_and_edges():
    dot = to_dot(GeneratorSubset(4, {1, 3}))
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


def test_brute_tables_match_the_full_range_filter():
    # the column-pruned oracle against the unpruned reference: every row
    # over full entry ranges, every combination of rows, columns checked
    # at the end
    def full_range_tables(nu, kappa):
        rows = [[row for row in itertools.product(range(total + 1),
                                                  repeat=len(kappa))
                 if sum(row) == total] for total in nu]
        return {table for table in itertools.product(*rows)
                if tuple(map(sum, zip(*table))) == kappa}

    for n in range(1, 5):
        for nu in all_compositions(n):
            for kappa in all_compositions(n):
                nu, kappa = tuple(nu), tuple(kappa)
                assert brute_tables(nu, kappa) == full_range_tables(nu, kappa)


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


def test_contingency_tables_mismatched_sums():
    with pytest.raises(ValueError):
        list(contingency_tables(Composition((2, 1)), Composition((4,))))
