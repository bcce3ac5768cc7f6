import copy
import itertools
import math
import pickle
import random

import pytest

import descents.cli
import descents.cosets
from descents import (
    Composition,
    GeneratorSubset,
    MarginMatrix,
    OrderedPresentation,
    Permutation,
    algebra,
    all_generator_subsets,
    backend,
    contingency_tables,
    counting_identity_holds,
    enumerate_double_set,
    enumerate_group,
    enumerate_left_reps,
    graph_of_subset,
    intersection_table,
    is_left_rep,
    ordered_presentation,
    predicted_presentation,
    subset_to_composition,
    verify_subset_pair,
)

from _oracles import (
    breadth_first_components,
    filter_left_reps,
    intersection_graph_components,
    intersection_graph_edges,
    subset_edges,
    young_subgroup,
)


def test_is_left_rep_matches_filter():
    for n in range(1, 6):
        group = list(itertools.permutations(range(1, n + 1)))
        for k in all_generator_subsets(n):
            want = set(filter_left_reps(n, k.members))
            got = {p for p in group
                   if is_left_rep(Permutation(p), k)}
            assert got == want


def test_enumerate_left_reps_matches_filter():
    for n in range(1, 7):
        for k in all_generator_subsets(n):
            reps = list(enumerate_left_reps(k))
            assert reps == filter_left_reps(n, k.members)


def test_enumerate_left_reps_is_sorted():
    # the filter oracle emits lexicographic order by construction; also
    # check it explicitly for one mid-sized case
    k = GeneratorSubset(7, {1, 2, 5})
    reps = list(enumerate_left_reps(k))
    assert reps == sorted(reps)


def test_left_rep_count_is_multinomial():
    for n in range(1, 7):
        for k in all_generator_subsets(n):
            parts = subset_to_composition(k)
            want = math.factorial(n)
            for p in parts:
                want //= math.factorial(p)
            assert sum(1 for _ in enumerate_left_reps(k)) == want


def test_enumerate_left_reps_bound():
    with pytest.raises(ValueError):
        next(enumerate_left_reps(GeneratorSubset(13, {1})))
    it = enumerate_left_reps(GeneratorSubset(13, set(range(1, 13))),
                             max_degree=13)
    assert next(it) == Permutation.identity(13)


def test_rep_images_cache_is_bounded():
    cache = descents.cosets._rep_images
    cache.cache_clear()
    for n in range(1, 8):
        for k in all_generator_subsets(n):
            want = math.factorial(n)
            for p in subset_to_composition(k):
                want //= math.factorial(p)
            assert sum(1 for _ in enumerate_left_reps(k)) == want
    info = cache.cache_info()
    # all 127 compositions through n=7 stay cached, within the bound
    assert info.currsize == 127
    assert info.currsize <= info.maxsize


def test_rep_images_meet_their_definitions():
    # X_K from the cache, read against the definitions: strictly
    # increasing, each a left representative, as many as the multinomial,
    # and each stored with the descent mask of its inverse
    for n in range(1, 7):
        for k in all_generator_subsets(n):
            reps = descents.cosets._rep_images(n, k.mask)
            images = [x for x, _ in reps]
            assert all(a < b for a, b in zip(images, images[1:]))
            assert all(is_left_rep(x, k) for x in images)
            want = math.factorial(n)
            for p in subset_to_composition(k):
                want //= math.factorial(p)
            assert len(reps) == want
            for x, mask in reps:
                y = x.inverse()
                assert mask == sum(1 << (h - 1) for h in range(1, n)
                                   if y[h - 1] > y[h])


def test_double_set_matches_filter():
    for n in range(1, 6):
        for j in all_generator_subsets(n):
            jm = j.members
            for k in all_generator_subsets(n):
                want = []
                for p in filter_left_reps(n, k.members):
                    x = Permutation(p)
                    if all(x.inverse()[h - 1] < x.inverse()[h] for h in jm):
                        want.append(p)
                got = list(enumerate_double_set(j, k))
                assert got == want


def test_enumerate_double_set_bound():
    with pytest.raises(ValueError, match="above bound 12"):
        next(enumerate_double_set(GeneratorSubset(13), GeneratorSubset(13)))
    full = GeneratorSubset(13, set(range(1, 13)))
    assert list(enumerate_double_set(full, full, max_degree=13)) == [
        Permutation.identity(13)]


def test_streams_check_their_arguments_at_the_call():
    # like solomon_multiply and verify_subset_pair, each public stream
    # raises on bad arguments before anything iterates it
    calls = [
        lambda: contingency_tables(Composition((13,)), Composition((13,))),
        lambda: enumerate_left_reps(GeneratorSubset(13, [1])),
        lambda: enumerate_double_set(GeneratorSubset(3), GeneratorSubset(4)),
        lambda: enumerate_group(0),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_double_set_degree_mismatch():
    with pytest.raises(ValueError, match="^degree mismatch: 3 vs 4$"):
        list(enumerate_double_set(GeneratorSubset(3), GeneratorSubset(4)))


def test_degree_mismatch_names_every_degree():
    x = Permutation.identity(3)
    j, k = GeneratorSubset(3), GeneratorSubset(4)
    for call, text in (
            (lambda: is_left_rep(x, k), "3 vs 4"),
            (lambda: intersection_table(x, j, k), "3 vs 3 vs 4"),
            (lambda: verify_subset_pair(j, k), "3 vs 4")):
        with pytest.raises(ValueError, match=f"^degree mismatch: {text}$"):
            call()


def test_intersection_table_margins():
    # the table is built unchecked: it must have the pair's margins and
    # survive a validating rebuild
    for n in range(1, 6):
        for j in all_generator_subsets(n):
            for k in all_generator_subsets(n):
                for x in enumerate_double_set(j, k):
                    z = intersection_table(x, j, k)
                    assert z.row_margins == subset_to_composition(k)
                    assert z.col_margins == subset_to_composition(j)
                    assert MarginMatrix(z) == z


def reference_intersections(x, j, k):
    """``x^{-1}(J_q) & K_m`` as sorted tuples, one row per K block, from
    the positions of x's values and the breadth-first blocks of the two
    subset graphs by set intersection."""
    n = len(x)
    j_blocks = breadth_first_components(n, subset_edges(j.members))
    k_blocks = breadth_first_components(n, subset_edges(k.members))
    pulled = [{x.index(u) + 1 for u in block} for block in j_blocks]
    return [[tuple(sorted(pb & set(km))) for pb in pulled]
            for km in k_blocks]


def test_cell_index_matches_set_intersections():
    # one index pass places every position in its cell; it must agree with
    # the intersections taken as sets
    for n in range(1, 6):
        for j in all_generator_subsets(n):
            for k in all_generator_subsets(n):
                for x in enumerate_double_set(j, k):
                    rows = reference_intersections(x, j, k)
                    assert intersection_table(x, j, k) == tuple(
                        tuple(len(c) for c in row) for row in rows)
                    assert predicted_presentation(x, j, k) == tuple(
                        c for row in rows for c in row if c)


def test_verify_pair_bound_reaches_the_enumerations():
    # n=13 lies above the lemma bound and the enumeration bound; a raised
    # bound lets the one-witness pair through both
    full = GeneratorSubset(13, set(range(1, 13)))
    with pytest.raises(ValueError, match="above bound 6"):
        verify_subset_pair(full, full)
    report = verify_subset_pair(full, full, max_degree=13)
    assert report.passed
    assert report.witnesses == 1


def test_intersection_graph_presentations_pass_validation():
    # the lemma check reads the presentation of each witness's
    # intersection graph from the subset cache, under the meet's mask; it
    # is built unchecked, must be the graph's components and must survive
    # a validating rebuild
    subset_data = descents.cosets._subset_data
    meet = descents.cosets._meet
    for n in range(1, 6):
        for j in all_generator_subsets(n):
            for k in all_generator_subsets(n):
                for x in enumerate_double_set(j, k):
                    p = subset_data(n, meet(x, j, k))[0]
                    assert p == intersection_graph_components(
                        x, j.members, k.members)
                    rebuilt = OrderedPresentation(p)
                    assert rebuilt == p
                    assert rebuilt.n == p.n == n


def test_meet_graph_is_the_intersection_graph():
    # the mask of x^{-1} J x & K read from x's adjacent values, for every
    # permutation x, not only the double representatives: the graph of
    # the subset with those bits is the intersection graph built by
    # relabelling and intersecting edge sets
    meet = descents.cosets._meet
    for n in range(1, 6):
        subsets = all_generator_subsets(n)
        for p in itertools.permutations(range(1, n + 1)):
            x = Permutation(p)
            for j in subsets:
                for k in subsets:
                    bits = meet(x, j, k)
                    subset = GeneratorSubset(
                        n, [i for i in range(1, n) if bits >> (i - 1) & 1])
                    assert graph_of_subset(subset).edges == tuple(
                        intersection_graph_edges(p, j.members, k.members))


def test_intersection_table_small_example():
    # n=3, J={2} (components {1},{2,3}), K={1} (components {1,2},{3});
    # worked by hand: the double set is {123, 231} and the two tables are
    # the two matrices with row sums 2,1 and column sums 1,2
    j = GeneratorSubset(3, {2})
    k = GeneratorSubset(3, {1})
    tables = {x: intersection_table(x, j, k)
              for x in enumerate_double_set(j, k)}
    assert tables == {
        (1, 2, 3): ((1, 1), (0, 1)),
        (2, 3, 1): ((0, 2), (1, 0)),
    }


@pytest.fixture(scope="module")
def double_set_images():
    # for every subset pair with n <= 6: the tables the double set hits,
    # walked in lexicographic order, and the margin matrices as listed
    images = []
    for n in range(1, 7):
        subsets = all_generator_subsets(n)
        for j in subsets:
            kappa = subset_to_composition(j)
            for k in subsets:
                nu = subset_to_composition(k)
                image = [intersection_table(x, j, k)
                         for x in enumerate_double_set(j, k)]
                images.append(((j, k), image,
                               list(contingency_tables(nu, kappa))))
    assert len(images) == 1365
    return images


def test_intersection_table_bijective_onto_margin_matrices(double_set_images):
    for pair, image, listed in double_set_images:
        assert len(set(image)) == len(image), ("table repeated", pair)
        assert set(image) == set(listed), pair


def test_double_set_meets_the_tables_in_listing_order(double_set_images):
    # walked in lexicographic order, the double set hits the margin
    # matrices in the descending row-major order contingency_tables lists
    # them: the lemma check walks the two lists in step, and leaves them
    # for a dict of the tables hit only when this order fails
    for pair, image, listed in double_set_images:
        assert image == listed, pair


def test_intersection_table_rejects_non_representative():
    j = GeneratorSubset(3, {2})
    k = GeneratorSubset(3, {1})
    with pytest.raises(ValueError, match=r"^321 is not a double "
                                         r"representative for the given pair$"):
        intersection_table(Permutation((3, 2, 1)), j, k)
    with pytest.raises(ValueError, match=r"^degree mismatch: 2 vs 3 vs 3$"):
        intersection_table(Permutation((2, 1)), j, k)


def test_intersection_table_rejects_exactly_the_non_representatives():
    # the check runs on descent masks; the double set it must accept is
    # the stream's, for every permutation and subset pair with n <= 5
    for n in range(1, 6):
        subsets = all_generator_subsets(n)
        group = [Permutation(p)
                 for p in itertools.permutations(range(1, n + 1))]
        for j in subsets:
            for k in subsets:
                double = set(enumerate_double_set(j, k))
                for x in group:
                    try:
                        intersection_table(x, j, k)
                    except ValueError as exc:
                        assert x not in double
                        assert str(exc) == (
                            f"{x.to_text()} is not a double representative"
                            " for the given pair")
                    else:
                        assert x in double


def test_predicted_presentation_matches_graph_components():
    rng = random.Random(19)
    for n in range(2, 7):
        subsets = all_generator_subsets(n)
        for _ in range(12):
            j = rng.choice(subsets)
            k = rng.choice(subsets)
            for x in enumerate_double_set(j, k):
                predicted = predicted_presentation(x, j, k)
                assert predicted == intersection_graph_components(
                    x, j.members, k.members)


def test_presentation_subgroup_matches_young_oracle():
    for n in range(1, 6):
        for k in all_generator_subsets(n):
            blocks = ordered_presentation(graph_of_subset(k))
            got = {p
                   for p in descents.cosets._presentation_subgroup(blocks)}
            assert got == set(young_subgroup(n, k.members))


def test_verify_subset_pair_passes_everywhere_small():
    for n in range(1, 5):
        for j in all_generator_subsets(n):
            for k in all_generator_subsets(n):
                report = verify_subset_pair(j, k)
                assert report.passed
                assert report.failure_count == 0
                assert "parabolic" in report.checks
                assert report.witnesses == sum(
                    1 for _ in enumerate_double_set(j, k))


def test_lemma_certifies_every_product_of_degree_7():
    # the lemma route, product check included, passes on all 4 096 pairs
    # at n=7: its witness tally equals solomon_multiply on each
    pairs = witnesses = 0
    subsets = all_generator_subsets(7)
    for j in subsets:
        for k in subsets:
            report = verify_subset_pair(j, k, parabolic=False, max_degree=7)
            assert report.passed, report.to_text()
            pairs += 1
            witnesses += report.witnesses
    assert (pairs, witnesses) == (4096, 546193)


def test_verify_pair_parabolic_auto_off_above_five():
    report = verify_subset_pair(GeneratorSubset(6, {1, 2}),
                                GeneratorSubset(6, {4}))
    assert report.passed
    assert report.checks == ("presentation", "reading-word", "bijection",
                             "product")


def test_verify_pair_bound_and_override():
    with pytest.raises(ValueError):
        verify_subset_pair(GeneratorSubset(7), GeneratorSubset(7))
    report = verify_subset_pair(GeneratorSubset(7, set(range(1, 7))),
                                GeneratorSubset(7, set(range(1, 7))),
                                max_degree=7)
    assert report.passed
    assert report.witnesses == 1


def test_verify_pair_report_text_and_record():
    j = GeneratorSubset(3, {2})
    k = GeneratorSubset(3, {1})
    report = verify_subset_pair(j, k)
    assert report.to_text() == "PASS n=3 J={2} K={1} witnesses=2"
    rec = report.record()
    assert rec["passed"] is True
    assert rec["witnesses"] == 2
    assert rec["failures"] == []
    assert rec["checks"] == ["presentation", "reading-word", "bijection",
                             "product", "parabolic"]


def test_verify_pair_collects_failures(monkeypatch):
    # force wrong components to exercise the failure plumbing: the
    # "intersection graph" is graph K itself, whatever x is
    monkeypatch.setattr(descents.cosets, "_meet", lambda x, j, k: k.mask)
    j = GeneratorSubset(4, {})
    k = GeneratorSubset(4, {2})
    report = verify_subset_pair(j, k)
    assert not report.passed
    assert report.witnesses == 12
    assert report.failure_count == 38
    assert len(report.failures) == descents.cosets.MAX_FAILURES == 10
    assert report.failures[0].check in ("presentation", "reading-word")
    text = report.to_text()
    assert text.startswith("FAIL")
    assert "more" in text
    rec = report.record()
    assert rec["passed"] is False and rec["failure_count"] == 38
    assert rec["failures"] == [
        {"x": f.x_text, "check": f.check, "detail": f.detail}
        for f in report.failures]


def test_verify_pair_bijection_names_missing_and_extra_tables(monkeypatch):
    # J={2}, K={1} at n=3: two witnesses, two tables (see the small example)
    j = GeneratorSubset(3, {2})
    k = GeneratorSubset(3, {1})
    real = list(contingency_tables(subset_to_composition(k),
                                   subset_to_composition(j)))
    dropped = real[-1]
    monkeypatch.setattr(descents.cosets, "contingency_tables",
                        lambda rows, cols, max_degree=None: iter(real[:-1]))
    report = verify_subset_pair(j, k)
    assert not report.passed
    assert [f.check for f in report.failures] == ["bijection"]
    assert dropped.to_text() in report.failures[0].detail
    assert report.failures[0].x_text != "-"

    extra = MarginMatrix([[3]])
    monkeypatch.setattr(descents.cosets, "contingency_tables",
                        lambda rows, cols, max_degree=None:
                            iter(real + [extra]))
    report = verify_subset_pair(j, k)
    assert not report.passed
    assert [f.check for f in report.failures] == ["bijection"]
    assert report.failures[0].x_text == "-"
    assert extra.to_text() in report.failures[0].detail


def test_verify_pair_bijection_names_repeated_table(monkeypatch):
    # 213 is no left representative of K={1}, and its table [1 1; 0 1]
    # is the one the witness 123 already hits
    j = GeneratorSubset(3, {2})
    k = GeneratorSubset(3, {1})
    real = list(enumerate_double_set(j, k))
    monkeypatch.setattr(
        descents.cosets, "enumerate_double_set",
        lambda j, k, max_degree=None:
            iter(real + [Permutation.from_text("213")]))
    report = verify_subset_pair(j, k, parabolic=False)
    repeated = [f for f in report.failures if f.check == "bijection"]
    assert len(repeated) == 1
    assert repeated[0].x_text == "213"
    assert "[1 1; 0 1]" in repeated[0].detail
    assert "123" in repeated[0].detail


def test_verify_pair_names_a_wrong_reading_word(monkeypatch):
    # tables counted with their rows reversed: the witness 231's table
    # [1 0; 0 2] reads 1,2 against its components' sizes 2,1, and neither
    # table is a margin matrix of the pair; the presentation, read off
    # the keys, stays right
    real = descents.cosets._counts

    def rows_swapped(keys, size):
        # two rows of two: key m * 2 + q is counted as (1 - m) * 2 + q
        counts = real(keys, size)
        return counts[2:] + counts[:2]

    monkeypatch.setattr(descents.cosets, "_counts", rows_swapped)
    report = verify_subset_pair(GeneratorSubset(3, {2}),
                                GeneratorSubset(3, {1}))
    foreign = "is not a margin matrix of the pair"
    assert report.to_text().splitlines() == [
        "FAIL n=3 J={2} K={1} witnesses=2",
        "  failures: 5",
        "  x=231 [reading-word] component sizes (2, 1) != reading word (1, 2)",
        f"  x=123 [bijection] table [0 1; 1 1] {foreign}",
        f"  x=231 [bijection] table [1 0; 0 2] {foreign}",
        "  x=- [bijection] no witness hits table [1 1; 0 1]",
        "  x=- [bijection] no witness hits table [0 2; 1 0]",
    ]
    # at J={1,2}, K={1,3} the two witnesses trade their tables, so the
    # tables hit are still the margin matrices and the meets, which give
    # the presentations and the product, are right: only the reading-word
    # check sees the fault
    report = verify_subset_pair(GeneratorSubset(4, {1, 2}),
                                GeneratorSubset(4, {1, 3}))
    assert report.to_text().splitlines() == [
        "FAIL n=4 J={1,2} K={1,3} witnesses=2",
        "  failures: 2",
        "  x=1234 [reading-word] component sizes (2, 1, 1) "
        "!= reading word (1, 1, 2)",
        "  x=1423 [reading-word] component sizes (1, 1, 2) "
        "!= reading word (2, 1, 1)",
    ]


def _patch_kernel(monkeypatch, request, rows, cols, moves):
    """Make the table route's sweep add ``moves[word]`` to each word's
    count for the margins ``rows`` and ``cols``, a kernel fault in the
    product B(cols)·B(rows); products are cleared before and after."""
    real = backend.reading_word_counts

    def faulty(row_margins, col_margins, n):
        counts = real(row_margins, col_margins, n)
        if (row_margins, col_margins) == (rows, cols):
            for word, delta in moves.items():
                counts[word] = counts.get(word, 0) + delta
        return {word: c for word, c in counts.items() if c}

    monkeypatch.setattr(backend, "reading_word_counts", faulty)
    algebra._solomon.cache_clear()
    request.addfinalizer(algebra._solomon.cache_clear)


def test_verify_pair_names_a_dropped_table(capsys, monkeypatch, request):
    # one of the two tables of B(2,1,2)·B(1,2,2) with reading word
    # 1,1,1,2 is dropped: the lemma scope, run alone or with the parabolic
    # check, fails on that pair only, through the product
    _patch_kernel(monkeypatch, request, (1, 2, 2), (2, 1, 2),
                  {(1, 1, 1, 2): -1})
    for scope in ("--lemma", "--parabolic"):
        assert descents.cli.main(["verify", "5", scope]) == 1
        assert "failures=1)" in capsys.readouterr().out
    report = verify_subset_pair(GeneratorSubset(5, {1, 4}),
                                GeneratorSubset(5, {2, 4}))
    assert report.to_text().splitlines() == [
        "FAIL n=5 J={1,4} K={2,4} witnesses=11",
        "  failures: 1",
        "  x=- [product] B(1,1,1,2): 2 witnesses, coefficient 1",
    ]


def test_verify_pair_names_a_refiled_count(monkeypatch, request):
    # one count of B(4,1,1,1)·B(4,3) moves from 4,1,1,1 to 3,2,2, whose
    # multinomials are equal: the counting identity still holds, and the
    # product check names both words
    _patch_kernel(monkeypatch, request, (4, 3), (4, 1, 1, 1),
                  {(4, 1, 1, 1): -1, (3, 2, 2): 1})
    kappa, nu = Composition((4, 1, 1, 1)), Composition((4, 3))
    assert counting_identity_holds(kappa, nu, max_degree=7)
    report = verify_subset_pair(GeneratorSubset(7, {1, 2, 3}),
                                GeneratorSubset(7, {1, 2, 3, 5, 6}),
                                max_degree=7)
    assert [(f.x_text, f.check, f.detail) for f in report.failures] == [
        ("-", "product", "B(3,2,2): 0 witnesses, coefficient 1"),
        ("-", "product", "B(4,1,1,1): 1 witnesses, coefficient 0"),
    ]


def test_verify_pair_names_a_wrong_conjugate(monkeypatch):
    # with x^{-1} read as x, x W_J x^{-1} meets W_K where x^{-1} W_J x
    # should: only the parabolic check sees it, on 136 witnesses at n=4
    monkeypatch.setattr(Permutation, "inverse", lambda self: self)
    reports = [verify_subset_pair(j, k, parabolic=True)
               for j in all_generator_subsets(4)
               for k in all_generator_subsets(4)]
    assert sum(r.failure_count for r in reports) == 136
    assert {f.check for r in reports for f in r.failures} == {"parabolic"}
    empty = reports[0]
    assert empty.j_members == empty.k_members == ()
    assert ("  x=1342 [parabolic] conjugated intersection has 0 elements, "
            "Young subgroup has 1") in empty.to_text().splitlines()


def _patch_keys(monkeypatch, fault):
    real = descents.cosets._keys

    def faulty(x, grid):
        return fault(real(x, grid))

    monkeypatch.setattr(descents.cosets, "_keys", faulty)


def test_verify_pair_names_a_prediction_out_of_order(monkeypatch):
    # swapping the labels of a witness's two least keys trades the
    # positions of its first two cells, which lists a block before one
    # with a smaller least element: the checked constructor rejects it
    def swap_first_two(keys):
        labels = sorted(set(keys))
        if len(labels) < 2:
            return keys
        a, b = labels[:2]
        return [b if key == a else a if key == b else key for key in keys]

    _patch_keys(monkeypatch, swap_first_two)
    j = GeneratorSubset(4, {2})
    k = GeneratorSubset(4, {1, 3})
    report = verify_subset_pair(j, k, parabolic=False)
    presentation = [(f.x_text, f.detail) for f in report.failures
                    if f.check == "presentation"]
    rejected = "prediction rejected: blocks must be listed by least element"
    assert presentation == [(x, rejected)
                            for x in ("1234", "1423", "2314", "2413")]
    assert f"  x=1234 [presentation] {rejected}" in report.to_text()


def test_verify_pair_names_a_wrong_prediction(monkeypatch):
    # every position given the least key makes one block of them all: a
    # presentation, but not the components of the intersection graph
    def merge_all(keys):
        return [min(keys)] * len(keys)

    _patch_keys(monkeypatch, merge_all)
    j = GeneratorSubset(4, {2})
    k = GeneratorSubset(4, {1, 3})
    report = verify_subset_pair(j, k, parabolic=False)
    presentation = [(f.x_text, f.detail) for f in report.failures
                    if f.check == "presentation"]
    assert presentation == [
        ("1234", "predicted ({1,2,3,4}) but components are ({1},{2},{3},{4})"),
        ("1423", "predicted ({1,2,3,4}) but components are ({1},{2},{3,4})"),
        ("2314", "predicted ({1,2,3,4}) but components are ({1,2},{3},{4})"),
        ("2413", "predicted ({1,2,3,4}) but components are ({1},{2},{3},{4})"),
    ]
    assert ("  x=1423 [presentation] predicted ({1,2,3,4}) "
            "but components are ({1},{2},{3,4})") in report.to_text()


def test_verify_pair_names_a_witness_listed_twice(monkeypatch):
    # the double set yields the very same witness object a second time:
    # the table it hits again was hit by that object, and the repeat is
    # still named; counted twice, it also gives the product one witness
    # too many
    j = GeneratorSubset(3, {2})
    k = GeneratorSubset(3, {1})
    real = list(enumerate_double_set(j, k))
    monkeypatch.setattr(descents.cosets, "enumerate_double_set",
                        lambda j, k, max_degree=None: iter(real + real[:1]))
    report = verify_subset_pair(j, k)
    assert report.to_text().splitlines() == [
        "FAIL n=3 J={2} K={1} witnesses=3",
        "  failures: 2",
        "  x=123 [bijection] table [1 1; 0 1] already hit by 123",
        "  x=- [product] B(1,1,1): 2 witnesses, coefficient 1",
    ]


ORDER_PAIRS = [(3, {2}, {1}), (4, set(), {2}), (4, {1, 3}, {2}),
               (4, {1}, {3}), (5, {2, 4}, {1, 3}), (5, {2}, {1, 4})]


@pytest.mark.parametrize("n,j_members,k_members", ORDER_PAIRS)
def test_verify_pair_report_does_not_depend_on_the_order(
        monkeypatch, n, j_members, k_members):
    # the walk in step is a shortcut: with the true tables listed in
    # another order or one of them listed twice, and with the witnesses
    # walked in reverse, the report is the one the sets give, failures,
    # their order and their text included; one count too many in each
    # table's first cell makes every table hit foreign to the pair
    cosets = descents.cosets
    j = GeneratorSubset(n, j_members)
    k = GeneratorSubset(n, k_members)
    real = list(contingency_tables(subset_to_composition(k),
                                   subset_to_composition(j)))
    walk = list(enumerate_double_set(j, k))
    listings = {
        "reversed": real[::-1],
        "rotated": real[1:] + real[:1],
        "first listed twice": real[:1] + real,
        "middle listed twice": real[:2] + real[1:],
        "last listed twice": real + real[-1:],
    }
    passing = verify_subset_pair(j, k)
    assert passing.passed and passing.witnesses == len(real)
    real_counts = cosets._counts

    def one_too_many(keys, size):
        counts = real_counts(keys, size)
        return (counts[0] + 1,) + counts[1:]

    for fault in (None, one_too_many):
        if fault is not None:
            monkeypatch.setattr(cosets, "_counts", fault)
        want = verify_subset_pair(j, k)
        for name, listing in listings.items():
            monkeypatch.setattr(cosets, "contingency_tables",
                                lambda *args, listing=listing, **kwargs:
                                    iter(listing))
            got = verify_subset_pair(j, k)
            assert got.record() == want.record(), (name, fault)
            assert got.to_text() == want.to_text(), (name, fault)
        monkeypatch.undo()
    assert not want.passed
    monkeypatch.setattr(cosets, "enumerate_double_set",
                        lambda *args, **kwargs: iter(walk[::-1]))
    got = verify_subset_pair(j, k)
    assert got.record() == passing.record()
    assert got.to_text() == passing.to_text()


def test_verify_pair_presentation_shortcut_is_exact(monkeypatch):
    # verify_subset_pair builds a witness's prediction only when its keys
    # fall along the positions or its reading word is not the blocks'
    # sizes; that must happen exactly when the prediction differs from
    # the blocks.  Every permutation of S_n is fed in as a witness once
    # for each meet mask inside K, and each half of the test is seen
    # deciding some cases alone
    cosets = descents.cosets
    state = {}
    built = []

    def prediction(keys):
        # record the build, and pass the check: only when it runs matters
        built.append(state["index"])
        return state["blocks"][state["meet"]]

    def witnesses(j, k, max_degree=None):
        for index, (x, meet) in enumerate(state["items"]):
            state["index"], state["meet"] = index, meet
            yield x

    monkeypatch.setattr(cosets, "_prediction", prediction)
    monkeypatch.setattr(cosets, "enumerate_double_set", witnesses)
    monkeypatch.setattr(cosets, "_meet", lambda x, j, k: state["meet"])
    # the tables play no part here: each witness gets its own, and those
    # are the margin matrices, so no bijection failure is formatted
    monkeypatch.setattr(cosets, "_table", lambda counts, r: state["index"])
    monkeypatch.setattr(cosets, "contingency_tables",
                        lambda *args, **kwargs: range(len(state["items"])))
    alone = {"keys fall": 0, "sizes differ": 0}
    for n in range(1, 6):
        subsets = all_generator_subsets(n)
        blocks = state["blocks"] = {
            j.mask: ordered_presentation(graph_of_subset(j)) for j in subsets}
        group = [Permutation(p)
                 for p in itertools.permutations(range(1, n + 1))]
        for j in subsets:
            for k in subsets:
                meets = [m for m in range(k.mask + 1) if not m & ~k.mask]
                state["items"] = [(x, m) for x in group for m in meets]
                want = []
                for x in group:
                    # the cells from set intersections, in key order
                    xi = x.inverse()
                    pulled = [{xi[v - 1] for v in block}
                              for block in blocks[j.mask]]
                    cells = [tuple(sorted(pb & set(km)))
                             for km in blocks[k.mask] for pb in pulled]
                    predicted = tuple(filter(None, cells))
                    key_of = {p: key for key, cell in enumerate(cells)
                              for p in cell}
                    keys = [key_of[p] for p in range(1, n + 1)]
                    falls = keys != sorted(keys)
                    word = tuple(map(len, predicted))
                    for m in meets:
                        differs = word != tuple(map(len, blocks[m]))
                        want.append(predicted != blocks[m])
                        alone["keys fall"] += falls and not differs
                        alone["sizes differ"] += differs and not falls
                built.clear()
                verify_subset_pair(j, k, parabolic=False)
                assert built == [i for i, w in enumerate(want) if w], (n, j, k)
    assert all(alone.values()), alone


def test_pair_report_value_semantics():
    # the report types are tuples built once: they compare and hash as
    # their fields, refuse assignment, and print, pickle and copy by field
    from descents.cosets import PairFailure, PairReport

    report = verify_subset_pair(GeneratorSubset(3, [1]),
                                GeneratorSubset(3, [2]))
    assert repr(report) == (
        "PairReport(n=3, j_members=(1,), k_members=(2,), checks=("
        "'presentation', 'reading-word', 'bijection', 'product', "
        "'parabolic'), "
        "witnesses=2, failure_count=0, failures=())")
    failure = PairFailure("132", "bijection", "no witness")
    assert repr(failure) == (
        "PairFailure(x_text='132', check='bijection', detail='no witness')")
    failed = PairReport(3, (1,), (2,), ("bijection",), failure_count=1,
                        failures=(failure,))
    assert repr(failed) == (
        "PairReport(n=3, j_members=(1,), k_members=(2,), "
        "checks=('bijection',), witnesses=0, failure_count=1, failures=("
        "PairFailure(x_text='132', check='bijection', detail='no witness'),))")

    again = verify_subset_pair(GeneratorSubset(3, [1]),
                               GeneratorSubset(3, [2]))
    assert again == report and not again != report
    assert hash(again) == hash(report)
    assert again._replace(witnesses=3) != report
    assert failure == PairFailure("132", "bijection", "no witness")
    assert failure != PairFailure("132", "bijection", "other")
    assert report != (3, (1,), (2,))
    assert report == tuple(report) and hash(report) == hash(tuple(report))
    assert failure == ("132", "bijection", "no witness")
    assert len({report, again, failed}) == 2
    for value in (report, failed, failure):
        for name in value._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            value.extra = 1
        for clone in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                      copy.deepcopy(value)):
            assert type(clone) is type(value)
            assert clone == value and hash(clone) == hash(value)
            assert repr(clone) == repr(value)

    empty = PairReport(3, (), (), ())
    assert empty.failures == () and empty.passed
    assert (empty.witnesses, empty.failure_count) == (0, 0)
    assert PairReport(n=3, j_members=(), k_members=(), checks=(),
                      witnesses=4) == PairReport(3, (), (), (), 4)


def test_subset_data_builds_no_generator_subset(monkeypatch):
    # a cold fill reads each subset's graph and composition off its mask
    built = []
    init = GeneratorSubset.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    subsets = all_generator_subsets(6)
    descents.cosets._subset_data.cache_clear()
    monkeypatch.setattr(GeneratorSubset, "__init__", counting_init)
    data = [descents.cosets._subset_data(6, j.mask) for j in subsets]
    assert built == []
    for j, (blocks, kappa, where) in zip(subsets, data):
        assert blocks == ordered_presentation(graph_of_subset(j))
        assert all(v in blocks[where[v]] for v in range(1, 7))
        assert type(kappa) is Composition
        assert kappa == subset_to_composition(j)
