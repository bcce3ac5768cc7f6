import itertools
import math
import random

import pytest

import descents.cosets
from descents import (
    Composition,
    GeneratorSubset,
    MarginMatrix,
    OrderedPresentation,
    Permutation,
    all_generator_subsets,
    contingency_tables,
    enumerate_double_set,
    enumerate_left_reps,
    graph_of_subset,
    intersect,
    intersection_table,
    is_left_rep,
    ordered_presentation,
    predicted_presentation,
    subset_to_composition,
    verify_subset_pair,
)

from _oracles import filter_left_reps, young_subgroup


def test_is_left_rep_matches_filter():
    for n in range(1, 6):
        group = list(itertools.permutations(range(1, n + 1)))
        for k in all_generator_subsets(n):
            want = set(filter_left_reps(n, k.members))
            got = {p for p in group
                   if is_left_rep(Permutation(p, check=False), k)}
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


def test_double_set_matches_filter():
    for n in range(1, 6):
        for j in all_generator_subsets(n):
            jm = j.members
            for k in all_generator_subsets(n):
                want = []
                for p in filter_left_reps(n, k.members):
                    x = Permutation(p, check=False)
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


def test_double_set_degree_mismatch():
    with pytest.raises(ValueError, match="^degree mismatch: 3 vs 4$"):
        list(enumerate_double_set(GeneratorSubset(3), GeneratorSubset(4)))


def test_degree_mismatch_names_every_degree():
    x = Permutation.identity(3)
    j, k = GeneratorSubset(3), GeneratorSubset(4)
    for call, text in (
            (lambda: is_left_rep(x, k), "3 vs 4"),
            (lambda: intersection_table(x, j, k), "3 vs 3 vs 4"),
            (lambda: verify_subset_pair(j, k), "3 vs 4"),
            (lambda: graph_of_subset(k).image_under(x), "3 vs 4"),
            (lambda: intersect(graph_of_subset(j), graph_of_subset(k)),
             "3 vs 4")):
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
    the inverse and the union-find blocks by set intersection."""
    xi = x.inverse()
    j_blocks = ordered_presentation(graph_of_subset(j))
    k_blocks = ordered_presentation(graph_of_subset(k))
    pulled = [{xi[u - 1] for u in block} for block in j_blocks]
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
    # union-find builds its presentation unchecked; each must survive a
    # validating rebuild
    for n in range(1, 6):
        for j in all_generator_subsets(n):
            for k in all_generator_subsets(n):
                for x in enumerate_double_set(j, k):
                    p = ordered_presentation(
                        intersect(graph_of_subset(j).image_under(x.inverse()),
                                  graph_of_subset(k)))
                    rebuilt = OrderedPresentation(p)
                    assert rebuilt == p
                    assert rebuilt.n == p.n == n


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


def test_intersection_table_bijective_onto_margin_matrices():
    for n in range(1, 7):
        for j in all_generator_subsets(n):
            kappa = subset_to_composition(j)
            for k in all_generator_subsets(n):
                nu = subset_to_composition(k)
                image = [intersection_table(x, j, k)
                         for x in enumerate_double_set(j, k)]
                assert len(set(image)) == len(image), "table repeated"
                assert set(image) == set(contingency_tables(nu, kappa))


def test_intersection_table_rejects_non_representative():
    j = GeneratorSubset(3, {2})
    k = GeneratorSubset(3, {1})
    with pytest.raises(ValueError):
        intersection_table(Permutation((3, 2, 1)), j, k)


def test_predicted_presentation_matches_graph_components():
    rng = random.Random(19)
    for n in range(2, 7):
        subsets = all_generator_subsets(n)
        for _ in range(12):
            j = rng.choice(subsets)
            k = rng.choice(subsets)
            for x in enumerate_double_set(j, k):
                predicted = predicted_presentation(x, j, k)
                computed = ordered_presentation(
                    intersect(graph_of_subset(j).image_under(x.inverse()),
                              graph_of_subset(k)))
                assert predicted == computed


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


def test_verify_pair_parabolic_auto_off_above_five():
    report = verify_subset_pair(GeneratorSubset(6, {1, 2}),
                                GeneratorSubset(6, {4}))
    assert report.passed
    assert report.checks == ("presentation", "reading-word", "bijection")


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
                             "parabolic"]


def test_verify_pair_collects_failures(monkeypatch):
    # force wrong components to exercise the failure plumbing: the
    # "intersection graph" is graph K itself, whatever x is
    monkeypatch.setattr(descents.cosets, "intersect", lambda g, h: h)
    j = GeneratorSubset(4, {})
    k = GeneratorSubset(4, {2})
    report = verify_subset_pair(j, k, max_failures=5)
    assert not report.passed
    assert report.witnesses == 12
    assert report.failure_count > 5
    assert len(report.failures) == 5
    assert report.failures[0].check in ("presentation", "reading-word")
    text = report.to_text()
    assert text.startswith("FAIL")
    assert "more" in text


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
