"""The benchmark's tracer still finds the layer boundaries it wraps.

``perfbench/tracer.py`` replaces module attributes that the package looks
up at call time.  A refactor that calls one of them some other way leaves
the benchmark blind to that layer without failing anything else, so this
test installs the tracer, runs one product of each element type, and
counts the spans.  It only reads ``perfbench/``.
"""

import importlib.util
from pathlib import Path

from descents import (
    Composition,
    GroupAlgebraElement,
    Permutation,
    algebra,
    all_generator_subsets,
    basis_element,
    cosets,
    left_rep_count,
)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_element_products():
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    a = basis_element(Composition((2, 1))) + basis_element(Composition((3,)))
    b = 2 * basis_element(Composition((1, 2)))
    g = GroupAlgebraElement(3, {Permutation((2, 1, 3)): 2})
    h = GroupAlgebraElement(3, {Permutation((1, 3, 2)): -1})
    tracer_module.install(tracer)
    try:
        a * b
        g * h
    finally:
        tracer.remove()
    spans = tracer.by_name()
    assert spans["algebra.element_multiply"][0] == 1
    assert spans["backend.convolve"][0] == 1
    assert tracer.counts["algebra.product_lookups"] == len(a) * len(b)
    # every patch is undone: the product cache is the lru_cache again
    assert callable(algebra._solomon.cache_clear)


def test_tracer_sees_one_convolution_per_oracle_check():
    # the lean comparison convolves the raw indicators through the
    # ``backend.convolve`` attribute, once per check
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    kappa, nu = Composition((2, 2)), Composition((1, 2, 1))
    tracer_module.install(tracer)
    try:
        assert algebra.oracle_agrees(kappa, nu)
    finally:
        tracer.remove()
    spans = tracer.by_name()
    assert spans["backend.convolve"][0] == 1
    assert (tracer.counts["backend.convolve.term_pairs"]
            == left_rep_count(kappa) * left_rep_count(nu) == 6 * 12)


def test_tracer_sees_one_sweep_per_checked_product():
    # the identity re-weights the cached product: a cold product and its
    # identity check sweep the margins once between them
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    kappa, nu = Composition((2, 1)), Composition((1, 2))
    algebra._solomon.cache_clear()
    tracer_module.install(tracer)
    try:
        algebra.solomon_multiply(kappa, nu)
        assert algebra.counting_identity_holds(kappa, nu)
    finally:
        tracer.remove()
        algebra._solomon.cache_clear()
    spans = tracer.by_name()
    assert spans["backend.reading_word_counts"][0] == 1
    assert spans["backend.sum_reading_multinomials"][0] == 1
    assert tracer.counts["backend.reading_word_counts.tables"] == 2
    assert tracer.counts["algebra.product_lookups"] == 2


def test_tracer_sees_one_presentation_per_subset():
    # each witness's intersection graph is the graph of a generator subset,
    # read from the subset cache: a cold n=4 pass reads the runs once for
    # each of the 8 subsets and never per witness (281 of them)
    tracer_module = load_tracer()
    subsets = all_generator_subsets(4)

    def lemma_pass():
        witnesses = 0
        for j in subsets:
            for k in subsets:
                report = cosets.verify_subset_pair(j, k, parabolic=False)
                assert report.passed
                witnesses += report.witnesses
                for x in cosets.enumerate_double_set(j, k):
                    cosets.intersection_table(x, j, k)
        return witnesses

    lemma_pass()
    cosets._subset_data.cache_clear()
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    try:
        witnesses = lemma_pass()
    finally:
        tracer.remove()
    spans = tracer.by_name()
    assert witnesses == 281
    # the pair and witness layers stay visible too: one span per pair,
    # and the witnesses the tracer counts from the reports
    assert spans["cosets.verify_subset_pair"][0] == 64
    assert tracer.counts["cosets.witnesses"] == 281
    assert spans["cosets.intersection_table"][0] == 281
    assert spans["combinatorics.ordered_presentation"][0] == len(subsets) == 8
