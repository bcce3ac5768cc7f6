import importlib
import io
import itertools
import math
import pkgutil
import random
import re
import tracemalloc

import pytest

import descents
from descents import (
    Composition,
    DescentElement,
    GroupAlgebraElement,
    Permutation,
    all_compositions,
    basis_element,
    composition_to_subset,
    contingency_tables,
    counting_identity_holds,
    element_multiply,
    enumerate_left_reps,
    identity_element,
    left_rep_count,
    oracle_agrees,
    oracle_mismatch,
    oracle_multiply,
    reading_multinomial_sum,
    solomon_multiply,
    structure_constants,
    structure_records,
    to_group_algebra,
    write_structure_csv,
)
from descents import algebra, backend, cli, perms
from descents.algebra import STRUCTURE_SCHEMA_VERSION

from _oracles import filter_left_reps, naive_convolve


def test_basis_element_and_zero():
    b = basis_element(Composition((2, 1)))
    assert b.n == 3
    assert b.terms.get(Composition((2, 1)), 0) == 1
    assert b.terms.get(Composition((3,)), 0) == 0
    assert not DescentElement(3)
    assert b


def test_identity_element_is_one_part_basis():
    for n in range(1, 6):
        e = identity_element(n)
        assert e == basis_element(Composition((n,)))
        for kappa in all_compositions(n):
            b = basis_element(kappa)
            assert e * b == b
            assert b * e == b


def test_element_str_forms():
    assert str(DescentElement(3)) == "0"
    assert str(basis_element(Composition((1, 2)))) == "B(1,2)"
    k, v = Composition((2, 1)), Composition((1, 2))
    assert str(solomon_multiply(k, v)) == "B(1,1,1) + B(1,2)"
    two = solomon_multiply(Composition((1, 1)), Composition((1, 1)))
    assert str(two) == "2 B(1,1)"
    neg = -basis_element(Composition((3,))) - 2 * basis_element(
        Composition((1, 1, 1)))
    assert str(neg) == "-2 B(1,1,1) - B(3)"


def test_vector_space_operations():
    a = basis_element(Composition((2, 1)))
    b = basis_element(Composition((1, 2)))
    assert a + b == b + a
    assert a - a == DescentElement(3)
    assert 3 * a == a + a + a
    assert (-1) * a == -a
    with pytest.raises(ValueError):
        a + basis_element(Composition((2, 2)))


def test_degree_mismatch_names_both_degrees():
    a = basis_element(Composition((2, 1)))
    b = basis_element(Composition((2, 2)))
    three, four = Composition((2, 1)), Composition((2, 2))
    for call in (lambda: a + b, lambda: a - b, lambda: element_multiply(a, b),
                 lambda: solomon_multiply(three, four),
                 lambda: oracle_multiply(three, four),
                 lambda: oracle_mismatch(three, Composition((1, 1, 2))),
                 lambda: reading_multinomial_sum(three, four),
                 lambda: counting_identity_holds(three, four),
                 lambda: list(contingency_tables(three, four))):
        with pytest.raises(ValueError, match="^degree mismatch: 3 vs 4$"):
            call()


def test_known_product():
    k, v = Composition((2, 1)), Composition((1, 2))
    prod = solomon_multiply(k, v)
    assert prod.terms.get(Composition((1, 1, 1)), 0) == 1
    assert prod.terms.get(Composition((1, 2)), 0) == 1
    assert len(prod.terms) == 2


def test_product_terms_match_tables():
    # each margin matrix contributes one copy of its reading word
    rng = random.Random(41)
    for n in range(1, 7):
        comps = all_compositions(n)
        for _ in range(10):
            kappa, nu = rng.choice(comps), rng.choice(comps)
            counts = {}
            for z in contingency_tables(nu, kappa):
                w = z.reading_word()
                counts[w] = counts.get(w, 0) + 1
            assert solomon_multiply(kappa, nu).terms == counts


def test_product_terms_pass_validation():
    # the product's terms are built unchecked; each must survive a
    # validating rebuild
    for n in range(1, 6):
        comps = all_compositions(n)
        for kappa in comps:
            for nu in comps:
                for eta in solomon_multiply(kappa, nu).terms:
                    rebuilt = Composition(eta)
                    assert rebuilt == eta
                    assert rebuilt.n == eta.n == n


def test_product_terms_share_one_composition_per_word():
    # however many products hold a word, they share one key object, so a
    # degree's products hold at most 2**(n-1) keys; the products are kept
    # alive so that no id is reused
    algebra._solomon.cache_clear()
    for n in range(1, 7):
        comps = all_compositions(n)
        products = [solomon_multiply(kappa, nu)
                    for kappa in comps for nu in comps]
        keys = [eta for product in products for eta in product.terms]
        assert all(type(eta) is Composition for eta in keys)
        shared = {id(eta): eta for eta in keys}
        assert len(shared) == len(set(keys)) <= 2 ** (n - 1)
        every = DescentElement(n, dict.fromkeys(comps, 1))
        for eta in element_multiply(every, every).terms:
            assert shared.get(id(eta)) is eta


def test_cold_products_retain_one_key_per_composition():
    # the 4 096 products of degree 7, built cold under tracemalloc, retain
    # 2.62 MiB with one shared key per composition, and 4.42 MiB with a
    # fresh key per term of each product
    comps = all_compositions(7)
    algebra._solomon.cache_clear()
    backend._merged_row.cache_clear()
    algebra._term_key.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for kappa in comps:
            for nu in comps:
                solomon_multiply(kappa, nu)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 3.5 * 2 ** 20, retained


def test_every_package_cache_is_bounded():
    # every functools cache in the package's modules, at module level or
    # on a class, has a finite maxsize, so that none grows with the calls;
    # the set is pinned, so a change that adds or drops a cache edits it
    # and says what that cache replaces
    sizes = {}
    for info in pkgutil.iter_modules(descents.__path__):
        module = importlib.import_module(f"descents.{info.name}")
        scopes = [vars(module)] + [vars(v) for v in vars(module).values()
                                   if isinstance(v, type)]
        for scope in scopes:
            for name, value in scope.items():
                if hasattr(value, "cache_info"):
                    sizes[f"{info.name}.{name}"] = value.cache_info().maxsize
    assert sizes.keys() == {
        "algebra._solomon", "algebra._term_key", "algebra._descent_classes",
        "combinatorics._row_fillings", "backend._merged_row",
        "cosets._rep_images", "cosets._subset_data", "cosets._key_grid"}
    assert [name for name, size in sizes.items() if size is None] == []


def test_to_group_algebra_is_sum_of_reps():
    for n in range(1, 6):
        for kappa in all_compositions(n):
            expanded = to_group_algebra(basis_element(kappa))
            want = {p: 1 for p in
                    enumerate_left_reps(composition_to_subset(kappa))}
            assert expanded.terms == want
    # the repr lists the first 8 terms in one-line order
    assert repr(to_group_algebra(basis_element(Composition((1, 1, 1, 1))))) \
        == ("GroupAlgebraElement(4, 1*1234 + 1*1243 + 1*1324 + 1*1342 + "
            "1*1423 + 1*1432 + 1*2134 + 1*2143 + ... (24 terms))")


def test_to_group_algebra_is_linear():
    a = basis_element(Composition((2, 1)))
    b = basis_element(Composition((1, 1, 1)))
    combo = 3 * a - 2 * b
    assert to_group_algebra(combo) == (
        3 * to_group_algebra(a) - 2 * to_group_algebra(b))


def test_to_group_algebra_bound():
    with pytest.raises(ValueError):
        to_group_algebra(basis_element(Composition((8,))))
    big = to_group_algebra(basis_element(Composition((8,))), max_degree=8)
    assert len(big) == 1
    # a product under a raised bound caches S_8's descent classes, and the
    # default bound must still refuse it
    eight = Composition((8,))
    assert len(oracle_multiply(eight, eight, max_degree=8)) == 1
    with pytest.raises(ValueError):
        oracle_multiply(eight, eight)


def test_oracle_classes_listed_once_across_bounds(capsys):
    # `verify --oracle` raises the bound to n and library callers keep the
    # default; both sweeps at n=5 share one list of S_5's descent classes,
    # each a tuple of byte words
    algebra._descent_classes.cache_clear()
    assert cli.main(["verify", "5", "--oracle"]) == 0
    capsys.readouterr()
    comps = all_compositions(5)
    assert all(oracle_agrees(kappa, nu) for kappa in comps for nu in comps)
    assert algebra._descent_classes.cache_info().currsize == 1
    classes = algebra._descent_classes(5)
    assert len(classes) == 16 and sum(map(len, classes)) == 120
    assert all(type(words) is tuple and all(type(z) is bytes for z in words)
               for words in classes)


def test_oracle_convolves_the_indicators_read_off_the_classes(monkeypatch):
    # each check hands the module attribute, once, X_kappa on the left and
    # X_nu on the right, or the complement S_n - X_eta of a side that holds
    # more than half of S_n, as lists of (word, 1) pairs
    operands = []
    convolve = backend.convolve

    def capture(n, a_items, b_items):
        operands.append((a_items, b_items))
        return convolve(n, a_items, b_items)

    monkeypatch.setattr(backend, "convolve", capture)
    for n in range(1, 6):
        group = set(map(bytes, itertools.permutations(range(1, n + 1))))
        comps = all_compositions(n)
        smaller = {}
        for comp in comps:
            reps = {bytes(x) for x in
                    enumerate_left_reps(composition_to_subset(comp))}
            smaller[comp] = (reps if 2 * len(reps) <= len(group)
                             else group - reps)
        for kappa, nu in itertools.product(comps, comps):
            operands.clear()
            verdict = oracle_agrees(kappa, nu)
            (a_items, b_items), = operands
            for items, comp in ((a_items, kappa), (b_items, nu)):
                assert type(items) is list, (kappa, nu)
                assert len(items) == len(smaller[comp]), (kappa, nu)
                assert {z for z, _ in items} == smaller[comp], (kappa, nu)
                assert {c for _, c in items} <= {1}, (kappa, nu)
            assert verdict, (kappa, nu)
    # at n=5 only B(1^5) holds more than half of S_5, and its complement
    # is empty
    assert [comp for comp in comps if not smaller[comp]] == [
        Composition((1,) * 5)]


# B(1,1,1,1) is all of S_4, so the oracle convolves its empty complement
# and the honest convolution is {}; B(2,1,1) holds half of S_4 and is kept.
# The product is alpha*e + s*(A*B): alpha = 12, s = -1 with one side
# complemented, alpha = 24, s = +1 with both, so a count off by d on a
# permutation moves the oracle's coefficient by s*d, and alpha lies on the
# permutations only.
@pytest.mark.parametrize("kappa,nu,fault,named", [
    *(pytest.param(k, v, f, want, id=f"{name}-{f}")
      for k, v, name in (((1, 1, 1, 1), (2, 1, 1), "1111x211"),
                         ((2, 1, 1), (1, 1, 1, 1), "211x1111"))
      for f, want in (("drop", ("4321", 12, 13)),
                      ("move", ("1234", 12, 13)),
                      ("non-permutation", ("1134", 0, -1)))),
    *(pytest.param((1, 1, 1, 1), (1, 1, 1, 1), f, want, id=f"1111x1111-{f}")
      for f, want in (("drop", ("4321", 24, 23)),
                      ("move", ("1234", 24, 23)),
                      ("non-permutation", ("1134", 0, 1))))])
def test_complemented_pairs_catch_convolution_faults(monkeypatch, kappa, nu,
                                                     fault, named):
    delta = {
        "drop": {bytes((4, 3, 2, 1)): -1},
        "move": {bytes((1, 2, 3, 4)): -1, bytes((4, 3, 2, 1)): 1},
        "non-permutation": {bytes((1, 1, 3, 4)): 1},
    }[fault]
    convolve = backend.convolve

    def faulty(n, a_items, b_items):
        out = convolve(n, a_items, b_items)
        for word, d in delta.items():
            out[word] = out.get(word, 0) + d
            if not out[word]:
                del out[word]
        return out

    kappa, nu = Composition(kappa), Composition(nu)
    assert oracle_agrees(kappa, nu)
    monkeypatch.setattr(backend, "convolve", faulty)
    perm, table_coeff, oracle_coeff = oracle_mismatch(kappa, nu)
    word, table_want, oracle_want = named
    assert perm == tuple(map(int, word))
    assert (table_coeff, oracle_coeff) == (table_want, oracle_want)
    assert not oracle_agrees(kappa, nu)


def test_oracle_work_depends_only_on_the_multisets_of_parts(monkeypatch):
    # each check convolves the smaller of X_eta and its complement on both
    # sides, whose sizes n!/prod(eta_i!) do not see the order of the parts
    pairs = []

    def record(n, a_items, b_items):
        pairs.append(len(a_items) * len(b_items))
        return {}

    monkeypatch.setattr(backend, "convolve", record)
    for n in range(1, 7):
        work = {}
        comps = all_compositions(n)
        for kappa, nu in itertools.product(comps, comps):
            pairs.clear()
            oracle_mismatch(kappa, nu)
            (count,) = pairs
            shape = tuple(sorted(kappa)), tuple(sorted(nu))
            assert work.setdefault(shape, count) == count, (kappa, nu)
    # one round of the 121 ordered partition pairs at n=6
    assert len(work) == 121
    assert sum(work.values()) == 777_924 == 882 ** 2


def test_oracle_multiply_counts_products_directly():
    # cross-check the oracle itself against a hand-rolled convolution of
    # filtered representative lists
    for n in range(1, 5):
        comps = all_compositions(n)
        for kappa in comps:
            for nu in comps:
                a = filter_left_reps(n, composition_to_subset(kappa).members)
                b = filter_left_reps(n, composition_to_subset(nu).members)
                want = naive_convolve([(p, 1) for p in a],
                                      [(p, 1) for p in b])
                got = oracle_multiply(kappa, nu)
                assert got.terms == want


def test_frozen_oracle_expansion():
    got = oracle_multiply(Composition((2, 1)), Composition((1, 2)))
    assert {p.to_text(): c for p, c in got.terms.items()} == {
        "123": 2, "213": 2, "312": 2, "132": 1, "231": 1, "321": 1}


def test_oracle_agrees_exhaustive_small():
    for n in range(1, 6):
        comps = all_compositions(n)
        for kappa in comps:
            for nu in comps:
                assert oracle_agrees(kappa, nu)


@pytest.fixture
def kernel_drops_one_table(monkeypatch):
    """Patch the sweep to drop the table with reading word (1,2) from
    B(2,1)*B(1,2), which leaves B(1,1,1); the product cache starts and
    ends cold."""
    counts = backend.reading_word_counts

    def drop_one_table(row_margins, col_margins, n):
        out = dict(counts(row_margins, col_margins, n))
        out[1, 2] -= 1
        return {word: c for word, c in out.items() if c}

    monkeypatch.setattr(backend, "reading_word_counts", drop_one_table)
    algebra._solomon.cache_clear()
    yield Composition((2, 1)), Composition((1, 2))
    algebra._solomon.cache_clear()


def test_oracle_mismatch_names_permutation_and_coefficients(
        kernel_drops_one_table):
    # B(1,1,1) holds every permutation once, where the oracle has the
    # identity twice
    kappa, nu = kernel_drops_one_table
    assert str(solomon_multiply(kappa, nu)) == "B(1,1,1)"
    perm, table_coeff, oracle_coeff = oracle_mismatch(kappa, nu)
    assert (perm.to_text(), table_coeff, oracle_coeff) == ("123", 1, 2)
    assert not oracle_agrees(kappa, nu)


def reference_mismatch(kappa, nu):
    """``oracle_mismatch`` by element equality of the reference routes."""
    table = to_group_algebra(solomon_multiply(kappa, nu))
    oracle = oracle_multiply(kappa, nu)
    if table == oracle:
        return None
    perm = min(p for p in table.terms.keys() | oracle.terms.keys()
               if table.terms.get(p, 0) != oracle.terms.get(p, 0))
    return perm, table.terms.get(perm, 0), oracle.terms.get(perm, 0)


def all_pairs(max_n):
    for n in range(1, max_n + 1):
        comps = all_compositions(n)
        yield from itertools.product(comps, comps)


def test_lean_oracle_matches_reference():
    rng = random.Random(11)
    comps6 = all_compositions(6)
    pairs = list(all_pairs(5)) + [(rng.choice(comps6), rng.choice(comps6))
                                  for _ in range(30)]
    assert len(pairs) == 341 + 30
    for kappa, nu in pairs:
        got = oracle_mismatch(kappa, nu)
        assert got == reference_mismatch(kappa, nu) is None, (kappa, nu)
        assert oracle_agrees(kappa, nu)


@pytest.fixture
def kernel_drops_a_table_everywhere(monkeypatch):
    """Patch the sweep to drop one table, of the largest reading word,
    from every product with two or more tables."""
    counts = backend.reading_word_counts

    def drop_one_table(row_margins, col_margins, n):
        out = dict(counts(row_margins, col_margins, n))
        if sum(out.values()) >= 2:
            word = max(out)
            out[word] -= 1
            if not out[word]:
                del out[word]
        return out

    monkeypatch.setattr(backend, "reading_word_counts", drop_one_table)
    algebra._solomon.cache_clear()
    yield counts
    algebra._solomon.cache_clear()


def test_lean_oracle_names_what_reference_names(
        kernel_drops_a_table_everywhere):
    counts = kernel_drops_a_table_everywhere
    broken = 0
    for kappa, nu in all_pairs(4):
        tables = sum(counts(nu, kappa, kappa.n).values())
        got = oracle_mismatch(kappa, nu)
        assert got == reference_mismatch(kappa, nu), (kappa, nu)
        assert oracle_agrees(kappa, nu) is (got is None)
        # distinct basis elements expand to distinct group-algebra elements
        assert (got is None) is (tables < 2), (kappa, nu)
        broken += got is not None
    assert broken > 0


def test_lean_oracle_reads_the_convolution(monkeypatch):
    kappa, nu = Composition((2, 2)), Composition((1, 2, 1))
    honest = oracle_multiply(kappa, nu).terms
    target = max(honest)
    convolve = backend.convolve

    def short_one(n, a_items, b_items):
        out = convolve(n, a_items, b_items)
        word = bytes(target)
        out[word] -= 1
        if not out[word]:
            del out[word]
        return out

    monkeypatch.setattr(backend, "convolve", short_one)
    assert not oracle_agrees(kappa, nu)
    perm, table_coeff, oracle_coeff = oracle_mismatch(kappa, nu)
    assert perm == Permutation(target)
    assert (table_coeff, oracle_coeff) == (honest[target],
                                           honest[target] - 1)


def convolution_faults(n, honest):
    """Four changes to an honest convolution of degree n, each as
    ``{word: delta}``: one count on a word of a zero-weight class, one word
    dropped, one word that is no permutation, and one count moved between
    two words of a class of non-zero weight."""
    group = list(itertools.permutations(range(1, n + 1)))
    classes = {}
    for p in group:
        descents = tuple(h for h in range(1, n) if p[h - 1] > p[h])
        classes.setdefault(descents, []).append(p)
    zero = next(p for p in group if p not in honest)
    dropped = max(honest)
    mover, taker = next(c[:2] for c in classes.values()
                        if len(c) >= 2 and c[0] in honest)
    return {
        "zero-class": {bytes(zero): 1},
        "drop": {bytes(dropped): -honest[dropped]},
        "non-permutation": {bytes((1, 1, *range(3, n + 1))): 1},
        "move": {bytes(mover): -1, bytes(taker): 1},
    }


FAULTS = ("zero-class", "drop", "non-permutation", "move")


# B(2,2)*B(3,1) has weights 0, 1 and 2 on a support of 20 words, and
# B(4,2)*B(3,2,1) weights 0, 1, 2 and 5 on 480
@pytest.mark.parametrize("fault,kappa,nu", [
    *(pytest.param(f, (2, 2), (3, 1), id=f) for f in FAULTS),
    *(pytest.param(f, (4, 2), (3, 2, 1), id=f"{f}-n6") for f in FAULTS)])
def test_word_space_verdict_catches_convolution_faults(monkeypatch, fault,
                                                       kappa, nu):
    # the patched attribute serves the lean check and the reference alike
    kappa, nu = Composition(kappa), Composition(nu)
    honest = oracle_multiply(kappa, nu).terms
    delta = convolution_faults(kappa.n, honest)[fault]
    convolve = backend.convolve

    def faulty(n, a_items, b_items):
        out = convolve(n, a_items, b_items)
        for word, d in delta.items():
            out[word] = out.get(word, 0) + d
            if not out[word]:
                del out[word]
        return out

    monkeypatch.setattr(backend, "convolve", faulty)
    got = oracle_mismatch(kappa, nu)
    assert got == reference_mismatch(kappa, nu)
    assert not oracle_agrees(kappa, nu)
    first = min(delta)
    want = honest.get(tuple(first), 0)
    assert got == (tuple(first), want, want + delta[first])


def test_oracle_degree_bound_checked_before_sweep():
    eight = Composition((8,))
    algebra._descent_classes.cache_clear()
    for call in (oracle_agrees, oracle_mismatch):
        with pytest.raises(ValueError, match="^degree 8 above bound 7"):
            call(eight, eight)
    assert algebra._descent_classes.cache_info().currsize == 0
    assert oracle_agrees(eight, eight, max_degree=8)
    assert oracle_mismatch(eight, eight, max_degree=8) is None
    algebra._descent_classes.cache_clear()  # drop the 1.9 MiB S_8 entry


def test_descent_classes_of_s8_retain_under_3_mib():
    # one byte word per permutation and nothing else
    algebra._descent_classes.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert sum(map(len, algebra._descent_classes(8))) == 40320
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        algebra._descent_classes.cache_clear()  # drop the S_8 entry
    assert retained < 3 * 2 ** 20, retained


def test_oracle_check_builds_no_generator_subset(monkeypatch):
    # the oracle reads each product term's mask from its composition;
    # with its caches cleared, the whole check runs cold
    from descents import GeneratorSubset

    built = []
    init = GeneratorSubset.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    algebra._solomon.cache_clear()
    monkeypatch.setattr(GeneratorSubset, "__init__", counting_init)
    kappa, nu = Composition((2, 1, 2)), Composition((1, 3, 1))
    assert oracle_agrees(kappa, nu)
    assert oracle_mismatch(nu, kappa) is None
    assert built == []
    composition_to_subset(kappa)
    assert built == [(5, [1, 4])]


def test_oracle_agrees_spot_check_degree_six():
    rng = random.Random(5)
    comps = all_compositions(6)
    for _ in range(12):
        assert oracle_agrees(rng.choice(comps), rng.choice(comps))


def test_element_multiply_is_bilinear():
    a = basis_element(Composition((2, 1)))
    b = basis_element(Composition((1, 2)))
    c = basis_element(Composition((1, 1, 1)))
    lhs = element_multiply(a + 2 * b, c)
    rhs = element_multiply(a, c) + 2 * element_multiply(b, c)
    assert lhs == rhs
    assert not element_multiply(DescentElement(3), a)


def test_element_multiply_range_ignores_term_order():
    # (2**62 B(1,1) - 2**62 B(2)) * B(1,1) = 2**63 B(1,1) - 2**62 B(1,1):
    # the running sum passes 2**63 in the first order only
    b = basis_element(Composition((1, 1)))
    pair, one = Composition((1, 1)), Composition((2,))
    for order in ((pair, one), (one, pair)):
        coeffs = {pair: 2**62, one: -(2**62)}
        a = DescentElement(2, {k: coeffs[k] for k in order})
        assert element_multiply(a, b) == 2**62 * b


def test_element_multiply_result_overflow():
    # 2**62 B(1,1) * B(1,1) = 2**63 B(1,1), one past int64
    b = basis_element(Composition((1, 1)))
    with pytest.raises(OverflowError):
        element_multiply(2**62 * b, b)


@pytest.mark.parametrize("edge, step", [(backend.INT64_MAX, 1),
                                        (backend.INT64_MIN, -1)])
def test_element_multiply_result_range_ends(edge, step):
    # (c B(1,1) + d B(2)) * (B(2) - B(1,1)) = (-c - d) B(1,1) + d B(2), as
    # B(1,1) squares to 2 B(1,1) and B(2) is the identity.  With d the
    # other end of int64, c = 1 puts B(1,1) on ``edge`` and the result,
    # holding both ends, is returned; c = 1 - step puts it one past
    pair, one = basis_element(Composition((1, 1))), identity_element(2)
    d = -edge - 1
    assert (element_multiply(pair + d * one, one - pair)
            == edge * pair + d * one)
    with pytest.raises(OverflowError, match="signed 64-bit range"):
        element_multiply((1 - step) * pair + d * one, one - pair)


def test_basis_product_range_checks_its_coefficients():
    # B(1^n) * B(1^n) = n! B(1^n): 20! fits in int64, 21! does not
    ones = Composition((1,) * 20)
    assert (solomon_multiply(ones, ones, max_degree=20).terms
            == {ones: math.factorial(20)})
    ones = Composition((1,) * 21)
    with pytest.raises(OverflowError):
        solomon_multiply(ones, ones, max_degree=21)


def _descent_keys(n):
    return Composition((n,)), Composition((1,) * n)


def _group_keys(n):
    return (Permutation.identity(n),
            Permutation(tuple(range(n, 0, -1))))


ELEMENT_TYPES = [(DescentElement, _descent_keys, _group_keys),
                 (GroupAlgebraElement, _group_keys, _descent_keys)]


@pytest.mark.parametrize("cls,keys,other_keys", ELEMENT_TYPES,
                         ids=["descent", "group"])
def test_element_contract(cls, keys, other_keys):
    x, y = keys(2)
    a = cls(2, {x: 0, y: 3})
    # zero coefficients are dropped
    assert a.terms == {y: 3}
    assert len(a) == 1 and a.terms.get(x, 0) == 0
    assert (a - a).terms == {} and not (a - a)
    assert (0 * a).terms == {}
    # equal elements hash equal
    assert hash(cls(2, {y: 3})) == hash(a)
    # immutable
    for name in ("n", "terms", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    # the one constructor always validates: it takes no unchecked flag
    with pytest.raises(TypeError):
        cls(2, {}, check=False)
    # it rejects a wrong key type and a wrong degree
    with pytest.raises(ValueError):
        cls(2, {other_keys(2)[0]: 1})
    with pytest.raises(ValueError, match="degree 2.*degree 3"):
        cls(2, {keys(3)[0]: 1})
    # and a float or bool coefficient, which would leave exact arithmetic
    for coeff in (2.5, 1.0, True):
        with pytest.raises(ValueError,
                           match=f"^coefficients must be integers: {coeff}$"):
            cls(2, {x: coeff})
    # integer scaling past int64 raises on either side
    big = cls(2, {x: 2**62})
    assert (big * 1).terms == {x: 2**62}
    with pytest.raises(OverflowError):
        big * 2
    with pytest.raises(OverflowError):
        2 * big
    with pytest.raises(OverflowError):
        cls(2, {x: 2**63})
    # the two element types never mix
    other = (GroupAlgebraElement if cls is DescentElement
             else DescentElement)(2)
    assert cls(2) != other and other != cls(2)
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
        with pytest.raises(TypeError):
            op(a, other)
        with pytest.raises(TypeError):
            op(other, a)


@pytest.mark.parametrize("edge, step, factor, past_factor",
                         [(backend.INT64_MAX, 1, 7, 2),
                          (backend.INT64_MIN, -1, 2, 3)])
@pytest.mark.parametrize("cls,keys,other_keys", ELEMENT_TYPES,
                         ids=["descent", "group"])
def test_element_arithmetic_result_range_ends(cls, keys, other_keys, edge,
                                              step, factor, past_factor):
    # each result holds ``edge`` and is returned, while one step past it
    # raises; ``factor`` divides ``edge`` and ``past_factor`` divides
    # ``edge + step``, so integer scaling reaches both exactly
    x, y = keys(2)
    low = -edge - 1  # the other end of int64
    ends = cls(2, {x: edge, y: low})
    assert ends.terms == {x: edge, y: low}
    near = cls(2, {x: edge - step, y: low})
    assert near + cls(2, {x: step}) == ends
    assert near - cls(2, {x: -step}) == ends
    assert cls(2, {x: edge // factor}) * factor == cls(2, {x: edge})
    assert factor * cls(2, {x: edge // factor}) == cls(2, {x: edge})
    past = cls(2, {x: (edge + step) // past_factor})
    for op in (lambda: cls(2, {x: edge + step, y: low}),
               lambda: ends + cls(2, {x: step}),
               lambda: ends - cls(2, {x: -step}),
               lambda: near + near,
               lambda: past * past_factor,
               lambda: past_factor * past):
        with pytest.raises(OverflowError, match="signed 64-bit range"):
            op()
    # a sum or a product whose terms cancel drops that key: B(1,1) squares
    # to 2 B(1,1), while the transposition squares to the identity
    assert (ends - cls(2, {x: edge})).terms == {y: low}
    assert (ends - ends).terms == {}
    u, v, w = (({x: -1, y: 1}, {x: 1, y: -1}, {x: -1})
               if cls is DescentElement else
               ({x: 2, y: 1}, {x: 1, y: -2}, {y: -3}))
    assert (cls(2, u) * cls(2, v)).terms == w


@pytest.mark.parametrize("cls,keys,other_keys", ELEMENT_TYPES,
                         ids=["descent", "group"])
def test_element_negation_range_ends(cls, keys, other_keys):
    # INT64_MAX negates to INT64_MIN + 1, but INT64_MIN has no negative in
    # int64, so negating it raises like any result that leaves the range
    x, y = keys(2)
    top = cls(2, {x: backend.INT64_MAX, y: -1})
    assert (-top).terms == {x: backend.INT64_MIN + 1, y: 1}
    with pytest.raises(OverflowError, match="signed 64-bit range"):
        -cls(2, {x: backend.INT64_MIN})


def _descent_elements(n):
    # checked builds with mixed signs; a zero coefficient is dropped
    comps = all_compositions(n)
    return [DescentElement(n, {kappa: (i + s) % 5 - 2
                               for i, kappa in enumerate(comps)})
            for s in range(3)]


def _group_elements(n):
    group = list(itertools.permutations(range(1, n + 1)))
    return [GroupAlgebraElement(n, {Permutation(x): (i + s) % 5 - 2
                                    for i, x in enumerate(group)})
            for s in range(3)]


def _sums(elements):
    return [e for a in elements for b in elements for e in (a + b, a - b)]


def _scaled(elements):
    return [e for a in elements for c in (-2, 0, 3) for e in (c * a, a * c)]


# Every site that builds an element unchecked, with ``perms._adopt``, and
# the elements it returns at degree n.
ELEMENT_TRUSTED_BUILDS = {
    "_combine[descent]": (DescentElement,
                          lambda n: _sums(_descent_elements(n))),
    "_combine[group]": (GroupAlgebraElement,
                        lambda n: _sums(_group_elements(n))),
    "__neg__[descent]": (DescentElement,
                         lambda n: [-a for a in _descent_elements(n)]),
    "__neg__[group]": (GroupAlgebraElement,
                       lambda n: [-a for a in _group_elements(n)]),
    "int *[descent]": (DescentElement,
                       lambda n: _scaled(_descent_elements(n))),
    "int *[group]": (GroupAlgebraElement,
                     lambda n: _scaled(_group_elements(n))),
    "algebra_multiply": (GroupAlgebraElement, lambda n: [
        a * b for a in _group_elements(n) for b in _group_elements(n)]),
    "basis_element": (DescentElement, lambda n: [
        basis_element(kappa) for kappa in all_compositions(n)]),
    "_solomon": (DescentElement, lambda n: [
        solomon_multiply(kappa, nu) for kappa in all_compositions(n)
        for nu in all_compositions(n)]),
    "element_multiply": (DescentElement, lambda n: [
        a * b for a in _descent_elements(n) for b in _descent_elements(n)]),
    "to_group_algebra": (GroupAlgebraElement, lambda n: [
        to_group_algebra(a) for a in _descent_elements(n)]),
}


@pytest.mark.parametrize("cls, build", ELEMENT_TRUSTED_BUILDS.values(),
                         ids=ELEMENT_TRUSTED_BUILDS.keys())
def test_trusted_element_builds_equal_their_checked_rebuild(cls, build):
    # the checked constructor drops zeros and rejects a bad key or
    # coefficient, so a rebuild equal to the element vouches for it
    for n in range(1, 5):
        elements = build(n)
        assert elements
        for e in elements:
            assert type(e) is cls and cls(e.n, e.terms) == e, e


def test_product_closure_and_coefficient_total():
    # products stay in the span with non-negative integer coefficients,
    # and the total count of tables is the number of double coset reps
    for n in range(1, 7):
        comps = all_compositions(n)
        for kappa in comps:
            for nu in comps:
                prod = solomon_multiply(kappa, nu)
                for eta, coeff in prod.terms.items():
                    assert isinstance(coeff, int)
                    assert coeff > 0
                    assert eta.n == n


def test_left_rep_count_closed_form():
    assert left_rep_count(Composition((1, 2))) == 3
    assert left_rep_count(Composition((2, 2))) == 6
    for n in range(1, 7):
        for kappa in all_compositions(n):
            k = composition_to_subset(kappa)
            assert left_rep_count(kappa) == sum(
                1 for _ in enumerate_left_reps(k))


def test_reading_multinomial_sum_matches_direct():
    rng = random.Random(23)
    for n in range(1, 7):
        comps = all_compositions(n)
        for _ in range(8):
            kappa, nu = rng.choice(comps), rng.choice(comps)
            direct = 0
            for z in contingency_tables(nu, kappa):
                term = math.factorial(n)
                for p in z.reading_word():
                    term //= math.factorial(p)
                direct += term
            assert reading_multinomial_sum(kappa, nu) == direct


def test_counting_identity_reads_the_product(kernel_drops_one_table):
    # |X_(1,1,1)| = 6, where |X_(2,1)| * |X_(1,2)| = 9
    kappa, nu = kernel_drops_one_table
    assert reading_multinomial_sum(kappa, nu) == 6
    assert not counting_identity_holds(kappa, nu)


def test_counting_identity_small():
    for n in range(1, 7):
        comps = all_compositions(n)
        for kappa in comps:
            for nu in comps:
                assert counting_identity_holds(kappa, nu)


def test_counting_identity_degree_mismatch():
    with pytest.raises(ValueError):
        reading_multinomial_sum(Composition((2,)), Composition((3,)))


def test_structure_constants_shape():
    with pytest.raises(ValueError, match="^degree must be at least 1$"):
        structure_constants(0)
    rows = structure_constants(3)
    assert len(rows) == 16
    comps = all_compositions(3)
    assert [(k, v) for k, v, _ in rows] == [
        (k, v) for k in comps for v in comps]
    for kappa, nu, prod in rows:
        assert prod == solomon_multiply(kappa, nu)


def test_basis_products_degree_bound(monkeypatch):
    k = Composition((13,))
    b = basis_element(k)
    for call in (lambda: solomon_multiply(k, k),
                 lambda: element_multiply(b, b)):
        with pytest.raises(ValueError, match="degree 13 above bound 12"):
            call()
    assert str(solomon_multiply(k, k, max_degree=13)) == "B(13)"
    assert str(element_multiply(b, b, max_degree=13)) == "B(13)"
    # the counting identity reads the same product, under the same bound
    with pytest.raises(ValueError, match="degree 13 above bound 12"):
        counting_identity_holds(k, k)
    assert counting_identity_holds(k, k, max_degree=13)
    # structure_constants passes its bound on to every product
    monkeypatch.setattr(algebra, "all_compositions", lambda n: [k])
    assert [str(p) for _, _, p in structure_constants(13, max_degree=13)] \
        == ["B(13)"]


def test_element_multiply_checks_degree_once(monkeypatch):
    calls = []
    real = algebra.check_degree
    monkeypatch.setattr(algebra, "check_degree",
                        lambda *args: calls.append(args) or real(*args))
    comps = all_compositions(4)
    a = DescentElement(4, {c: 1 for c in comps[:3]})
    b = DescentElement(4, {c: 2 for c in comps[3:7]})
    element_multiply(a, b)
    assert calls == [(4, None, 12)]


def test_element_results_check_their_range_once(monkeypatch):
    # a finished result is range-checked by one call, on its two ends, so
    # the number of checks does not grow with the number of terms; the
    # basis products are cached first, so only the element arithmetic's
    # checks count until a cold basis product makes its own one call
    comps = all_compositions(4)
    a = DescentElement(4, {c: 1 for c in comps[:3]})
    b = DescentElement(4, {c: 2 for c in comps[3:7]})
    one, other = basis_element(comps[0]), basis_element(comps[3])
    group = _group_elements(4)[0]
    lone = GroupAlgebraElement(4, {Permutation.identity(4): 3})
    element_multiply(a, b)
    element_multiply(one, other)
    calls = []
    real = backend.check_coefficients
    counting = lambda values: calls.append(values) or real(values)
    for module in (backend, perms, algebra):
        monkeypatch.setattr(module, "check_coefficients", counting)

    def count(op, *args):
        calls.clear()
        op(*args)
        return len(calls)

    assert len(element_multiply(a, b)) > len(element_multiply(one, other))
    assert (count(element_multiply, a, b)
            == count(element_multiply, one, other) == 1)
    # each op with the number of results it finishes: u - 2 * u two
    ops = ((lambda u: u + u, 1), (lambda u: u - 2 * u, 2),
           (lambda u: 3 * u, 1), (lambda u: u * -3, 1), (lambda u: -u, 1),
           (lambda u: type(u)(u.n, dict(u.terms)), 1))
    for small, large in ((one, a * b), (lone, group)):
        for op, results in ops:
            assert count(op, large) == count(op, small) == results
    algebra._solomon.cache_clear()
    assert count(solomon_multiply, comps[5], comps[6]) == 1


def test_every_degree_is_a_positive_int():
    # both element types check their degree as subsets and permutations
    # do, with the same messages, so DescentElement(0) never reaches
    # to_group_algebra's shifts
    cases = [(Permutation.identity, (3.0,), "an integer: 3.0"),
             (descents.enumerate_group, (True,), "an integer: True"),
             (structure_constants, (2.0,), "an integer: 2.0")]
    keys = {DescentElement: (Composition((2, 1)), Composition((1,))),
            GroupAlgebraElement: (Permutation((2, 1, 3)), Permutation((1,)))}
    for cls, (three, unit) in keys.items():
        cases += [(cls, (0, {}), "at least 1"), (cls, (-1, {}), "at least 1"),
                  (cls, (3.0, {three: 1}), "an integer: 3.0"),
                  (cls, (True, {unit: 1}), "an integer: True")]
    for make, args, message in cases:
        with pytest.raises(ValueError,
                           match=f"^degree must be {re.escape(message)}$"):
            make(*args)


def test_to_group_algebra_takes_only_descent_elements():
    # a permutation key is no composition: expanding one would read its
    # images as parts
    g = GroupAlgebraElement(3, {Permutation((2, 1, 3)): 1})
    for wrong in (g, Composition((2, 1))):
        with pytest.raises(ValueError, match="^expected a DescentElement: "
                                             + type(wrong).__name__ + "$"):
            to_group_algebra(wrong)


def test_structure_csv_frozen_degree_two():
    buf = io.StringIO()
    write_structure_csv(structure_constants(2), buf)
    assert buf.getvalue() == (
        'kappa,nu,eta,coefficient\n'
        '"1,1","1,1","1,1",2\n'
        '"1,1",2,"1,1",1\n'
        '2,"1,1","1,1",1\n'
        '2,2,2,1\n')


def test_structure_records_schema():
    rows = structure_constants(2)
    rec = structure_records(2, rows)
    assert rec["schema_version"] == STRUCTURE_SCHEMA_VERSION
    assert rec["kind"] == "descent-algebra-products"
    assert rec["n"] == 2
    assert rec["products"][0] == {
        "kappa": "1,1", "nu": "1,1",
        "terms": [{"eta": "1,1", "coefficient": 2}]}
    assert len(rec["products"]) == 4


def test_associativity_small():
    rng = random.Random(13)
    for n in range(1, 5):
        comps = all_compositions(n)
        for _ in range(20):
            a, b, c = (rng.choice(comps) for _ in range(3))
            ab_c = element_multiply(solomon_multiply(a, b), basis_element(c))
            a_bc = element_multiply(basis_element(a), solomon_multiply(b, c))
            assert ab_c == a_bc
