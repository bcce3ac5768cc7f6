import io
import itertools
import math
import random

import pytest

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
from descents import algebra, backend, cli
from descents.algebra import STRUCTURE_SCHEMA_VERSION

from _oracles import filter_left_reps, naive_convolve


def test_basis_element_and_zero():
    b = basis_element(Composition((2, 1)))
    assert b.n == 3
    assert b.coefficient(Composition((2, 1))) == 1
    assert b.coefficient(Composition((3,))) == 0
    assert DescentElement.zero(3).is_zero()
    assert not b.is_zero()


def test_identity_element_is_one_part_basis():
    for n in range(1, 6):
        e = identity_element(n)
        assert e == basis_element(Composition((n,)))
        for kappa in all_compositions(n):
            b = basis_element(kappa)
            assert e * b == b
            assert b * e == b


def test_element_str_forms():
    assert str(DescentElement.zero(3)) == "0"
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
    assert a - a == DescentElement.zero(3)
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
                 lambda: reading_multinomial_sum(three, four),
                 lambda: counting_identity_holds(three, four),
                 lambda: list(contingency_tables(three, four))):
        with pytest.raises(ValueError, match="^degree mismatch: 3 vs 4$"):
            call()


def test_known_product():
    k, v = Composition((2, 1)), Composition((1, 2))
    prod = solomon_multiply(k, v)
    assert prod.coefficient(Composition((1, 1, 1))) == 1
    assert prod.coefficient(Composition((1, 2))) == 1
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


def test_to_group_algebra_is_sum_of_reps():
    for n in range(1, 6):
        for kappa in all_compositions(n):
            expanded = to_group_algebra(basis_element(kappa))
            want = {p: 1 for p in
                    enumerate_left_reps(composition_to_subset(kappa))}
            assert expanded.terms == want


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
    # a product under a raised bound caches the indicator of (8), and the
    # default bound must still refuse it
    eight = Composition((8,))
    assert len(oracle_multiply(eight, eight, max_degree=8)) == 1
    with pytest.raises(ValueError):
        oracle_multiply(eight, eight)


def test_oracle_indicators_cached_once_across_bounds(capsys):
    # `verify --oracle` raises the bound to n and library callers keep the
    # default; both sweeps at n=5 share one indicator per composition
    algebra._basis_indicator.cache_clear()
    assert cli.main(["verify", "5", "--oracle"]) == 0
    capsys.readouterr()
    comps = all_compositions(5)
    assert all(oracle_agrees(kappa, nu) for kappa in comps for nu in comps)
    assert algebra._basis_indicator.cache_info().currsize == len(comps) == 16


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
               if table.coefficient(p) != oracle.coefficient(p))
    return perm, table.coefficient(perm), oracle.coefficient(perm)


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
        out[target] -= 1
        if not out[target]:
            del out[target]
        return out

    monkeypatch.setattr(backend, "convolve", short_one)
    assert not oracle_agrees(kappa, nu)
    perm, table_coeff, oracle_coeff = oracle_mismatch(kappa, nu)
    assert perm == Permutation(target)
    assert (table_coeff, oracle_coeff) == (honest[target],
                                           honest[target] - 1)


def test_oracle_degree_bound_checked_before_sweep():
    eight = Composition((8,))
    algebra._descent_classes.cache_clear()
    for call in (oracle_agrees, oracle_mismatch):
        with pytest.raises(ValueError, match="^degree 8 above bound 7"):
            call(eight, eight)
    assert algebra._descent_classes.cache_info().currsize == 0
    assert oracle_agrees(eight, eight, max_degree=8)
    assert oracle_mismatch(eight, eight, max_degree=8) is None
    algebra._descent_classes.cache_clear()  # drop the 4 MiB S_8 entry


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
    assert element_multiply(DescentElement.zero(3), a).is_zero()


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
    assert len(a) == 1 and a.coefficient(x) == 0
    assert (a - a).terms == {} and (a - a).is_zero()
    assert (0 * a).terms == {}
    # immutable
    for name in ("n", "terms", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    # check=True rejects a wrong key type and a wrong degree
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
             else DescentElement).zero(2)
    assert cls.zero(2) != other and other != cls.zero(2)
    for op in (lambda u, v: u + v, lambda u, v: u - v, lambda u, v: u * v):
        with pytest.raises(TypeError):
            op(a, other)
        with pytest.raises(TypeError):
            op(other, a)


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
