"""The kernels in ``descents.backend``, and the margin tables that
``combinatorics.contingency_tables`` lists, against the brute-force oracles.

Each is checked against ``tests/_oracles.py``, which shares no code with
it, together with its overflow, range, margin and order contracts.
The ``enumerate_tables`` tests keep the name of the walk that listed the
margin tables here before ``combinatorics.contingency_tables`` took it
over, so their case ids stay stable.
"""

import ast
import itertools
import math
import os
import random
import subprocess
import sys

import pytest

import descents
from descents import (Composition, backend, combinatorics,
                      contingency_tables, reading_multinomial_sum)

from _oracles import (brute_tables, filter_left_reps, image_tuples,
                      naive_convolve, parts)


def random_items(n, count, rng, lo=-9, hi=9):
    group = list(itertools.permutations(range(1, n + 1)))
    return [(rng.choice(group), rng.randint(lo, hi)) for _ in range(count)]


def as_dict(items):
    acc = {}
    for images, c in items:
        acc[images] = acc.get(images, 0) + c
    return {k: v for k, v in acc.items() if v}


def test_active_backend_is_reported():
    assert backend.backend_name() == "pure"
    assert descents.backend_name() == "pure"


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_convolve_parity_dense(n):
    rng = random.Random(100 + n)
    a = random_items(n, 8, rng)
    b = random_items(n, 8, rng)
    got = image_tuples(backend.convolve(n, a, b))
    assert got == naive_convolve(as_dict(a).items(), as_dict(b).items())


def test_convolve_parity_sparse_path():
    # degree 10: few terms spread over a group of 3 628 800 elements
    n, rng = 10, random.Random(77)
    base = list(range(1, n + 1))
    def pick():
        images = base[:]
        rng.shuffle(images)
        return tuple(images)
    a = [(pick(), rng.randint(-4, 4)) for _ in range(12)]
    b = [(pick(), rng.randint(-4, 4)) for _ in range(12)]
    got = image_tuples(backend.convolve(n, a, b))
    assert got == naive_convolve(as_dict(a).items(), as_dict(b).items())


def test_convolve_overflow():
    items = [((2, 1), 2**62)]
    with pytest.raises(OverflowError):
        backend.convolve(2, items, items)


def test_convolve_coefficient_range_check():
    good = [((1, 2), 1)]
    bad = [((1, 2), 2**63)]
    with pytest.raises(OverflowError):
        backend.convolve(2, bad, good)


def test_convolve_range_ignores_term_order():
    # the running sum passes 2**63 in the first order only; the result is
    # the same exact 2**62 either way
    b = [((1, 2), 1)]
    for signs in ((1, 1, -1), (1, -1, 1)):
        a = [((1, 2), s * 2**62) for s in signs]
        assert image_tuples(backend.convolve(2, a, b)) == {(1, 2): 2**62}


@pytest.mark.parametrize("edge, step", [(backend.INT64_MAX, 1),
                                        (backend.INT64_MIN, -1)])
def test_convolve_result_range_ends(edge, step):
    # -edge - 1 is the other end of int64: a result holding both ends is
    # returned, and one step past the given end raises
    b = [((1, 2), 1)]
    a = [((1, 2), edge), ((2, 1), -edge - 1)]
    assert image_tuples(backend.convolve(2, a, b)) == {(1, 2): edge,
                                                       (2, 1): -edge - 1}
    with pytest.raises(OverflowError, match="signed 64-bit range"):
        backend.convolve(2, a + [((1, 2), step)], b)


def test_convolve_accumulated_overflow():
    # 2**62 * 1 twice, both landing on the identity: 2**63 is out of range
    a = [((1, 2), 2**62), ((2, 1), 2**62)]
    b = [((1, 2), 1), ((2, 1), 1)]
    with pytest.raises(OverflowError):
        backend.convolve(2, a, b)


def test_convolve_parity_indicators():
    # X_(1^5) * X_(2,1,2): one coefficient per side, so a single tally
    # sees every image 30 times
    a = [(p, 1) for p in filter_left_reps(5, set())]
    b = [(p, 1) for p in filter_left_reps(5, {1, 4})]
    got = image_tuples(backend.convolve(5, a, b))
    assert got == naive_convolve(a, b)
    assert set(got.values()) == {30}


def test_convolve_parity_many_coefficients():
    # a few images under many coefficients, repeated on each side, so
    # images recur across coefficient pairs; the left factor's last image
    # comes with 7 and -7, so its products cancel to zero
    rng = random.Random(11)
    group = list(itertools.permutations(range(1, 6)))
    pool = rng.sample(group, 7)
    a = [(rng.choice(pool[:6]), rng.randint(-9, 9)) for _ in range(40)]
    b = [(rng.choice(pool[:6]), rng.randint(-9, 9)) for _ in range(40)]
    a += [(pool[6], 7), (pool[6], -7)]
    got = image_tuples(backend.convolve(5, a, b))
    assert got == naive_convolve(a, b)
    images = {tuple(x[v - 1] for v in y) for x, _ in a for y, _ in b}
    assert len(got) < len(images)


def test_convolve_parity_seeded_degrees_1_to_8():
    # coefficients from a small pool, so each one joins several right
    # terms, repeats included, into one buffer; mixed signs, values past
    # 2**16, and planted pairs x1*y1 = x2*y2 of opposite sign that cancel
    pool = [1, -1, 2, -3, 7, 2**24 - 1, -(2**24)]
    cancelled = 0
    for n in range(1, 9):
        rng = random.Random(2500 + n)
        def pick():
            images = list(range(1, n + 1))
            rng.shuffle(images)
            return tuple(images)
        a = [(pick(), rng.choice(pool)) for _ in range(30)]
        b = [(pick(), rng.choice(pool)) for _ in range(30)]
        planted = []
        for _ in range(5):
            x1, y1, x2 = pick(), pick(), pick()
            z = tuple(x1[v - 1] for v in y1)
            y2 = tuple(x2.index(v) + 1 for v in z)  # x2^-1 * z
            c, d = rng.choice(pool), rng.choice(pool)
            a += [(x1, c), (x2, -c)]
            b += [(y1, d), (y2, d)]
            planted.append(z)
        rng.shuffle(a)
        rng.shuffle(b)
        got = image_tuples(backend.convolve(n, a, b))
        assert got == naive_convolve(a, b), n
        cancelled += sum(z not in got for z in planted)
    assert cancelled


def test_convolve_empty_operand():
    items = [((2, 1, 3), 4), ((1, 2, 3), -1)]
    assert backend.convolve(3, [], items) == {}
    assert backend.convolve(3, items, []) == {}


def test_convolve_degree_limit():
    items = [(tuple(range(1, 256)), 1)]
    assert image_tuples(backend.convolve(255, items, items)) == {
        tuple(range(1, 256)): 1}
    big = [(tuple(range(1, 257)), 1)]
    with pytest.raises(ValueError):
        backend.convolve(256, big, big)


def test_convolve_cancellation():
    a = [((2, 1, 3), 5), ((1, 2, 3), -1)]
    b = [((1, 2, 3), 1)]
    c = [((2, 1, 3), -5), ((1, 2, 3), 1)]
    assert backend.convolve(3, a + c, b) == {}


TABLE_CASES = [
    ((1,), (1,)),
    ((2, 1), (1, 2)),
    ((2, 2), (1, 2, 1)),
    ((3, 1, 2), (2, 2, 2)),
    ((1, 1, 1, 1), (2, 2)),
    ((5,), (2, 3)),
    ((2, 1, 3), (1, 2, 2, 1)),
    ((2, 3), (5,)),
]


def cut_compositions(n):
    """The compositions of ``n`` as plain tuples, one per set of cut
    points."""
    return [parts(cuts)
            for cuts in itertools.product((False, True), repeat=n - 1)]


# every ordered composition pair with n <= 4 (85 pairs) joins the
# hand-picked cases
SMALL_PAIRS = [pair for n in range(1, 5)
               for pair in itertools.product(cut_compositions(n), repeat=2)]
PARITY_CASES = TABLE_CASES + [c for c in SMALL_PAIRS if c not in TABLE_CASES]


def brute_reading_word_counts(nu, kappa):
    """Reading words tallied over the brute-force tables: the word is the
    non-zero entries read row by row."""
    counts = {}
    for table in brute_tables(nu, kappa):
        word = tuple(v for row in table for v in row if v)
        counts[word] = counts.get(word, 0) + 1
    return counts


def tables(nu, kappa):
    """The margin tables of plain-tuple margins, through the typed
    boundary."""
    return list(contingency_tables(Composition(nu), Composition(kappa)))


@pytest.mark.parametrize("nu,kappa", PARITY_CASES)
def test_enumerate_tables_parity_and_brute_force(nu, kappa):
    got = tables(nu, kappa)
    assert set(got) == brute_tables(nu, kappa)
    assert len(set(got)) == len(got)


@pytest.mark.parametrize("nu,kappa", PARITY_CASES)
def test_enumerate_tables_order(nu, kappa):
    # emission order: flattened row-major entries, lexicographically
    # decreasing
    flat = [tuple(v for row in t for v in row) for t in tables(nu, kappa)]
    assert flat == sorted(flat, reverse=True)


def test_row_fillings_cache_is_shared_bounded_and_read_only():
    # one bounded cache serves every call, and its entries are tuples, so
    # no caller can change what the next call reads
    row_fillings = combinatorics._row_fillings
    assert row_fillings.cache_info().maxsize == 4096
    fills = row_fillings(3, (2, 2))
    assert type(fills) is tuple
    assert all(type(f) is tuple for f in fills)
    pairs = [(nu, kappa) for n in range(1, 6)
             for nu in descents.all_compositions(n)
             for kappa in descents.all_compositions(n)]
    cold = []
    for nu, kappa in pairs:
        row_fillings.cache_clear()
        cold.append(list(contingency_tables(nu, kappa)))
    row_fillings.cache_clear()
    for nu, kappa in pairs:  # fill the cache from every pair
        list(contingency_tables(nu, kappa))
    misses = row_fillings.cache_info().misses
    warm = [list(contingency_tables(nu, kappa)) for nu, kappa in pairs]
    assert warm == cold
    assert row_fillings.cache_info().misses == misses


def test_enumerate_tables_lists_each_table_once_in_decreasing_order():
    # one test over every ordered composition pair with n <= 6: the tables
    # read row-major are strictly decreasing, so none repeats
    pairs = 0
    for n in range(1, 7):
        comps = descents.all_compositions(n)
        for nu in comps:
            for kappa in comps:
                listed = list(contingency_tables(nu, kappa))
                flat = [tuple(itertools.chain.from_iterable(t))
                        for t in listed]
                assert len(set(listed)) == len(listed), (nu, kappa)
                assert all(a > b for a, b in zip(flat, flat[1:])), (nu, kappa)
                pairs += 1
    assert pairs == 1365


def test_reading_word_counts_margin_validation():
    # the tables' margins are Compositions, checked by their constructor
    # and by contingency_tables; the sweep takes plain tuples and checks
    # them itself, and their degree against n
    for rows, cols, n, message in [
            ((2, 1), (4,), 3, "row and column margins must have equal "
                              "totals"),
            ((0, 3), (3,), 3, "margins must be positive"),
            ((), (), 0, "margins must be non-empty"),
            ((1, 2), (2, 1), 4, "margins must be margins of compositions "
                                "of n"),
            # a one-row table is its column sums, returned only after the
            # same checks
            ((3,), (2, 2), 3, "row and column margins must have equal "
                              "totals"),
            ((4,), (4,), 3, "margins must be margins of compositions of n"),
            ((3,), (0, 3), 3, "margins must be positive"),
            ((3,), (), 3, "margins must be non-empty"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            backend.reading_word_counts(rows, cols, n)


@pytest.mark.parametrize("nu,kappa", PARITY_CASES)
def test_reading_word_counts_parity(nu, kappa):
    n = sum(nu)
    assert (backend.reading_word_counts(nu, kappa, n)
            == brute_reading_word_counts(nu, kappa))


@pytest.mark.parametrize("nu,kappa", PARITY_CASES)
def test_sum_reading_multinomials_parity(nu, kappa):
    n = sum(nu)
    # the whole route: the sweep, the product built from it, and the
    # re-weighting of its terms; from the definition, a table's reading
    # word eta is its non-zero entries read row by row
    assert reading_multinomial_sum(Composition(kappa),
                                   Composition(nu)) == sum(
        math.factorial(n) // math.prod(math.factorial(eta_i)
                                       for row in table for eta_i in row
                                       if eta_i)
        for table in brute_tables(nu, kappa))


def test_reading_word_counts_sparse_at_degree_30():
    # one table each; a dense tally over all 2**29 compositions of 30
    # would need 4 GiB, so the calls run in a child capped at 1 GiB of
    # address space
    code = ("import resource; cap = 1 << 30; "
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
            "from descents import backend; "
            "print([backend.reading_word_counts((30,), (30,), 30), "
            "backend.reading_word_counts((29, 1), (30,), 30)])")
    src = os.path.dirname(os.path.dirname(backend.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src),
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert ast.literal_eval(out.stdout) == [{(30,): 1}, {(29, 1): 1}]


def run_capped(code):
    """Run ``code`` in a child capped at 1 GiB of address space; return
    the value its last line prints."""
    code = ("import resource; cap = 1 << 30; "
            "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); " + code)
    src = os.path.dirname(os.path.dirname(backend.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src),
                         timeout=60)
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout)


def test_reading_word_counts_merges_each_row():
    # a row of 15 over 30 unit columns has C(30, 15) fillings, and 30 unit
    # rows have 30! tables; merged, each row is O(30**2) states, so both
    # fit far inside the cap, and a cache of unmerged fillings would not
    got = run_capped(
        "from descents import backend; ones = (1,) * 30; "
        "print([backend.reading_word_counts((15, 15), ones, 30), "
        "backend.reading_word_counts(ones, ones, 30)])")
    ones = (1,) * 30
    assert got == [{ones: math.comb(30, 15)}, {ones: math.factorial(30)}]


def test_row_cache_is_bounded():
    info = backend._merged_row.cache_info()
    # every key of a product table through n=9 fits
    assert info.maxsize is not None and info.maxsize >= 3586
    # the forced last row is never looked up, so a full n=7 sweep reaches
    # (7 - 2) * 2**7 + 2 keys
    backend._merged_row.cache_clear()
    comps = cut_compositions(7)
    for kappa in comps:
        for nu in comps:
            backend.reading_word_counts(nu, kappa, 7)
    assert backend._merged_row.cache_info().currsize == 642


def test_sweep_never_looks_up_the_forced_last_row(monkeypatch):
    # every ordered pair with n <= 6: no row whose sum is all the column
    # sums left goes through the row cache, and the words stay exact
    merged_row = backend._merged_row
    forced = []

    def watched(total, cols):
        if total == sum(cols):
            forced.append((total, cols))
        return merged_row(total, cols)

    monkeypatch.setattr(backend, "_merged_row", watched)
    for n in range(1, 7):
        for nu, kappa in itertools.product(cut_compositions(n), repeat=2):
            assert (backend.reading_word_counts(nu, kappa, n)
                    == brute_reading_word_counts(nu, kappa)), (nu, kappa)
    assert forced == []


def test_product_degree_guard_override_at_degree_30():
    # with the override, the one-table product at n=30 is one sweep state
    got = run_capped(
        "import time; from descents import Composition, solomon_multiply; "
        "k = Composition((30,)); t = time.perf_counter(); "
        "p = solomon_multiply(k, k, max_degree=30); "
        "print([str(p), time.perf_counter() - t])")
    assert got[0] == "B(30)"
    assert got[1] < 0.1
