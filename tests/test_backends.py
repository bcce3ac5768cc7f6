"""The kernels in ``descents.backend`` against the brute-force oracles.

Each kernel is checked against ``tests/_oracles.py``, which shares no code
with it, together with its overflow, range, margin and order contracts.
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
from descents import Composition, backend, reading_multinomial_sum

from _oracles import brute_tables, filter_left_reps, naive_convolve


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
    got = backend.convolve(n, a, b)
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
    got = backend.convolve(n, a, b)
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
        assert backend.convolve(2, a, b) == {(1, 2): 2**62}


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
    got = backend.convolve(5, a, b)
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
    got = backend.convolve(5, a, b)
    assert got == naive_convolve(a, b)
    images = {tuple(x[v - 1] for v in y) for x, _ in a for y, _ in b}
    assert len(got) < len(images)


def test_convolve_empty_operand():
    items = [((2, 1, 3), 4), ((1, 2, 3), -1)]
    assert backend.convolve(3, [], items) == {}
    assert backend.convolve(3, items, []) == {}


def test_convolve_degree_limit():
    items = [(tuple(range(1, 256)), 1)]
    assert backend.convolve(255, items, items) == {tuple(range(1, 256)): 1}
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
]


def compositions(n):
    """Compositions of ``n``, one per set of cut points."""
    for cuts in itertools.product((False, True), repeat=n - 1):
        parts, size = [], 1
        for cut in cuts:
            if cut:
                parts.append(size)
                size = 1
            else:
                size += 1
        yield tuple(parts + [size])


# every ordered composition pair with n <= 4 (85 pairs) joins the
# hand-picked cases
SMALL_PAIRS = [(nu, kappa) for n in range(1, 5)
               for nu in compositions(n) for kappa in compositions(n)]
PARITY_CASES = TABLE_CASES + [c for c in SMALL_PAIRS if c not in TABLE_CASES]


def brute_reading_word_counts(nu, kappa):
    """Reading words tallied over the brute-force tables: the word is the
    non-zero entries read row by row."""
    counts = {}
    for table in brute_tables(nu, kappa):
        word = tuple(v for row in table for v in row if v)
        counts[word] = counts.get(word, 0) + 1
    return counts


@pytest.mark.parametrize("nu,kappa", PARITY_CASES)
def test_enumerate_tables_parity_and_brute_force(nu, kappa):
    got = backend.enumerate_tables(nu, kappa)
    assert set(got) == brute_tables(nu, kappa)
    assert len(set(got)) == len(got)


@pytest.mark.parametrize("nu,kappa", PARITY_CASES)
def test_enumerate_tables_order(nu, kappa):
    # emission order: flattened row-major entries, lexicographically
    # decreasing
    flat = [tuple(v for row in t for v in row)
            for t in backend.enumerate_tables(nu, kappa)]
    assert flat == sorted(flat, reverse=True)


def test_row_fillings_cache_is_shared_bounded_and_read_only():
    # one bounded cache serves every walk, and its entries are tuples, so
    # no caller can change what the next call reads
    assert backend._row_fillings.cache_info().maxsize == 4096
    fills = backend._row_fillings(3, (2, 2))
    assert type(fills) is tuple
    assert all(type(f) is tuple for f in fills)
    pairs = [(nu, kappa) for n in range(1, 6)
             for nu in descents.all_compositions(n)
             for kappa in descents.all_compositions(n)]
    cold = []
    for nu, kappa in pairs:
        backend._row_fillings.cache_clear()
        cold.append(backend.enumerate_tables(nu, kappa))
    backend._row_fillings.cache_clear()
    for nu, kappa in pairs:  # fill the cache from every pair
        backend.enumerate_tables(nu, kappa)
    misses = backend._row_fillings.cache_info().misses
    warm = [backend.enumerate_tables(nu, kappa) for nu, kappa in pairs]
    assert warm == cold
    assert backend._row_fillings.cache_info().misses == misses


def test_enumerate_tables_margin_validation():
    with pytest.raises(ValueError):
        backend.enumerate_tables((2, 1), (4,))
    with pytest.raises(ValueError):
        backend.enumerate_tables((0, 3), (3,))
    with pytest.raises(ValueError):
        backend.enumerate_tables((), ())


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
    # every key of a product table through n=8 fits
    assert info.maxsize is not None and info.maxsize >= 1793
    # a full n=7 sweep reaches (7 - 1) * 2**7 + 1 keys
    backend._merged_row.cache_clear()
    comps = list(compositions(7))
    for kappa in comps:
        for nu in comps:
            backend.reading_word_counts(nu, kappa, 7)
    assert backend._merged_row.cache_info().currsize == 769


def test_product_degree_guard_override_at_degree_30():
    # with the override, the one-table product at n=30 is one sweep state
    got = run_capped(
        "import time; from descents import Composition, solomon_multiply; "
        "k = Composition((30,)); t = time.perf_counter(); "
        "p = solomon_multiply(k, k, max_degree=30); "
        "print([str(p), time.perf_counter() - t])")
    assert got[0] == "B(30)"
    assert got[1] < 0.1
