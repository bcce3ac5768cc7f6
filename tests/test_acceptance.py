"""Acceptance sweep: the headline guarantees, each as one test.

Everything here is exact integer arithmetic — there are no tolerances.
Each criterion reports a single ``ACCEPTANCE <name>: PASS`` line (shown in
the terminal summary, or directly with -s).
"""

import random
import subprocess
import sys
import time

from descents import (
    Composition,
    all_compositions,
    all_generator_subsets,
    basis_element,
    composition_to_subset,
    contingency_tables,
    counting_identity_holds,
    element_multiply,
    enumerate_double_set,
    enumerate_left_reps,
    identity_element,
    intersection_table,
    left_rep_count,
    oracle_agrees,
    solomon_multiply,
    subset_to_composition,
    verify_subset_pair,
)
from descents import algebra

from conftest import acceptance_lines
from _oracles import filter_left_reps


def record(name, detail):
    line = f"ACCEPTANCE {name}: PASS ({detail})"
    acceptance_lines.append(line)
    print(line)


def test_oracle_equivalence():
    # matrix-rule products match the brute-force group-algebra products,
    # exactly, for every ordered pair of compositions through degree 6
    start = time.perf_counter()
    exhaustive = 0
    for n in range(1, 7):
        comps = all_compositions(n)
        for kappa in comps:
            for nu in comps:
                assert oracle_agrees(kappa, nu), (kappa, nu)
                exhaustive += 1
    assert exhaustive == 1365

    # degree 7: 200 seeded random pairs
    rng = random.Random(0)
    comps7 = all_compositions(7)
    for _ in range(200):
        kappa, nu = rng.choice(comps7), rng.choice(comps7)
        assert oracle_agrees(kappa, nu), (kappa, nu)
    elapsed = time.perf_counter() - start
    record("oracle", f"pairs={exhaustive} exhaustive n<=6, "
                     f"sampled=200 at n=7, {elapsed:.1f}s")


def test_lemma_verification():
    # the predicted ordered presentation (empty intersections dropped)
    # matches the components of the intersection graph, and its block
    # sizes read off the intersection table, for every double
    # representative of every subset pair through degree 6
    pairs = witnesses = 0
    for n in range(1, 7):
        subsets = all_generator_subsets(n)
        for j in subsets:
            for k in subsets:
                report = verify_subset_pair(j, k)
                assert report.passed, report.to_text()
                pairs += 1
                witnesses += report.witnesses
    assert pairs == 1365
    record("lemma", f"pairs={pairs}, witnesses={witnesses}, failures=0")


def test_intersection_table_bijection():
    # on each double set the table map hits every margin matrix exactly
    # once, so in particular the double set and the tables are equinumerous
    pairs = tables_total = 0
    for n in range(1, 7):
        subsets = all_generator_subsets(n)
        for j in subsets:
            kappa = subset_to_composition(j)
            for k in subsets:
                nu = subset_to_composition(k)
                image = [intersection_table(x, j, k)
                         for x in enumerate_double_set(j, k)]
                tables = set(contingency_tables(nu, kappa))
                assert len(set(image)) == len(image), (j, k)
                assert set(image) == tables, (j, k)
                assert len(image) == len(tables)
                pairs += 1
                tables_total += len(tables)
    record("bijection", f"pairs={pairs}, tables={tables_total}")


def test_counting_identity():
    # reading-word multinomials total |X_kappa| * |X_nu|, through degree 8,
    # computed from the tables alone (no group is ever enumerated); the
    # products start cold, so the budget does not lean on earlier tests
    algebra._solomon.cache_clear()
    start = time.perf_counter()
    pairs = 0
    for n in range(1, 9):
        comps = all_compositions(n)
        for kappa in comps:
            for nu in comps:
                assert counting_identity_holds(kappa, nu), (kappa, nu)
                pairs += 1
    elapsed = time.perf_counter() - start
    assert pairs == 21845
    assert elapsed < 30.0, f"too slow: {elapsed:.1f}s"
    # every pair leaves its product cached, and the cache stays bounded
    cache = algebra._solomon.cache_info()
    assert cache.maxsize is not None and cache.currsize <= cache.maxsize
    record("counting", f"pairs={pairs}, {elapsed:.1f}s < 30s, "
                       f"{cache.currsize} products cached")


def test_cli_worked_example():
    # the S_9 example: generators {2,3,7} split 1..9 into the blocks
    # ({1},{2,3,4},{5},{6},{7,8},{9}) with composition 1,3,1,1,2,1
    out = subprocess.run(
        [sys.executable, "-m", "descents.cli",
         "graph", "9", "--subset", "2,3,7"],
        capture_output=True, check=True)
    assert out.stdout == (
        b"n: 9\n"
        b"subset: {2,3,7}\n"
        b"edges: {2,3} {3,4} {7,8}\n"
        b"ordered presentation: ({1},{2,3,4},{5},{6},{7,8},{9})\n"
        b"composition: 1,3,1,1,2,1\n")
    assert out.stderr == b""
    record("cli-example", "byte-exact output for graph 9 --subset 2,3,7")


def test_algebra_axioms():
    # identity and associativity exhaustively through degree 5
    triples = 0
    for n in range(1, 6):
        comps = all_compositions(n)
        one = identity_element(n)
        for kappa in comps:
            b = basis_element(kappa)
            assert element_multiply(one, b) == b
            assert element_multiply(b, one) == b
        for a in comps:
            ea = basis_element(a)
            for b in comps:
                ab = solomon_multiply(a, b)
                for c in comps:
                    lhs = element_multiply(ab, basis_element(c))
                    rhs = element_multiply(ea, solomon_multiply(b, c))
                    assert lhs == rhs, (a, b, c)
                    triples += 1
    assert triples == 4681

    # closure with non-negative integer structure constants through 8
    closure_pairs = 0
    for n in range(1, 9):
        comps = all_compositions(n)
        for kappa in comps:
            for nu in comps:
                product = solomon_multiply(kappa, nu)
                for eta, coeff in product.terms.items():
                    assert eta.n == n
                    assert isinstance(coeff, int) and coeff > 0
                closure_pairs += 1
    assert closure_pairs == 21845
    record("axioms", f"identity n<=5, triples={triples}, "
                     f"closure pairs={closure_pairs}")


def test_representative_counts():
    # multinomial formula vs actual enumeration through degree 7, and the
    # enumeration itself vs an exhaustive filter of S_n through degree 5
    checked = 0
    for n in range(1, 8):
        for nu in all_compositions(n):
            k = composition_to_subset(nu)
            reps = enumerate_left_reps(k)
            if n <= 5:
                listed = list(reps)
                assert listed == filter_left_reps(n, k.members)
                count = len(listed)
            else:
                count = sum(1 for _ in reps)
            assert count == left_rep_count(nu), nu
            checked += 1
    assert checked == 127
    record("rep-counts", f"compositions={checked}, filter-checked n<=5")
