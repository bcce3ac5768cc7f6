"""The four benchmark workloads: seeded inputs, the timed call, its checks.

Each workload hands the measuring loop a *batch* (one pass) of items.  The
loop calls ``begin_batch()``, then for every item times ``op(item)`` and
afterwards, untimed, asks ``check(item, out)`` and ``tally(item, out,
totals)``.  After a whole batch ``pinned_ok(totals)`` compares the per-pass
totals with counts fixed in this file.  The checks are the benchmark's own
arithmetic (``math.factorial``), not calls back into the package.

Why each workload exists is written down in ``README.md`` next to this file.
"""

from __future__ import annotations

import math
import random
from functools import cache

from descents import algebra, combinatorics, cosets
from descents.combinatorics import Composition

#: Per-pass totals at the sizes the benchmark runs, and at the tiny sizes its
#: self-tests run.  Any seed gives the same totals: a seed only reorders or
#: rearranges the inputs.
PINNED = {
    "product-table": {
        3: {"terms": 20, "tables": 33},
        4: {"terms": 105, "tables": 281},
        7: {"terms": 20641, "tables": 546193},
    },
    "lemma-sweep": {
        3: {"witnesses": 33},
        4: {"witnesses": 281},
        6: {"witnesses": 37277},
    },
}

#: Element-stream sizes: hot compositions, pool of elements, terms per
#: element, products per batch.
HOT_SET = 8
POOL = 2048
TERMS = 4
STREAM_BATCH = 20000
#: Zipf exponent of the hot set's popularity.
SKEW = 1.2
#: Oracle-check: rounds of all ordered partition pairs per batch.
ORACLE_ROUNDS = 2


@cache
def multinomial(parts: tuple[int, ...]) -> int:
    """``|X_eta| = n! / prod(eta_i!)``, the augmentation of ``B(eta)``."""
    out = math.factorial(sum(parts))
    for p in parts:
        out //= math.factorial(p)
    return out


def augmentation(element) -> int:
    """``eps(sum c_eta B(eta)) = sum c_eta |X_eta|``."""
    return sum(c * multinomial(comp.parts) for comp, c in element.terms.items())


def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of n, parts non-increasing, in reverse lexicographic order."""
    largest = n if largest is None else largest
    if n == 0:
        return [()]
    return [(p,) + rest
            for p in range(min(n, largest), 0, -1)
            for rest in partitions(n - p, p)]


def rearranged(rng: random.Random, parts: tuple[int, ...]) -> Composition:
    """A seeded ordering of the parts.  Rearranging a margin keeps the number
    of tables, of coset representatives and of convolution term pairs."""
    shuffled = list(parts)
    rng.shuffle(shuffled)
    return Composition(shuffled)


class Workload:
    """The hooks the measuring loop calls.  Subclasses set ``name`` and
    ``default_n`` and provide ``sizes``, ``batch``, ``op`` and ``check``."""

    name = ""
    default_n = 0

    def __init__(self, n: int, seed: int):
        self.n = n
        self.rng = random.Random(seed)

    def sizes(self) -> str:
        raise NotImplementedError

    def batch(self) -> list:
        raise NotImplementedError

    def begin_batch(self) -> None:
        pass

    def op(self, item):
        raise NotImplementedError

    def check(self, item, out) -> bool:
        raise NotImplementedError

    def tally(self, item, out, totals: dict) -> None:
        pass

    def pinned_ok(self, totals: dict) -> bool:
        expected = PINNED.get(self.name, {}).get(self.n)
        return expected is None or totals == expected

    def trace_guard(self, layers: dict, batch: list) -> bool:
        return True


class ProductTable(Workload):
    """Every ordered pair of compositions of n, once per pass, cold cache."""

    name = "product-table"
    default_n = 7

    def __init__(self, n: int, seed: int):
        super().__init__(n, seed)
        comps = combinatorics.all_compositions(n)
        self.pairs = [(k, v) for k in comps for v in comps]
        # kept before any tracer replaces the module attribute
        self.product_cache = algebra._solomon

    def sizes(self) -> str:
        return f"n={self.n}, {len(self.pairs)} ordered composition pairs per pass"

    def batch(self) -> list:
        order = list(self.pairs)
        self.rng.shuffle(order)
        return order

    def begin_batch(self) -> None:
        self.product_cache.cache_clear()

    def op(self, item):
        kappa, nu = item
        return (algebra.solomon_multiply(kappa, nu),
                algebra.counting_identity_holds(kappa, nu))

    def check(self, item, out) -> bool:
        kappa, nu = item
        product, identity = out
        return (identity is True
                and product.n == self.n
                and augmentation(product)
                == multinomial(kappa.parts) * multinomial(nu.parts))

    def tally(self, item, out, totals: dict) -> None:
        product = out[0]
        totals["terms"] = totals.get("terms", 0) + len(product)
        totals["tables"] = (totals.get("tables", 0)
                            + sum(product.terms.values()))

    def trace_guard(self, layers: dict, batch: list) -> bool:
        # one kernel call per product, or a warm cache leaked in
        return layers["backend.reading_word_counts.calls"] == len(batch)


class ElementStream(Workload):
    """Products of 4-term elements over a small skewed hot set, cache warm."""

    name = "element-stream"
    default_n = 7

    def __init__(self, n: int, seed: int):
        super().__init__(n, seed)
        rng = self.rng
        # the hot set: HOT_SET partitions spread from (n) to (1^n), the same
        # for every seed, popularity falling with rank
        shapes = partitions(n)
        picks = sorted({round(i * (len(shapes) - 1) / (HOT_SET - 1))
                        for i in range(HOT_SET)})
        self.hot = [Composition(shapes[i]) for i in picks]
        weights = [1.0 / (rank + 1) ** SKEW for rank in range(len(self.hot))]
        for a in self.hot:
            for b in self.hot:
                algebra.solomon_multiply(a, b)
        terms = min(TERMS, len(self.hot))
        self.pool = []
        for _ in range(POOL):
            chosen: list[Composition] = []
            while len(chosen) < terms:
                comp = rng.choices(self.hot, weights)[0]
                if comp not in chosen:
                    chosen.append(comp)
            self.pool.append(algebra.DescentElement(
                n, {c: rng.choice((-3, -2, -1, 1, 2, 3)) for c in chosen}))
        self.eps = [augmentation(a) for a in self.pool]

    def sizes(self) -> str:
        return (f"n={self.n}, hot set {len(self.hot)} compositions, pool "
                f"{len(self.pool)} elements of {len(self.pool[0])} terms, "
                f"{STREAM_BATCH} products per batch")

    def batch(self) -> list:
        pick = self.rng.randrange
        return [(pick(POOL), pick(POOL)) for _ in range(STREAM_BATCH)]

    def op(self, item):
        i, j = item
        return self.pool[i] * self.pool[j]

    def check(self, item, out) -> bool:
        i, j = item
        return out.n == self.n and augmentation(out) == self.eps[i] * self.eps[j]


class OracleCheck(Workload):
    """One pass: each ordered pair of partitions of n, ORACLE_ROUNDS times,
    rearranged by the seed, through the group-algebra cross-check."""

    name = "oracle-check"
    default_n = 6

    def __init__(self, n: int, seed: int):
        super().__init__(n, seed)
        self.shapes = [(a, b) for a in partitions(n) for b in partitions(n)]
        identity = Composition((n,))
        # fill the basis-indicator cache once; every pass reuses it
        for comp in combinatorics.all_compositions(n):
            algebra.oracle_multiply(comp, identity)
        self.product_cache = algebra._solomon

    def sizes(self) -> str:
        return (f"n={self.n}, {ORACLE_ROUNDS} x {len(self.shapes)} ordered "
                "partition pairs per pass, each rearranged by the seed")

    def batch(self) -> list:
        rng = self.rng
        order = [(rearranged(rng, a), rearranged(rng, b))
                 for _ in range(ORACLE_ROUNDS) for a, b in self.shapes]
        rng.shuffle(order)
        return order

    def begin_batch(self) -> None:
        self.product_cache.cache_clear()

    def op(self, item):
        return algebra.oracle_agrees(*item)

    def check(self, item, out) -> bool:
        return out is True


class LemmaSweep(Workload):
    """Every ordered pair of generator subsets of n, once per pass: the
    ``verify --lemma`` checks."""

    name = "lemma-sweep"
    default_n = 6

    def __init__(self, n: int, seed: int):
        super().__init__(n, seed)
        subsets = combinatorics.all_generator_subsets(n)
        for j in subsets:  # fill the representative cache
            for _ in cosets.enumerate_left_reps(j):
                pass
        comp = {j: combinatorics.subset_to_composition(j) for j in subsets}
        self.pairs = [(j, k, comp[j], comp[k]) for j in subsets for k in subsets]

    def sizes(self) -> str:
        return f"n={self.n}, {len(self.pairs)} ordered subset pairs per pass"

    def batch(self) -> list:
        order = list(self.pairs)
        self.rng.shuffle(order)
        return order

    def op(self, item):
        j, k, kappa, nu = item
        report = cosets.verify_subset_pair(j, k, parabolic=False)
        tables = list(combinatorics.contingency_tables(nu, kappa))
        images = [cosets.intersection_table(x, j, k)
                  for x in cosets.enumerate_double_set(j, k)]
        return report, tables, images

    def check(self, item, out) -> bool:
        report, tables, images = out
        # the table map is a bijection from the double set onto the tables
        return (report.failure_count == 0
                and len(set(images)) == len(images)
                and set(images) == set(tables))

    def tally(self, item, out, totals: dict) -> None:
        totals["witnesses"] = totals.get("witnesses", 0) + out[0].witnesses


WORKLOADS = {w.name: w for w in (ProductTable, ElementStream, OracleCheck,
                                 LemmaSweep)}


def make(name: str, n: int | None, seed: int) -> Workload:
    """The workload at its benchmark degree, or at a smaller ``n >= 2``."""
    cls = WORKLOADS[name]
    if n is None:
        n = cls.default_n
    if not 2 <= n <= cls.default_n:
        raise ValueError(f"{name} runs at n in 2..{cls.default_n}, not {n}")
    return cls(n, seed)
