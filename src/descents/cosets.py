"""Minimal-length left coset representatives and the margin-matrix bijection.

For a generator subset K the set ``X_K`` of minimal-length representatives
of the cosets of the standard parabolic subgroup is cut out by the ascent
test ``x(h) < x(h+1)`` for every h in K.  A permutation lying in ``X_K``
whose inverse lies in ``X_J`` meets both conditions at once; these double
representatives are counted by margin matrices via block intersections.
Each representative of ``X_K`` is stored with the descent set of its
inverse, so the double set is ``X_K`` filtered by one bitmask test.  Each
subset caches the index of the block that holds every vertex, so one pass
over a representative's images places each position in its intersection.

>>> from .combinatorics import GeneratorSubset
>>> k = GeneratorSubset(3, [2])
>>> [x.to_text() for x in enumerate_left_reps(k)]
['123', '213', '312']
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

from .combinatorics import (
    Composition,
    GeneratorSubset,
    MarginMatrix,
    OrderedPresentation,
    contingency_tables,
    graph_of_subset,
    intersect,
    ordered_presentation,
    subset_to_composition,
)
from .perms import (
    BASIS_DEGREE_MAX,
    Permutation,
    check_degree,
    degree_mismatch,
)

#: Default degree caps for the exhaustive verification sweeps.
LEMMA_DEGREE_DEFAULT = 6
PARABOLIC_DEGREE_DEFAULT = 5


def is_left_rep(x: Permutation, k: GeneratorSubset) -> bool:
    """Ascent test: x is the shortest element of its coset x*W_K.

    >>> is_left_rep(Permutation.from_text("132"), GeneratorSubset(3, [2]))
    False
    """
    if x.n != k.n:
        raise degree_mismatch(x.n, k.n)
    return all(x[h - 1] < x[h] for h in k.members)


@lru_cache(maxsize=256)
def _rep_images(n: int, parts: Composition
                ) -> tuple[tuple[Permutation, int], ...]:
    # Choose which values land in each consecutive block of positions; a
    # block reads its values in increasing order, and the last block takes
    # the values left.  Lexicographic output.
    # Next to each representative x goes the descent mask of x^{-1}: bit
    # h-1 is set when h+1 comes before h in the images, that is when h+1
    # lands in an earlier block than h.  A block adds the bits of its
    # values v whose v-1 is left for later blocks.  256 entries hold every
    # composition through n=7.
    out: list[tuple[Permutation, int]] = []
    images = [0] * n
    last = len(parts) - 1

    def place(block: int, start: int, pool: tuple[int, ...],
              mask: int) -> None:
        if block == last:
            images[start:] = pool
            out.append((Permutation(images, check=False), mask))
            return
        size = parts[block]
        pool_bits = sum(1 << v for v in pool)
        for chosen in itertools.combinations(pool, size):
            images[start:start + size] = chosen
            bits = sum(1 << v for v in chosen)
            later = pool_bits - bits
            place(block + 1, start + size,
                  tuple(v for v in pool if not bits >> v & 1),
                  mask | (bits & later << 1) >> 2)

    place(0, 0, tuple(range(1, n + 1)), 0)
    return tuple(out)


@lru_cache(maxsize=1024)
def _subset_data(j: GeneratorSubset) -> tuple[tuple[tuple[int, ...], ...],
                                              Composition, tuple[int, ...]]:
    """The ordered-presentation blocks of J's graph, J's composition, and
    ``where``: ``where[v]`` is the index of the block that holds vertex v
    (``where[0]`` is unused).

    1024 entries hold the 2^(n-1) subsets of any one degree through
    n=11.  ``ordered_presentation`` is read from this module, so a wrapper
    placed there sees each miss."""
    blocks = ordered_presentation(graph_of_subset(j))
    where = [-1] * (j.n + 1)
    for q, block in enumerate(blocks):
        for v in block:
            where[v] = q
    return blocks, subset_to_composition(j), tuple(where)


def enumerate_left_reps(k: GeneratorSubset,
                        max_degree: int | None = None) -> Iterator[Permutation]:
    """Stream ``X_K`` in lexicographic one-line order.

    Representatives are generated directly as block interleavings (never by
    filtering all of S_n); the count is ``n!`` over the product of the
    factorials of the component sizes.
    """
    check_degree(k.n, max_degree, BASIS_DEGREE_MAX)
    for x, _ in _rep_images(k.n, subset_to_composition(k)):
        yield x


def enumerate_double_set(j: GeneratorSubset, k: GeneratorSubset,
                         max_degree: int | None = None) -> Iterator[Permutation]:
    """Permutations lying in ``X_K`` whose inverses lie in ``X_J``.

    x^{-1} lies in ``X_J`` when it has no descent in J, so each stored
    representative is kept when its inverse's descent mask misses J."""
    if j.n != k.n:
        raise degree_mismatch(j.n, k.n)
    check_degree(k.n, max_degree, BASIS_DEGREE_MAX)
    j_mask = sum(1 << (h - 1) for h in j.members)
    for x, mask in _rep_images(k.n, subset_to_composition(k)):
        if not mask & j_mask:
            yield x


def _cells(images: tuple[int, ...], j_data, k_data) -> dict[int, list[int]]:
    """The non-empty ``x^{-1}(J_q) & K_m``, each the list of its positions
    in increasing order, keyed by ``m * r + q`` for r blocks of J, with
    ``J_q`` and ``K_m`` in the order of their subset graph's ordered
    presentation; ``j_data`` and ``k_data`` are the subsets'
    :func:`_subset_data`.

    Position p lies in ``K_m`` for ``m = where_K[p]``, and in
    ``x^{-1}(J_q)`` for ``q = where_J[x(p)]``, so one pass over the images
    drops each position into its cell, and opens only the cells it
    meets: at most n of the r * c."""
    r = len(j_data[0])
    j_where, k_where = j_data[2], k_data[2]
    cells: dict[int, list[int]] = {}
    for p, v in enumerate(images, 1):
        cells.setdefault(k_where[p] * r + j_where[v], []).append(p)
    return cells


def _table(counts: list[int], r: int) -> MarginMatrix:
    """The flat counts ``counts[m * r + q]`` as rows of r, built unchecked:
    the cells split two partitions of ``1..n``, so the margins hold by
    construction."""
    return MarginMatrix(tuple(zip(*[iter(counts)] * r)), check=False)


def _check_double_rep(x: Permutation, j: GeneratorSubset,
                      k: GeneratorSubset) -> None:
    """Raise unless x is a double representative of the pair."""
    if x.n != j.n or j.n != k.n:
        raise degree_mismatch(x.n, j.n, k.n)
    # x^{-1} ascends at h when the value h stands before h + 1
    if not (is_left_rep(x, k) and all(x.index(h) < x.index(h + 1)
                                      for h in j.members)):
        raise ValueError(
            f"{x.to_text()} is not a double representative for the given pair")


def intersection_table(x: Permutation, j: GeneratorSubset,
                       k: GeneratorSubset) -> MarginMatrix:
    """Block-intersection counts for a double representative.

    Entry ``(m, q)`` counts ``x^{-1}(J_q)`` inside ``K_m``, where ``J_q`` and
    ``K_m`` run over the ordered components of the two subset graphs.  Rows
    therefore sum to the composition of K and columns to the composition of
    J, and on the double set the map is a bijection onto all margin
    matrices.  x is first checked to be a double representative.  Each
    position p of x is then counted in cell ``(where_K[p], where_J[x(p)])``
    of one flat list, in one pass, with no inverse, no set operations and
    no list of positions.
    """
    _check_double_rep(x, j, k)
    j_blocks, _, j_where = _subset_data(j)
    k_blocks, _, k_where = _subset_data(k)
    r = len(j_blocks)
    counts = [0] * (r * len(k_blocks))
    for p, v in enumerate(x, 1):
        counts[k_where[p] * r + j_where[v]] += 1
    return _table(counts, r)


def predicted_presentation(x: Permutation, j: GeneratorSubset,
                           k: GeneratorSubset) -> OrderedPresentation:
    """The intersections ``x^{-1}(J_q) & K_m`` listed q-inner, empty ones
    dropped: the non-empty cells in key order.  For a double
    representative this lists the components of the intersection graph in
    least-element order; the presentation is validated, so a list out of
    that order is rejected."""
    _check_double_rep(x, j, k)
    cells = _cells(x, _subset_data(j), _subset_data(k))
    return OrderedPresentation(map(cells.__getitem__, sorted(cells)))


def _presentation_subgroup(blocks) -> set[Permutation]:
    """All permutations preserving each block setwise (a Young subgroup)."""
    n = sum(len(b) for b in blocks)
    members = set()
    for assignment in itertools.product(
            *[itertools.permutations(b) for b in blocks]):
        images = [0] * n
        for block, perm in zip(blocks, assignment):
            for slot, value in zip(block, perm):
                images[slot - 1] = value
        members.add(Permutation(images, check=False))
    return members


@dataclass
class PairFailure:
    """One counterexample found while verifying a subset pair."""
    x_text: str
    check: str
    detail: str

    def record(self) -> dict:
        return {"x": self.x_text, "check": self.check, "detail": self.detail}


@dataclass
class PairReport:
    """Outcome of :func:`verify_subset_pair` for one (J, K) pair."""
    n: int
    j_members: tuple[int, ...]
    k_members: tuple[int, ...]
    checks: tuple[str, ...]
    witnesses: int = 0
    failure_count: int = 0
    failures: list[PairFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def record(self) -> dict:
        return {
            "n": self.n,
            "j": list(self.j_members),
            "k": list(self.k_members),
            "checks": list(self.checks),
            "witnesses": self.witnesses,
            "failure_count": self.failure_count,
            "failures": [f.record() for f in self.failures],
            "passed": self.passed,
        }

    def to_text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        head = (f"{status} n={self.n} J={{{','.join(map(str, self.j_members))}}}"
                f" K={{{','.join(map(str, self.k_members))}}}"
                f" witnesses={self.witnesses}")
        if self.passed:
            return head
        lines = [head, f"  failures: {self.failure_count}"]
        for f in self.failures:
            lines.append(f"  x={f.x_text} [{f.check}] {f.detail}")
        if self.failure_count > len(self.failures):
            lines.append(f"  ... and {self.failure_count - len(self.failures)}"
                         " more")
        return "\n".join(lines)


def verify_subset_pair(j: GeneratorSubset, k: GeneratorSubset,
                       parabolic: bool | None = None,
                       max_failures: int = 10,
                       max_degree: int | None = None) -> PairReport:
    """Check every double representative of a pair against four claims.

    The block intersections ``x^{-1}(J_q) & K_m`` of each witness x,
    found by one pass over its images, give its predicted presentation
    (the non-empty ones, q inner) and its intersection table (their
    sizes).

    * ``presentation`` - the predicted presentation equals the ordered
      presentation of the intersection graph ``x^{-1}(graph J) & graph K``,
      computed independently by union-find;
    * ``reading-word`` - the block sizes of that computed presentation
      equal the reading word of the intersection table of x;
    * ``bijection`` - no two witnesses share a table, and the tables hit
      are exactly the margin matrices of the pair: each repeated, missing
      or foreign table is one failure naming it (x ``-`` when no witness
      hits it);
    * ``parabolic`` (degree <= 5 unless forced) - conjugating the Young
      subgroup of J by x and intersecting with the Young subgroup of K
      yields exactly the Young subgroup of the intersection graph.

    Failures are collected up to ``max_failures`` instead of stopping at
    the first; ``failure_count`` still counts them all.
    """
    if j.n != k.n:
        raise degree_mismatch(j.n, k.n)
    n = j.n
    check_degree(n, max_degree, LEMMA_DEGREE_DEFAULT)
    if parabolic is None:
        parabolic = n <= PARABOLIC_DEGREE_DEFAULT

    checks = ["presentation", "reading-word", "bijection"]
    if parabolic:
        checks.append("parabolic")
    report = PairReport(n, j.sorted_members(), k.sorted_members(),
                        tuple(checks))

    j_graph = graph_of_subset(j)
    k_graph = graph_of_subset(k)
    j_data, k_data = _subset_data(j), _subset_data(k)
    j_blocks, kappa, _ = j_data
    k_blocks, nu, _ = k_data
    r = len(kappa)
    size = r * len(nu)
    if parabolic:
        j_subgroup = _presentation_subgroup(j_blocks)
        k_sets = [set(b) for b in k_blocks]

    def fail(x: Permutation | None, check: str, detail: str) -> None:
        report.failure_count += 1
        if len(report.failures) < max_failures:
            x_text = "-" if x is None else x.to_text()
            report.failures.append(PairFailure(x_text, check, detail))

    hit: dict[MarginMatrix, Permutation] = {}
    for x in enumerate_double_set(j, k, max_degree=max_degree):
        report.witnesses += 1
        xinv = x.inverse()
        computed = ordered_presentation(
            intersect(j_graph.image_under(xinv), k_graph))
        cells = _cells(x, j_data, k_data)
        try:
            predicted = OrderedPresentation(
                map(cells.__getitem__, sorted(cells)))
        except ValueError as exc:
            fail(x, "presentation", f"prediction rejected: {exc}")
        else:
            if predicted != computed:
                fail(x, "presentation",
                     f"predicted {predicted.to_text()} "
                     f"but components are {computed.to_text()}")
        counts = [0] * size
        for key, cell in cells.items():
            counts[key] = len(cell)
        table = _table(counts, r)
        word = table.reading_word()
        if computed.block_sizes() != word:
            fail(x, "reading-word",
                 f"component sizes {computed.block_sizes()} "
                 f"!= reading word {tuple(word)}")
        if table in hit:
            fail(x, "bijection", f"table {table.to_text()} "
                                 f"already hit by {hit[table].to_text()}")
        else:
            hit[table] = x
        if parabolic:
            conjugated = set()
            for w in j_subgroup:
                wc = xinv * w * x
                if all({wc[v - 1] for v in b} == b for b in k_sets):
                    conjugated.add(wc)
            expected = _presentation_subgroup(computed)
            if conjugated != expected:
                fail(x, "parabolic",
                     f"conjugated intersection has {len(conjugated)} "
                     f"elements, Young subgroup has {len(expected)}")

    tables = list(contingency_tables(nu, kappa, max_degree=max_degree))
    reference = set(tables)
    for table, x in hit.items():
        if table not in reference:
            fail(x, "bijection",
                 f"table {table.to_text()} is not a margin matrix of the pair")
    for table in tables:
        if table not in hit:
            fail(None, "bijection", f"no witness hits table {table.to_text()}")
    return report
