"""Minimal-length left coset representatives and the margin-matrix bijection.

For a generator subset K the set ``X_K`` of minimal-length representatives
of the cosets of the standard parabolic subgroup is cut out by the ascent
test ``x(h) < x(h+1)`` for every h in K.  A permutation lying in ``X_K``
whose inverse lies in ``X_J`` meets both conditions at once; these double
representatives are counted by margin matrices via block intersections.
Subsets are read as their masks (``GeneratorSubset.mask``, bit i-1 for
generator i), and so are descent sets.  ``X_K`` is listed by a forward
walk over K's blocks of positions, and each representative is stored
with the descent mask of its inverse, so the double set is ``X_K``
filtered by one test against J's mask.  Each subset's blocks and the block
index of every vertex are cached under its degree and mask.  From them
each pair gets a grid that maps a position and its value to the key of
the intersection holding it, so a representative is read as one list of
cell keys, in C: counted, the keys give its table, and grouped, its
predicted presentation.  A witness's intersection graph is the graph of
``x^{-1} J x & K``, whose mask is read from x's adjacent values and looked
up in the subset cache.  Walked in lexicographic order, the double set
meets the pair's margin matrices in the order ``contingency_tables``
lists them, largest first, so the bijection check compares each
witness's table with the next one listed and hashes tables only when a
witness leaves that order.

>>> from .combinatorics import GeneratorSubset
>>> k = GeneratorSubset(3, [2])
>>> [x.to_text() for x in enumerate_left_reps(k)]
['123', '213', '312']
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from functools import lru_cache
from operator import getitem, itemgetter
from typing import Callable, Iterator, NamedTuple

from .algebra import solomon_multiply
from .combinatorics import (
    Composition,
    GeneratorSubset,
    MarginMatrix,
    OrderedPresentation,
    SubsetGraph,
    contingency_tables,
    ordered_presentation,
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
#: Failures listed in a :class:`PairReport`; ``failure_count`` counts all.
MAX_FAILURES = 10


def is_left_rep(x: Permutation, k: GeneratorSubset) -> bool:
    """Ascent test: x is the shortest element of its coset x*W_K.

    >>> is_left_rep(Permutation.from_text("132"), GeneratorSubset(3, [2]))
    False
    """
    if x.n != k.n:
        raise degree_mismatch(x.n, k.n)
    return all(x[h - 1] < x[h] for h in k.members)


@lru_cache(maxsize=256)
def _rep_images(n: int, mask: int) -> tuple[tuple[Permutation, int], ...]:
    # X_K for the subset K of degree n with this mask, in lexicographic
    # order, walked forward a block of positions at a time: each block but
    # the last reads the values it chooses from those left in increasing
    # order, and the last block takes the rest.  Next to each x goes the
    # descent mask of x^{-1}: bit h-1 is set when h+1 lands in an earlier
    # block than h, so a block adds the bits of its values v whose v-1 is
    # left for later blocks.  256 entries hold every composition through
    # n=8 (255 of them).  A state is (images so far, values left, bit v for
    # each value v left, x^{-1}'s descent mask so far).
    parts = _subset_data(n, mask)[1]
    states = [((), tuple(range(1, n + 1)), (1 << n + 1) - 2, 0)]
    for size in parts[:-1]:
        grown = []
        for images, pool, pool_bits, inv in states:
            for chosen in itertools.combinations(pool, size):
                bits = sum(1 << v for v in chosen)
                left = pool_bits - bits
                grown.append((images + chosen,
                              tuple(v for v in pool if left >> v & 1),
                              left, inv | (bits & left << 1) >> 2))
        states = grown
    return tuple((tuple.__new__(Permutation, images + pool), inv)
                 for images, pool, _, inv in states)


@lru_cache(maxsize=1024)
def _subset_data(n: int, mask: int) -> tuple[tuple[tuple[int, ...], ...],
                                             Composition, tuple[int, ...]]:
    """For the subset J of degree n with ``J.mask == mask``: the
    ordered-presentation blocks of J's graph, their sizes (J's composition)
    and ``where``, whose ``where[v]`` is the index of the block holding v.

    Keyed on the two ints, so a hit hashes in C, and a miss reads the
    graph's edges off the mask and its blocks off their runs: no call
    builds a subset.  1024 entries hold every subset of one degree through
    n=11, a witness's meet (:func:`_meet`) among them.
    ``ordered_presentation`` is read from this module, so a wrapper placed
    there sees each miss."""
    blocks = ordered_presentation(SubsetGraph(
        n, [(i, i + 1) for i in range(1, n) if mask >> (i - 1) & 1]))
    where = [-1] * (n + 1)
    for q, block in enumerate(blocks):
        for v in block:
            where[v] = q
    return blocks, tuple.__new__(Composition, map(len, blocks)), tuple(where)


def _meet(x: Permutation, j: GeneratorSubset, k: GeneratorSubset) -> int:
    """The mask of ``x^{-1} J x & K``: the i in K whose edge ``{i, i+1}`` x
    maps onto an edge ``{a, a+1}`` of graph J, for any x; its graph is
    x^{-1}(graph J) & graph K."""
    j_mask = j.mask
    meet = 0
    for i in k.members:
        a = x[i - 1]
        b = x[i]
        if ((b - a == 1 and j_mask >> (a - 1) & 1)
                or (a - b == 1 and j_mask >> (b - 1) & 1)):
            meet |= 1 << (i - 1)
    return meet


def enumerate_left_reps(k: GeneratorSubset,
                        max_degree: int | None = None) -> Iterator[Permutation]:
    """Stream ``X_K`` in lexicographic one-line order.

    Representatives are generated directly as block interleavings (never by
    filtering all of S_n); the count is ``n!`` over the product of the
    factorials of the component sizes.  :func:`verify_subset_pair` relies
    on the order for speed, not for its verdict.
    """
    check_degree(k.n, max_degree, BASIS_DEGREE_MAX)
    return (x for x, _ in _rep_images(k.n, k.mask))


def enumerate_double_set(j: GeneratorSubset, k: GeneratorSubset,
                         max_degree: int | None = None) -> Iterator[Permutation]:
    """Permutations lying in ``X_K`` whose inverses lie in ``X_J``.

    x^{-1} lies in ``X_J`` when it has no descent in J, so each stored
    representative is kept when its inverse's descent mask misses J.
    The stream keeps ``X_K``'s lexicographic order, in which the witnesses'
    tables come in the listing order of ``contingency_tables``;
    :func:`verify_subset_pair` relies on that for speed, not for its
    verdict."""
    if j.n != k.n:
        raise degree_mismatch(j.n, k.n)
    check_degree(k.n, max_degree, BASIS_DEGREE_MAX)
    j_mask = j.mask
    return (x for x, mask in _rep_images(k.n, k.mask) if not mask & j_mask)


@lru_cache(maxsize=8)
def _key_grid(n: int, j_mask: int, k_mask: int) -> tuple[
        tuple[list[int], ...], Callable[[tuple[int, ...]], tuple], int,
        list[int]]:
    """For the pair of subsets of degree n with these masks: the key grid,
    the row slicer, the cell count r * c (r blocks in J, c in K), and the
    list ``1..n``.

    Cell ``(m, q)`` holds ``x^{-1}(J_q) & K_m`` and has key ``m * r + q``,
    the blocks in :func:`_subset_data` order.  Position p lies in ``K_m``
    for ``m = where_K[p]`` and in ``x^{-1}(J_q)`` for ``q = where_J[x(p)]``,
    so grid row p-1 maps each value v to ``where_K[p] * r + where_J[v]``.
    The row slicer cuts a flat tuple of cell counts into its c rows of r
    in one C call, an ``itemgetter`` of the r-wide slices (a one-row
    table is the counts themselves).  A pair's witnesses are read one
    after another, so a few entries serve.  The grid rows are lists:
    evicted row tuples of n+1 ints would pile up on the interpreter's
    free list for tuples of that length."""
    j_blocks, _, j_where = _subset_data(n, j_mask)
    k_blocks, _, k_where = _subset_data(n, k_mask)
    r = len(j_blocks)
    c = len(k_blocks)
    grid = tuple([k_where[p] * r + q for q in j_where]
                 for p in range(1, n + 1))
    # an itemgetter of one slice would return the row, not a 1-tuple
    rows = (itemgetter(*[slice(m * r, m * r + r) for m in range(c)])
            if c > 1 else lambda counts: (counts,))
    return grid, rows, r * c, list(range(1, n + 1))


def _keys(x: Permutation, grid) -> list[int]:
    """The cell key of each position of x, in position order, read off
    the pair's :func:`_key_grid` in one C-level pass."""
    return list(map(getitem, grid, x))


def _counts(keys: list[int], size: int) -> tuple[int, ...]:
    """How many keys fall in each of the ``size`` cells, in key order:
    the intersection table, flattened row by row, as a tuple for the row
    slicer.  (CPython 3.11 keeps up to 2 000 freed 20-item tuples on its
    free list, about 0.4 MiB once, from pairs of 20 cells.)"""
    counts = [0] * size
    for key in keys:
        counts[key] += 1
    return tuple(counts)


def _table(counts: tuple[int, ...], rows) -> MarginMatrix:
    """The flat counts ``counts[m * r + q]`` cut into rows of r by the
    pair's row slicer (:func:`_key_grid`), built unchecked: the cells
    split two partitions of ``1..n``, so the margins hold by
    construction."""
    return tuple.__new__(MarginMatrix, rows(counts))


def _prediction(keys: list[int]) -> tuple[tuple[int, ...], ...]:
    """The non-empty cells in key order, each the tuple of its positions in
    increasing order: the predicted presentation, as plain tuples."""
    cells: dict[int, list[int]] = {}
    for p, key in enumerate(keys, 1):
        cells.setdefault(key, []).append(p)
    return tuple(tuple(cells[key]) for key in sorted(cells))


def _witness_keys(x: Permutation, j: GeneratorSubset,
                  k: GeneratorSubset) -> tuple[list[int], Callable, int]:
    """x's key list, the pair's row slicer and the cell count; raise
    unless x is a double representative of the pair.

    It is one exactly when its keys never fall along the positions and a
    stable sort of x by the J block of each value gives ``1..n``; the
    second condition says x^{-1} lies in ``X_J``.  Given it, keys that
    never fall make x ascend inside each block of K: two neighbours there
    lie in J blocks in increasing order, or in one J block, whose values
    stand in increasing order.  Conversely an x in ``X_K`` ascends inside
    each block of K, so its keys never fall."""
    n = j.n
    if len(x) != n or n != k.n:
        raise degree_mismatch(len(x), n, k.n)
    grid, rows, size, identity = _key_grid(n, j.mask, k.mask)
    keys = _keys(x, grid)
    # grid row 0 is K's first block, so it maps v to the block of v in J
    if keys != sorted(keys) or sorted(x, key=grid[0].__getitem__) != identity:
        raise ValueError(
            f"{x.to_text()} is not a double representative for the given pair")
    return keys, rows, size


def intersection_table(x: Permutation, j: GeneratorSubset,
                       k: GeneratorSubset) -> MarginMatrix:
    """Block-intersection counts for a double representative.

    Entry ``(m, q)`` counts ``x^{-1}(J_q)`` inside ``K_m``, where ``J_q`` and
    ``K_m`` run over the ordered components of the two subset graphs.  Rows
    therefore sum to the composition of K and columns to the composition of
    J, and on the double set the map is a bijection onto all margin
    matrices.  x's key list (:func:`_key_grid`) is read once, in C; it
    shows whether x is a double representative, and counting its keys
    gives the table, with no inverse, no set operations and no list of
    positions.
    """
    keys, rows, size = _witness_keys(x, j, k)
    return _table(_counts(keys, size), rows)


def predicted_presentation(x: Permutation, j: GeneratorSubset,
                           k: GeneratorSubset) -> OrderedPresentation:
    """The intersections ``x^{-1}(J_q) & K_m`` listed q-inner, empty ones
    dropped: the positions grouped by x's key list, in key order.  For a
    double representative this lists the components of the intersection
    graph in least-element order; the presentation is validated, so a
    list out of that order is rejected."""
    return OrderedPresentation(_prediction(_witness_keys(x, j, k)[0]))


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
        members.add(tuple.__new__(Permutation, images))
    return members


class PairFailure(NamedTuple):
    """One counterexample found while verifying a subset pair: the witness
    x as text (``-`` when none), the check it failed and what differed."""

    x_text: str
    check: str
    detail: str

    def record(self) -> dict:
        return {"x": self.x_text, "check": self.check, "detail": self.detail}


class PairReport(NamedTuple):
    """Outcome of :func:`verify_subset_pair` for one (J, K) pair: the
    degree, both subsets' members, the checks run, the witnesses seen, the
    failures counted, and the first :data:`MAX_FAILURES` of them listed.

    A report is a tuple built once, so it compares, hashes, pickles and
    prints by its fields, like the package's other tuple values."""

    n: int
    j_members: tuple[int, ...]
    k_members: tuple[int, ...]
    checks: tuple[str, ...]
    witnesses: int = 0
    failure_count: int = 0
    failures: tuple[PairFailure, ...] = ()

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
                       max_degree: int | None = None) -> PairReport:
    """Check every double representative of a pair against five claims.

    Each witness x is read as one list of cell keys, the key of position
    p naming the block intersection ``x^{-1}(J_q) & K_m`` that holds it
    (:func:`_key_grid`).  Counting the keys gives its intersection table,
    and grouping the positions by key, in key order, its predicted
    presentation (the non-empty intersections, q inner).

    * ``presentation`` - the predicted presentation equals the ordered
      presentation of the intersection graph ``x^{-1}(graph J) & graph K``:
      the cached blocks of the subset ``x^{-1} J x & K`` (:func:`_meet`).
      Those blocks split ``1..n`` into intervals in order, so they equal
      the prediction exactly when the keys never fall along the
      positions and the table's reading word is the blocks' sizes.  Only
      a witness that fails this test has its prediction built, as plain
      tuples, and only a prediction that differs from the blocks is
      built checked: the failure reads ``prediction rejected: ...`` when
      it is no presentation, and ``predicted ... but components are ...``
      otherwise;
    * ``reading-word`` - that subset's composition equals the reading
      word of the intersection table of x.  The table is counted from the
      keys apart from the prediction's grouping, so a fault that trades
      two valid tables between witnesses fails only here;
    * ``bijection`` - no two witnesses share a table, and the tables hit
      are exactly the margin matrices of the pair: each repeated, missing
      or foreign table is one failure naming it (x ``-`` when no witness
      hits it).  The margin matrices are listed once, before the walk,
      and the witnesses are met in step with the list: witness i is in
      step when its table is the i-th listed and below the one before,
      so no table is hashed.  This is the order the walk gives (each
      block of K takes the least unused values of each J block, in
      increasing order, so a table larger in row-major order puts a
      smaller value first), but the order decides only the speed.  At
      the first witness out of step, the tables met so far start a dict
      of tables hit, and the walk goes on with it; a walk that left the
      order or stopped short of the list's end compares the tables hit
      with the listed ones as two sets, and only when they differ are
      the foreign tables named, in witness order, and then the missing
      ones, in listing order;
    * ``product`` - Solomon's Mackey formula: the witnesses counted by the
      composition of their meet equal ``solomon_multiply(kappa, nu)``
      (kappa from J, nu from K) as a dict.  Each composition that differs
      is one failure, x ``-``, naming its witnesses and coefficient;
    * ``parabolic`` (degree <= 5 unless forced) - conjugating the Young
      subgroup of J by x and intersecting with the Young subgroup of K
      yields exactly the Young subgroup of the intersection graph.

    Failures are collected up to :data:`MAX_FAILURES` instead of stopping
    at the first; ``failure_count`` still counts them all.  The report is
    built once, after the last check, with its failures as a tuple.
    """
    if j.n != k.n:
        raise degree_mismatch(j.n, k.n)
    n = j.n
    check_degree(n, max_degree, LEMMA_DEGREE_DEFAULT)
    if parabolic is None:
        parabolic = n <= PARABOLIC_DEGREE_DEFAULT

    j_blocks, kappa, _ = _subset_data(n, j.mask)
    k_blocks, nu, _ = _subset_data(n, k.mask)
    grid, rows, size, _ = _key_grid(n, j.mask, k.mask)
    if parabolic:
        j_subgroup = _presentation_subgroup(j_blocks)
        k_subgroup = _presentation_subgroup(k_blocks)
        young = {}  # the Young subgroup of each meet, keyed by its mask

    failures: list[PairFailure] = []
    failure_count = 0

    def fail(x: Permutation | None, check: str, detail: str) -> None:
        nonlocal failure_count
        failure_count += 1
        if len(failures) < MAX_FAILURES:
            x_text = "-" if x is None else x.to_text()
            failures.append(PairFailure(x_text, check, detail))

    tally = defaultdict(int)  # witnesses per meet mask
    listed = list(contingency_tables(nu, kappa, max_degree=max_degree))
    # while witness i hits listed[i], below listed[i-1], only the
    # witnesses are kept; the first that does not starts the dict of
    # tables hit, from the witnesses in step
    in_step: list[Permutation] = []
    hit: dict[MarginMatrix, Permutation] | None = None
    for x in enumerate_double_set(j, k, max_degree=max_degree):
        meet = _meet(x, j, k)
        tally[meet] += 1
        computed, sizes, _ = _subset_data(n, meet)
        keys = _keys(x, grid)
        counts = _counts(keys, size)
        # the table's reading word: its non-zero counts in row-major order
        word = tuple(filter(None, counts))
        if sizes != word or keys != sorted(keys):
            # the prediction lists each block's positions in increasing
            # order, so the checked build changes none of them
            predicted = _prediction(keys)
            if predicted != computed:
                try:
                    predicted = OrderedPresentation(predicted)
                except ValueError as exc:
                    fail(x, "presentation", f"prediction rejected: {exc}")
                else:
                    fail(x, "presentation",
                         f"predicted {predicted.to_text()} "
                         f"but components are {computed.to_text()}")
            if sizes != word:
                fail(x, "reading-word",
                     f"component sizes {tuple(sizes)} "
                     f"!= reading word {tuple(word)}")
        table = _table(counts, rows)
        if hit is None:
            i = len(in_step)
            if (i < len(listed) and table == listed[i]
                    and (not i or table < listed[i - 1])):
                in_step.append(x)
            else:
                hit = dict(zip(listed, in_step))
        if hit is not None:
            if table in hit:
                fail(x, "bijection", f"table {table.to_text()} "
                                     f"already hit by {hit[table].to_text()}")
            else:
                hit[table] = x
        if parabolic:
            xinv = x.inverse()
            conjugated = {xinv * w * x for w in j_subgroup} & k_subgroup
            if meet not in young:
                young[meet] = _presentation_subgroup(computed)
            if conjugated != young[meet]:
                fail(x, "parabolic",
                     f"conjugated intersection has {len(conjugated)} "
                     f"elements, Young subgroup has {len(young[meet])}")

    # a walk in step to the list's end hit each listed table once; one
    # that left the order or stopped short compares the two sets
    if hit is None and len(in_step) < len(listed):
        hit = dict(zip(listed, in_step))
    if hit is not None and hit.keys() != (reference := set(listed)):
        for table, x in hit.items():
            if table not in reference:
                fail(x, "bijection", f"table {table.to_text()} "
                                     "is not a margin matrix of the pair")
        # contingency_tables lists in descending row-major order
        for table in sorted(reference - hit.keys(), reverse=True):
            fail(None, "bijection", f"no witness hits table {table.to_text()}")
    mackey = defaultdict(int)  # witnesses per meet composition
    for meet, count in tally.items():
        mackey[_subset_data(n, meet)[1]] += count
    terms = solomon_multiply(kappa, nu, max_degree=max_degree).terms
    if mackey != terms:
        for eta in sorted(mackey.keys() | terms.keys()):
            if mackey[eta] != terms.get(eta, 0):
                fail(None, "product", f"B({eta.to_text()}): {mackey[eta]} "
                     f"witnesses, coefficient {terms.get(eta, 0)}")
    checks = ("presentation", "reading-word", "bijection", "product")
    if parabolic:
        checks += ("parabolic",)
    return PairReport(n, j.members, k.members, checks, sum(tally.values()),
                      failure_count, tuple(failures))
