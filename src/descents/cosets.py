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
index of every vertex are cached under its degree and mask, so one pass
over a representative's images places each position in its intersection.
A witness's intersection graph is the graph of ``x^{-1} J x & K``, whose
mask is read from x's adjacent values and looked up in the same cache.

>>> from .combinatorics import GeneratorSubset
>>> k = GeneratorSubset(3, [2])
>>> [x.to_text() for x in enumerate_left_reps(k)]
['123', '213', '312']
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator

from .combinatorics import (
    Composition,
    GeneratorSubset,
    MarginMatrix,
    OrderedPresentation,
    contingency_tables,
    graph_of_subset,
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
    ordered-presentation blocks of J's graph, J's composition, and
    ``where``: ``where[v]`` is the index of the block that holds vertex v
    (``where[0]`` is unused).

    Keyed on the two ints, so a hit hashes in C and no caller builds a
    subset; 1024 entries hold every subset of one degree through n=11, a
    witness's meet (:func:`_meet`) among them.  ``ordered_presentation`` is
    read from this module, so a wrapper placed there sees each miss."""
    j = GeneratorSubset(n, [i for i in range(1, n) if mask >> (i - 1) & 1])
    blocks = ordered_presentation(graph_of_subset(j))
    where = [-1] * (n + 1)
    for q, block in enumerate(blocks):
        for v in block:
            where[v] = q
    return blocks, subset_to_composition(j), tuple(where)


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
    factorials of the component sizes.
    """
    check_degree(k.n, max_degree, BASIS_DEGREE_MAX)
    for x, _ in _rep_images(k.n, k.mask):
        yield x


def enumerate_double_set(j: GeneratorSubset, k: GeneratorSubset,
                         max_degree: int | None = None) -> Iterator[Permutation]:
    """Permutations lying in ``X_K`` whose inverses lie in ``X_J``.

    x^{-1} lies in ``X_J`` when it has no descent in J, so each stored
    representative is kept when its inverse's descent mask misses J."""
    if j.n != k.n:
        raise degree_mismatch(j.n, k.n)
    check_degree(k.n, max_degree, BASIS_DEGREE_MAX)
    j_mask = j.mask
    for x, mask in _rep_images(k.n, k.mask):
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
    return tuple.__new__(MarginMatrix, zip(*[iter(counts)] * r))


def _check_double_rep(x: Permutation, j: GeneratorSubset,
                      k: GeneratorSubset) -> None:
    """Raise unless x is a double representative of the pair."""
    if x.n != j.n or j.n != k.n:
        raise degree_mismatch(x.n, j.n, k.n)
    # one pass over the images, v = x(p+1): x descends at p when
    # x(p) > x(p+1), and x^{-1} descends at v-1 when v stands before v-1,
    # that is when v-1 is not yet read (``seen`` has bit v for each value
    # v read, and bit 0); both masks set bit h-1 for a descent at h
    descents = inverse_descents = 0
    seen = 1
    prev = 0
    for p, v in enumerate(x):
        if prev > v:
            descents |= 1 << (p - 1)
        if not seen >> (v - 1) & 1:
            inverse_descents |= 1 << (v - 2)
        seen |= 1 << v
        prev = v
    if descents & k.mask or inverse_descents & j.mask:
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
    j_blocks, _, j_where = _subset_data(j.n, j.mask)
    k_blocks, _, k_where = _subset_data(k.n, k.mask)
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
    cells = _cells(x, _subset_data(j.n, j.mask), _subset_data(k.n, k.mask))
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
        members.add(tuple.__new__(Permutation, images))
    return members


class PairFailure:
    """One counterexample found while verifying a subset pair: the witness
    x as text (``-`` when none), the check it failed and what differed.

    A plain slotted class, written out so that importing the package
    loads no class generator: it compares and prints by its three fields,
    and is unhashable."""

    __slots__ = ("x_text", "check", "detail")
    __hash__ = None

    def __init__(self, x_text: str, check: str, detail: str):
        self.x_text = x_text
        self.check = check
        self.detail = detail

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return ((self.x_text, self.check, self.detail)
                == (other.x_text, other.check, other.detail))

    def __repr__(self) -> str:
        return (f"PairFailure(x_text={self.x_text!r}, check={self.check!r}, "
                f"detail={self.detail!r})")

    def record(self) -> dict:
        return {"x": self.x_text, "check": self.check, "detail": self.detail}


class PairReport:
    """Outcome of :func:`verify_subset_pair` for one (J, K) pair: the
    degree, both subsets' members, the checks run, the witnesses seen, the
    failures counted, and the first :data:`MAX_FAILURES` of them listed.

    Like :class:`PairFailure` a plain slotted class: each report gets a
    fresh ``failures`` list, compares and prints by its seven fields, and
    is unhashable, since the verification updates it in place."""

    __slots__ = ("n", "j_members", "k_members", "checks", "witnesses",
                 "failure_count", "failures")
    __hash__ = None

    def __init__(self, n: int, j_members: tuple[int, ...],
                 k_members: tuple[int, ...], checks: tuple[str, ...],
                 witnesses: int = 0, failure_count: int = 0,
                 failures: list[PairFailure] | None = None):
        self.n = n
        self.j_members = j_members
        self.k_members = k_members
        self.checks = checks
        self.witnesses = witnesses
        self.failure_count = failure_count
        self.failures = [] if failures is None else failures

    def _fields(self) -> tuple:
        return (self.n, self.j_members, self.k_members, self.checks,
                self.witnesses, self.failure_count, self.failures)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return ("PairReport(n={!r}, j_members={!r}, k_members={!r}, "
                "checks={!r}, witnesses={!r}, failure_count={!r}, "
                "failures={!r})".format(*self._fields()))

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
    """Check every double representative of a pair against four claims.

    The block intersections ``x^{-1}(J_q) & K_m`` of each witness x,
    found by one pass over its images, give its predicted presentation
    (the non-empty ones, q inner) and its intersection table (their
    sizes).

    * ``presentation`` - the predicted presentation equals the ordered
      presentation of the intersection graph ``x^{-1}(graph J) & graph K``:
      the cached blocks of the subset ``x^{-1} J x & K`` (:func:`_meet`).
      They always pass the checked :class:`OrderedPresentation`
      constructor, so the prediction is compared with them as a plain
      tuple, and only a prediction that differs is built checked: the
      failure reads ``prediction rejected: ...`` when it is no
      presentation, and ``predicted ... but components are ...`` otherwise;
    * ``reading-word`` - that subset's composition equals the reading
      word of the intersection table of x;
    * ``bijection`` - no two witnesses share a table, and the tables hit
      are exactly the margin matrices of the pair: each repeated, missing
      or foreign table is one failure naming it (x ``-`` when no witness
      hits it);
    * ``parabolic`` (degree <= 5 unless forced) - conjugating the Young
      subgroup of J by x and intersecting with the Young subgroup of K
      yields exactly the Young subgroup of the intersection graph.

    Failures are collected up to :data:`MAX_FAILURES` instead of stopping
    at the first; ``failure_count`` still counts them all.
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
    report = PairReport(n, j.members, k.members, tuple(checks))

    j_data, k_data = _subset_data(n, j.mask), _subset_data(n, k.mask)
    j_blocks, kappa, _ = j_data
    k_blocks, nu, _ = k_data
    r = len(kappa)
    size = r * len(nu)
    if parabolic:
        j_subgroup = _presentation_subgroup(j_blocks)
        k_subgroup = _presentation_subgroup(k_blocks)
        young = {}  # the Young subgroup of each meet, keyed by its mask

    def fail(x: Permutation | None, check: str, detail: str) -> None:
        report.failure_count += 1
        if len(report.failures) < MAX_FAILURES:
            x_text = "-" if x is None else x.to_text()
            report.failures.append(PairFailure(x_text, check, detail))

    hit: dict[MarginMatrix, Permutation] = {}
    for x in enumerate_double_set(j, k, max_degree=max_degree):
        report.witnesses += 1
        meet = _meet(x, j, k)
        computed, sizes, _ = _subset_data(n, meet)
        cells = _cells(x, j_data, k_data)
        predicted = tuple(map(tuple, map(cells.__getitem__, sorted(cells))))
        # a prediction equal to computed passes the check as computed does;
        # the checked build sorts each block, so it is compared again
        if predicted != computed:
            try:
                predicted = OrderedPresentation(predicted)
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
        # the table's reading word: its non-zero counts in row-major order
        word = tuple(filter(None, counts))
        if sizes != word:
            fail(x, "reading-word",
                 f"component sizes {tuple(sizes)} "
                 f"!= reading word {tuple(word)}")
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
