"""Compositions, generator subsets, ordered presentations and margin matrices.

A subset J of the adjacent transpositions ``{s_1 .. s_{n-1}}`` is recorded by
generator index.  The paper draws it as a graph on vertices ``1..n`` with an
edge ``{i, i+1}`` for each ``i`` in J; that graph holds nothing the subset
does not, so the subset stands for it.  Its components are runs of
consecutive vertices; listing them by least element (the *ordered
presentation*) and taking their sizes turns J into a composition of n,
bijectively.  The paper's x^{-1}(graph J) & graph K is the graph of the
subset x^{-1} J x & K (``cosets._meet``).  A composition, an
ordered presentation and a margin matrix are each the ``tuple`` of their
parts, blocks or rows, equal to that plain tuple and hashed like it.  Their
constructors validate; a producer whose items are valid by construction
builds with ``tuple.__new__(Cls, items)``, which skips the check.

>>> j = GeneratorSubset(9, [2, 3, 7])
>>> subset_to_composition(j).to_text()
'1,3,1,1,2,1'
>>> ordered_presentation(j).to_text()
'({1},{2,3,4},{5},{6},{7,8},{9})'
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator

from .perms import (
    BASIS_DEGREE_MAX,
    _require_degree,
    check_degree,
    degree_mismatch,
)


class Composition(tuple):
    """A tuple of positive integers; ``n`` is their sum.  It equals its
    plain parts tuple and hashes like it, so dict keys compare in C.

    The constructor validates; parts that are positive integers by
    construction are built with ``tuple.__new__(Composition, parts)``.

    >>> Composition((1, 2)) == (1, 2), Composition((1, 2)).n
    (True, 3)
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int]):
        self = tuple.__new__(cls, parts)
        if not self:
            raise ValueError("a composition needs at least one part")
        for p in self:
            if type(p) is not int or p < 1:
                raise ValueError(
                    f"parts must be positive integers: {tuple(self)!r}")
        return self

    @property
    def parts(self) -> "Composition":
        """The value itself, kept only for ``perfbench/workloads.py``."""
        return self

    @property
    def n(self) -> int:
        return sum(self)

    @classmethod
    def from_text(cls, text: str) -> "Composition":
        """Parse comma-separated parts, e.g. ``"1,3,1,1,2,1"``."""
        try:
            parts = [int(p) for p in text.strip().split(",")]
        except ValueError:
            raise ValueError(f"bad composition text: {text!r}") from None
        return cls(parts)

    def to_text(self) -> str:
        return ",".join(map(str, self))

    def __repr__(self) -> str:
        return f"Composition({self.to_text()!r})"


class GeneratorSubset:
    """A subset of the generator indices ``1..n-1`` for a fixed degree n.

    ``mask`` has bit ``i-1`` set for each member i, the convention of every
    descent mask in the package, and ``members`` lists its set bits in
    increasing order; a subset equals and hashes as its ``(n, mask)``.

    >>> j = GeneratorSubset(4, [3, 1, 3])
    >>> j.members, j.mask
    ((1, 3), 5)
    """

    __slots__ = ("n", "members", "mask")

    def __init__(self, n: int, members: Iterable[int] = ()):
        _require_degree(n)
        mask = 0
        for m in members:
            if type(m) is not int or not 1 <= m <= n - 1:
                raise ValueError(
                    f"generator index {m!r} outside 1..{n - 1}")
            mask |= 1 << (m - 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", tuple([
            i for i in range(1, n) if mask >> (i - 1) & 1]))
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorSubset is immutable")

    def __reduce__(self):
        return type(self), (self.n, self.members)

    @classmethod
    def from_text(cls, n: int, text: str) -> "GeneratorSubset":
        """Parse ``"2,3,7"``; the empty string is the empty subset."""
        text = text.strip()
        if not text:
            return cls(n)
        try:
            members = [int(p) for p in text.split(",")]
        except ValueError:
            raise ValueError(f"bad subset text: {text!r}") from None
        return cls(n, members)

    def to_text(self) -> str:
        return ",".join(map(str, self.members))

    def __eq__(self, other) -> bool:
        return (isinstance(other, GeneratorSubset)
                and self.n == other.n and self.mask == other.mask)

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"GeneratorSubset({self.n}, {{{self.to_text()}}})"


class OrderedPresentation(tuple):
    """Connected components listed by least element: a tuple of blocks,
    each a sorted tuple of vertices.  It equals its plain blocks tuple and
    hashes like it.

    The constructor validates rather than normalises the order: blocks must
    partition ``1..n`` and already be sorted by their minima, so a claimed
    presentation in the wrong order is rejected, not silently fixed.
    Blocks that are a sorted partition by construction are built with
    ``tuple.__new__(OrderedPresentation, blocks)``, each block a tuple.
    """

    __slots__ = ()

    def __new__(cls, blocks: Iterable[Iterable[int]]):
        self = tuple.__new__(cls, map(tuple, map(sorted, blocks)))
        if not self:
            raise ValueError("presentation needs at least one block")
        seen = set()
        for block in self:
            if not block:
                raise ValueError("blocks must be non-empty")
            if not seen.isdisjoint(block):
                raise ValueError("blocks must be disjoint")
            seen.update(block)
        n = len(seen)
        # n distinct ints from 1 to n are 1..n; a bool or float equal to a
        # vertex is not one
        if (not {int}.issuperset(map(type, seen))
                or min(seen) != 1 or max(seen) != n):
            raise ValueError(f"blocks must partition 1..{n}")
        mins = [block[0] for block in self]
        if mins != sorted(mins):
            raise ValueError("blocks must be listed by least element")
        if n != sum(map(len, self)):  # a vertex listed twice in one block
            raise ValueError(f"blocks must partition 1..{n}")
        return self

    @property
    def n(self) -> int:
        return sum(map(len, self))

    def to_text(self) -> str:
        inner = ",".join("{" + ",".join(map(str, b)) + "}" for b in self)
        return f"({inner})"

    def __repr__(self) -> str:
        return f"OrderedPresentation({self.to_text()})"


class MarginMatrix(tuple):
    """A non-negative integer matrix: a tuple of row tuples, equal to its
    plain rows tuple and hashed like it.

    Rows sum to ``row_margins`` and columns to ``col_margins``, both read
    from the rows.  ``MarginMatrix(rows)`` checks the rows; rows that are
    by construction equal-length non-negative integer tuples with positive
    margins are built with ``tuple.__new__(MarginMatrix, rows)``.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[Iterable[int]]):
        self = tuple.__new__(cls, map(tuple, entries))
        for row in self:
            for v in row:
                if type(v) is not int or v < 0:
                    raise ValueError("entries must be non-negative integers")
        self.row_margins  # raises unless every row sum is positive
        r = len(self.col_margins)
        if any(len(row) != r for row in self):
            raise ValueError("matrix shape does not match margins")
        return self

    @property
    def row_margins(self) -> Composition:
        return Composition(map(sum, self))

    @property
    def col_margins(self) -> Composition:
        return Composition(map(sum, zip(*self)))

    def reading_word(self) -> Composition:
        """Non-zero entries scanned row by row.

        >>> MarginMatrix([[0, 1], [2, 0]]).reading_word()
        Composition('1,2')
        """
        return tuple.__new__(
            Composition, filter(None, itertools.chain.from_iterable(self)))

    def to_text(self) -> str:
        return "[" + "; ".join(" ".join(map(str, row)) for row in self) + "]"

    def __repr__(self) -> str:
        return f"MarginMatrix({[list(r) for r in self]!r})"


# ---------------------------------------------------------------------------
# subset <-> composition

def subset_to_composition(j: GeneratorSubset) -> Composition:
    """The composition of J, as the paper defines it: the sizes of the
    blocks of the ordered presentation of J's graph."""
    return tuple.__new__(Composition, map(len, ordered_presentation(j)))


def _composition_mask(kappa: Composition) -> int:
    """``composition_to_subset(kappa).mask``, built with no subset: every
    generator index except the proper partial sums of ``kappa``.

    >>> bin(_composition_mask(Composition((2, 1, 3))))
    '0b11001'
    """
    mask = (1 << (kappa.n - 1)) - 1
    for s in itertools.accumulate(kappa[:-1]):
        mask ^= 1 << (s - 1)
    return mask


def composition_to_subset(kappa: Composition) -> GeneratorSubset:
    """The generator subset whose graph components have sizes ``kappa``:
    the members of :func:`_composition_mask`."""
    n = kappa.n
    mask = _composition_mask(kappa)
    return GeneratorSubset(n, [i for i in range(1, n) if mask >> (i - 1) & 1])


def all_generator_subsets(n: int) -> list[GeneratorSubset]:
    """All 2^(n-1) subsets, lexicographically by sorted index tuple."""
    tuples = itertools.chain.from_iterable(
        itertools.combinations(range(1, n), k) for k in range(n))
    return [GeneratorSubset(n, t) for t in sorted(tuples)]


def all_compositions(n: int) -> list[Composition]:
    """All compositions of n, in the subset order of :func:`all_generator_subsets`."""
    return [subset_to_composition(j) for j in all_generator_subsets(n)]


# ---------------------------------------------------------------------------
# graphs

def ordered_presentation(j: GeneratorSubset) -> OrderedPresentation:
    """Connected components of the graph of ``j`` sorted by least element:
    its runs, read in one scan of ``1..n``, where v joins the run of v-1
    when v-1 is in ``j`` (bit v-2 of ``j.mask``)."""
    mask = j.mask
    blocks = [[1]]
    for v in range(2, j.n + 1):
        if mask >> (v - 2) & 1:
            blocks[-1].append(v)
        else:
            blocks.append([v])
    return tuple.__new__(OrderedPresentation, map(tuple, blocks))


def to_dot(j: GeneratorSubset) -> str:
    """Graphviz DOT text of the graph of ``j``, one cluster per component."""
    lines = ["graph G {"]
    for idx, block in enumerate(ordered_presentation(j)):
        lines.append(f"  subgraph cluster_{idx} {{")
        lines.append("    label=\"{" + ",".join(map(str, block)) + "}\";")
        for v in block:
            lines.append(f"    {v};")
        lines.append("  }")
    for i in j.members:
        lines.append(f"  {i} -- {i + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# margin matrices

# One entry per (row sum, column sums left).  A full pass over the
# ordered composition pairs of degree n reaches 1 006 keys at n=6 and
# 3 336 at n=7, so 4 096 holds every key of one degree through n=7.  By
# tracemalloc those entries take about 1.1 MiB at n=6 and 5.1 MiB at n=7.
@lru_cache(maxsize=4096)
def _row_fillings(total, cols):
    """Every row summing to ``total`` with cells at most ``cols``, largest
    first, each paired with the column sums it leaves, as a tuple of
    ``(row, rest)`` tuples that no caller can change."""
    fills = [((), (), total)]
    after = sum(cols)
    for c in cols:
        after -= c
        fills = [(row + (z,), rest + (c - z,), left - z)
                 for row, rest, left in fills
                 for z in range(min(left, c), max(left - after, 0) - 1, -1)]
    return tuple((row, rest) for row, rest, _ in fills)


def contingency_tables(row_margins: Composition, col_margins: Composition,
                       max_degree: int | None = None
                       ) -> Iterator[MarginMatrix]:
    """All matrices with the given margins, in row-major lexicographic
    order with the largest entries first: the only code that lists single
    tables.  The count can reach n!, so the degree is capped at
    :data:`~descents.perms.BASIS_DEGREE_MAX` unless ``max_degree`` raises
    the bound.

    Partial tables grow a row at a time, each extended in order by every
    filling of the next row from the shared cache :func:`_row_fillings`,
    and the last row is forced, so no list is longer than the answer.
    Each filling meets its row sum and the column sums left, so tables
    are built unchecked; tests pin them against brute-force enumeration.
    The lemma check (:func:`~descents.cosets.verify_subset_pair`) walks
    the double set in step with this order.

    >>> [z.to_text() for z in contingency_tables(Composition((2, 1)),
    ...                                          Composition((1, 2)))]
    ['[1 1; 0 1]', '[0 2; 1 0]']
    """
    n = row_margins.n
    if n != col_margins.n:
        raise degree_mismatch(n, col_margins.n)
    check_degree(n, max_degree, BASIS_DEGREE_MAX)
    partial = [((), tuple(col_margins))]
    for total in row_margins[:-1]:
        partial = [(rows + (row,), rest) for rows, cols in partial
                   for row, rest in _row_fillings(total, cols)]
    return (tuple.__new__(MarginMatrix, (*rows, cols))
            for rows, cols in partial)
