"""Compositions, generator subsets, their graphs, and margin matrices.

A subset J of the adjacent transpositions ``{s_1 .. s_{n-1}}`` is recorded by
generator index, and drawn as a graph on vertices ``1..n`` with an edge
``{i, i+1}`` for each ``i`` in J.  Listing the connected components by least
element (the *ordered presentation*) and taking their sizes turns J into a
composition of n; the correspondence is bijective.  A composition, an
ordered presentation and a margin matrix are each the ``tuple`` of their
parts, blocks or rows, equal to that plain tuple and hashed like it.

>>> j = GeneratorSubset(9, [2, 3, 7])
>>> subset_to_composition(j).to_text()
'1,3,1,1,2,1'
>>> ordered_presentation(graph_of_subset(j)).to_text()
'({1},{2,3,4},{5},{6},{7,8},{9})'
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterable, Iterator

from . import backend
from .perms import (
    BASIS_DEGREE_MAX,
    Permutation,
    check_degree,
    degree_mismatch,
)


class Composition(tuple):
    """A tuple of positive integers; ``n`` is their sum.  It equals its
    plain parts tuple and hashes like it, so dict keys compare in C.

    ``check=False`` is for callers whose parts are positive integers by
    construction; it skips the validation.

    >>> Composition((1, 2)) == (1, 2), Composition((1, 2)).n
    (True, 3)
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int], check: bool = True):
        self = tuple.__new__(cls, parts)
        if check:
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


def _check_subset_degree(n: int) -> None:
    """Raise unless the degree ``n`` is an ``int`` of at least 1."""
    if type(n) is not int:
        raise ValueError(f"degree must be an integer: {n!r}")
    if n < 1:
        raise ValueError("degree must be at least 1")


class GeneratorSubset:
    """A subset of the generator indices ``1..n-1`` for a fixed degree n."""

    __slots__ = ("n", "members")

    def __init__(self, n: int, members: Iterable[int] = ()):
        _check_subset_degree(n)
        members = frozenset(members)
        for m in members:
            if type(m) is not int or not 1 <= m <= n - 1:
                raise ValueError(
                    f"generator index {m!r} outside 1..{n - 1}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", members)

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
        return ",".join(str(m) for m in sorted(self.members))

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    def __contains__(self, m: int) -> bool:
        return m in self.members

    def __eq__(self, other) -> bool:
        return (isinstance(other, GeneratorSubset)
                and self.n == other.n and self.members == other.members)

    def __hash__(self) -> int:
        return hash((self.n, self.members))

    def __repr__(self) -> str:
        return f"GeneratorSubset({self.n}, {{{self.to_text()}}})"


class SubsetGraph:
    """A simple graph on vertices ``1..n``; edges need not be consecutive.

    Graphs of generator subsets only have edges ``{i, i+1}``, but images
    under a permutation produce arbitrary edges, which is why components
    are found by union-find rather than by scanning runs.  ``check=False``
    is for callers whose edges are already a frozenset of pairs ``(u, v)``
    with ``1 <= u < v <= n``; it keeps them as they are.
    """

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (),
                 check: bool = True):
        if check:
            _check_subset_degree(n)
            norm = set()
            for u, v in edges:
                if u == v:
                    raise ValueError(f"loop edge at {u}")
                if not (type(u) is int and type(v) is int
                        and 1 <= u <= n and 1 <= v <= n):
                    raise ValueError(f"edge ({u},{v}) outside 1..{n}")
                norm.add((u, v) if u < v else (v, u))
            edges = frozenset(norm)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError("SubsetGraph is immutable")

    def __reduce__(self):
        return type(self), (self.n, self.edges, False)

    def image_under(self, x: Permutation) -> "SubsetGraph":
        """Relabel every vertex v as x(v).

        A permutation maps an edge to two distinct vertices of ``1..n``,
        so the image is built unchecked once each pair is ordered."""
        if x.n != self.n:
            raise degree_mismatch(x.n, self.n)
        edges = set()
        for u, v in self.edges:
            a, b = x[u - 1], x[v - 1]
            edges.add((a, b) if a < b else (b, a))
        return SubsetGraph(self.n, frozenset(edges), check=False)

    def intersection(self, other: "SubsetGraph") -> "SubsetGraph":
        if self.n != other.n:
            raise degree_mismatch(self.n, other.n)
        return SubsetGraph(self.n, self.edges & other.edges, check=False)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubsetGraph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        body = " ".join(f"{{{u},{v}}}" for u, v in self.sorted_edges())
        return f"SubsetGraph({self.n}, {body or 'no edges'})"


class OrderedPresentation(tuple):
    """Connected components listed by least element: a tuple of blocks,
    each a sorted tuple of vertices.  It equals its plain blocks tuple and
    hashes like it.

    The constructor validates rather than normalises the order: blocks must
    partition ``1..n`` and already be sorted by their minima, so a claimed
    presentation in the wrong order is rejected, not silently fixed.
    ``check=False`` is for callers whose blocks are a sorted partition by
    construction; it skips the validation and the sorting.
    """

    __slots__ = ()

    def __new__(cls, blocks: Iterable[Iterable[int]], check: bool = True):
        if not check:
            return tuple.__new__(cls, map(tuple, blocks))
        self = tuple.__new__(cls, map(tuple, map(sorted, blocks)))
        if not self:
            raise ValueError("presentation needs at least one block")
        # Each check runs in C.  Two blocks overlap when their union is
        # smaller than their vertex sets' sizes summed; as in a scan, only
        # an overlap ahead of the first empty block is reported first.
        if () in self:
            head = self[:self.index(())]
            if len(set().union(*head)) != sum(map(len, map(set, head))):
                raise ValueError("blocks must be disjoint")
            raise ValueError("blocks must be non-empty")
        seen = set().union(*self)
        n = len(seen)
        total = sum(map(len, self))
        if n != total and n != sum(map(len, map(set, self))):
            raise ValueError("blocks must be disjoint")
        # n distinct ints from 1 to n are 1..n; a bool or float equal to a
        # vertex is not one
        if (not {int}.issuperset(map(type, seen))
                or min(seen) != 1 or max(seen) != n):
            raise ValueError(f"blocks must partition 1..{n}")
        mins = list(map(itemgetter(0), self))
        if mins != sorted(mins):
            raise ValueError("blocks must be listed by least element")
        if n != total:  # a vertex listed twice in one block
            raise ValueError(f"blocks must partition 1..{n}")
        return self

    @property
    def n(self) -> int:
        return sum(map(len, self))

    def block_sizes(self) -> tuple[int, ...]:
        return tuple(map(len, self))

    def to_text(self) -> str:
        inner = ",".join("{" + ",".join(map(str, b)) + "}" for b in self)
        return f"({inner})"

    def __repr__(self) -> str:
        return f"OrderedPresentation({self.to_text()})"


class MarginMatrix(tuple):
    """A non-negative integer matrix: a tuple of row tuples, equal to its
    plain rows tuple and hashed like it.

    Rows sum to ``row_margins`` and columns to ``col_margins``, both read
    from the rows.  ``MarginMatrix(rows)`` checks the rows; ``check=False``
    keeps, as given, rows that are by construction a tuple of equal-length
    non-negative integer tuples with positive margins.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[Iterable[int]], check: bool = True):
        if not check:
            return tuple.__new__(cls, entries)
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
        return Composition(filter(None, itertools.chain.from_iterable(self)),
                           check=False)

    def to_text(self) -> str:
        return "[" + "; ".join(" ".join(map(str, row)) for row in self) + "]"

    def __repr__(self) -> str:
        return f"MarginMatrix({[list(r) for r in self]!r})"


# ---------------------------------------------------------------------------
# subset <-> composition

def subset_to_composition(j: GeneratorSubset) -> Composition:
    """Sizes of the components of the graph of J, in order."""
    parts = []
    size = 1
    for i in range(1, j.n):
        if i in j.members:
            size += 1
        else:
            parts.append(size)
            size = 1
    parts.append(size)
    return Composition(parts)


def composition_to_subset(kappa: Composition) -> GeneratorSubset:
    """The generator subset whose graph components have sizes ``kappa``.

    These are all indices except the proper partial sums of ``kappa``.
    """
    n = kappa.n
    sums = set(itertools.accumulate(kappa[:-1]))
    return GeneratorSubset(n, (i for i in range(1, n) if i not in sums))


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

def graph_of_subset(j: GeneratorSubset) -> SubsetGraph:
    return SubsetGraph(j.n, ((i, i + 1) for i in j.members))


def intersect(g: SubsetGraph, h: SubsetGraph) -> SubsetGraph:
    return g.intersection(h)


def ordered_presentation(g: SubsetGraph) -> OrderedPresentation:
    """Connected components of ``g`` sorted by least element (union-find).

    A union links the larger root below the smaller one, and path halving
    only moves a pointer further down, so no vertex points above itself
    and each root is the least element of its component.  Then one pass
    ``parent[v] = parent[parent[v]]`` in increasing v points every vertex
    at its root, since v's parent was settled first, and opens the groups
    in root order: a sorted partition of ``1..n`` with no sort.
    """
    n = g.n
    parent = list(range(n + 1))
    for u, v in g.edges:
        # find both roots, halving the paths: each step points the vertex
        # at its grandparent, then moves there
        while u != parent[u]:
            parent[u] = u = parent[parent[u]]
        while v != parent[v]:
            parent[v] = v = parent[parent[v]]
        if u < v:
            parent[v] = u
        elif v < u:
            parent[u] = v
    groups: dict[int, list[int]] = {}
    for v in range(1, n + 1):
        root = parent[v] = parent[parent[v]]
        if root == v:
            groups[v] = [v]
        else:
            groups[root].append(v)
    return OrderedPresentation(groups.values(), check=False)


def to_dot(g: SubsetGraph) -> str:
    """Graphviz DOT text, one cluster per component."""
    lines = ["graph G {"]
    for idx, block in enumerate(ordered_presentation(g)):
        lines.append(f"  subgraph cluster_{idx} {{")
        lines.append("    label=\"{" + ",".join(map(str, block)) + "}\";")
        for v in block:
            lines.append(f"    {v};")
        lines.append("  }")
    for u, v in g.sorted_edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# margin matrices

def contingency_tables(row_margins: Composition, col_margins: Composition,
                       max_degree: int | None = None
                       ) -> Iterator[MarginMatrix]:
    """All matrices with the given margins, in the kernels' fixed order
    (row-major lexicographic, largest entries first).

    The count can reach n!, so the degree is capped at
    :data:`~descents.perms.BASIS_DEGREE_MAX` unless ``max_degree`` raises
    the bound.  The tables are built unchecked: the walk meets the margins
    by construction, and the tests pin it against brute-force
    enumeration."""
    n = row_margins.n
    if n != col_margins.n:
        raise degree_mismatch(n, col_margins.n)
    check_degree(n, max_degree, BASIS_DEGREE_MAX)
    for entries in backend.enumerate_tables(row_margins, col_margins):
        yield MarginMatrix(entries, check=False)
