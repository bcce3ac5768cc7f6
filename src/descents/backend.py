"""The hot kernels: group-algebra convolution and the margin-table sweeps.

:func:`convolve` composes permutations as ``bytes.translate`` calls and
tallies them with :class:`collections.Counter`, so the work per term pair
runs in C.  A basis product needs only how many margin tables have each
reading word, which one memoised row sweep, :func:`reading_word_counts`,
tallies.  A row's merged fillings depend only on the row sum and the
column sums left, so every call takes them from one bounded cache keyed
on that pair, :func:`_merged_row`.  The counting identity re-weights a
product's terms with :func:`sum_reading_multinomials` and sweeps nothing
itself.
:func:`enumerate_tables` is the only walk over single tables, for callers
that need the tables; its row fillings, keyed on the same pair, come from
a second bounded cache of 4 096 entries, :func:`_row_fillings`.

Conventions:

* permutations are tuples of images in one-line notation, values ``1..n``;
* a reading word is the tuple of a margin table's non-zero entries, read
  row by row: the parts of a composition of ``n``;
* every input coefficient and every result must lie within signed 64-bit
  range, and leaving it raises ``OverflowError`` rather than wrapping;
  sums on the way are exact integers and are not checked.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import chain, repeat

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


def backend_name() -> str:
    """Which kernel implementation is active; always ``"pure"``."""
    return "pure"


def check_coefficient(value: int) -> int:
    """Return ``value``, or raise if it leaves signed 64-bit range."""
    if value < INT64_MIN or value > INT64_MAX:
        raise OverflowError("coefficient exceeds signed 64-bit range")
    return value


def _by_coefficient(items):
    """``{coefficient: [images]}``, every coefficient range-checked."""
    groups = {}
    for images, c in items:
        groups.setdefault(c, []).append(images)
    for c in groups:
        check_coefficient(c)
    return groups


def convolve(n, a_items, b_items):
    """Product of two sparse integer group-algebra elements.

    ``a_items`` and ``b_items`` are sequences of ``(images, coefficient)``
    pairs with ``n <= 255``, else ``ValueError``; the result maps composed
    images ``x*y`` (right factor first) to accumulated coefficients, zeros
    dropped.

    Each left term ``x`` is encoded once as a 256-byte translation table
    and each right term ``y`` once as ``bytes(y)``, so that
    ``y.translate(table)`` is ``x*y``.  Terms are grouped by coefficient,
    and each pair of coefficients tallies its compositions in one
    :class:`~collections.Counter`: the cost is ``len(a_items) *
    len(b_items)`` translates, plus one Counter and one pass over its
    distinct images per coefficient pair.  Every input coefficient and
    every result coefficient must lie in signed 64-bit range, else
    ``OverflowError``; the sums in between are exact, so the outcome does
    not depend on the order of the terms.
    """
    if n > 255:
        raise ValueError(f"degree {n} above 255: images are encoded as bytes")
    # byte v of a left term's table is x(v); byte 0 and the padding past
    # n are never read
    pad = bytes(255 - n)
    lefts = {ca: [b"\0" + bytes(x) + pad for x in xs]
             for ca, xs in _by_coefficient(a_items).items()}
    rights = {cb: list(map(bytes, ys))
              for cb, ys in _by_coefficient(b_items).items()}
    acc = {}
    get = acc.get
    for ca, tables in lefts.items():
        for cb, words in rights.items():
            tally = Counter(chain.from_iterable(
                map(bytes.translate, words, repeat(table))
                for table in tables))
            w = ca * cb
            for z, k in tally.items():
                acc[z] = get(z, 0) + w * k
    out = {}
    for z, v in acc.items():
        if v:
            out[tuple(z)] = check_coefficient(v)
    return out


def _check_margins(row_margins, col_margins):
    if not row_margins or not col_margins:
        raise ValueError("margins must be non-empty")
    if min(row_margins) < 1 or min(col_margins) < 1:
        raise ValueError("margins must be positive")
    if sum(row_margins) != sum(col_margins):
        raise ValueError("row and column margins must have equal totals")


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


def enumerate_tables(row_margins, col_margins):
    """All non-negative integer matrices with the given margins.

    Emitted in row-major lexicographic order with the largest entries
    first; callers and tests rely on that order.  The walk fills one row
    at a time.  A row's fillings depend only on its sum and the column
    sums left, so they come from one bounded cache shared by every call,
    :func:`_row_fillings`; the last row is forced: it is the column sums
    left.

    >>> enumerate_tables((2, 1), (1, 2))
    [((1, 1), (0, 1)), ((0, 2), (1, 0))]
    """
    _check_margins(row_margins, col_margins)
    last = len(row_margins) - 1
    prefix = []
    out = []

    def walk(i, cols):
        if i == last:
            out.append((*prefix, cols))
            return
        for row, rest in _row_fillings(row_margins[i], cols):
            prefix.append(row)
            walk(i + 1, rest)
            prefix.pop()

    walk(0, tuple(col_margins))
    return out


# One entry per (row sum, column sums left).  The products of degree n
# reach (n - 1) * 2**n + 1 keys: 769 at n=7, 1 793 at n=8 and 4 097 at
# n=9, so 4 096 holds every key of a table through n=8.  By tracemalloc
# the entries take about 0.3 MiB at n=7 and 1.4 MiB at n=8.
@lru_cache(maxsize=4096)
def _merged_row(total, cols):
    """A row of sum ``total`` over column sums ``cols``, its fillings
    merged: ``(rest, word, count)`` per distinct pair of the column sums
    it leaves (emptied columns dropped) and its non-zero entries.

    Partial fillings merge column by column on (column sums left, row sum
    left, word so far), so a row of 15 over 30 unit columns holds
    O(30**2) states, not its C(30, 15) fillings.
    """
    after = sum(cols)
    fills = {((), total, ()): 1}
    for c in cols:
        after -= c
        merged = {}
        for (rest, left, word), k in fills.items():
            for z in range(max(left - after, 0), min(left, c) + 1):
                state = (rest + (c - z,) if z < c else rest, left - z,
                         word + (z,) if z else word)
                merged[state] = merged.get(state, 0) + k
        fills = merged
    return tuple((rest, word, k) for (rest, _, word), k in fills.items())


def reading_word_counts(row_margins, col_margins, n):
    """Multiplicity of each reading word over all margin matrices.

    Returns ``{word: count}`` where ``word`` is the tuple of the non-zero
    entries read row by row.  This is the whole content of a basis
    product: the table shapes are forgotten, only their reading words are
    tallied.

    The sweep fills one row at a time, memoised for the call on the row
    index and the column sums left, in column order with emptied columns
    dropped.  The words that rows ``i`` onwards read do not depend on the
    path to that state, so each is appended to the word of every filling
    that leads there.  A row's merged fillings depend only on its sum and
    the column sums left, so they come from one bounded cache shared by
    every call.

    >>> sorted(reading_word_counts((1, 2), (2, 1), 3).items())
    [((1, 1, 1), 1), ((1, 2), 1)]
    """
    _check_margins(row_margins, col_margins)
    if sum(row_margins) != n:
        raise ValueError("margins must be margins of compositions of n")
    memo = {}

    def sweep(i, cols):
        if (i, cols) not in memo:
            counts = {}
            for rest, word, k in _merged_row(row_margins[i], cols):
                # an empty rest means row i was the last one
                for tail, m in (sweep(i + 1, rest).items() if rest
                                else (((), 1),)):
                    counts[word + tail] = counts.get(word + tail, 0) + k * m
            memo[i, cols] = counts
        return memo[i, cols]

    return sweep(0, tuple(col_margins))


def sum_reading_multinomials(terms, n):
    """``sum of count * n! / prod(eta_i!)`` over ``(eta_parts, count)``.

    The counting identity passes a basis product's terms, so the total
    re-weights its reading-word counts with no second sweep; it must equal
    the product of the two margin multinomials.  The sum is exact.
    """
    fact = [math.factorial(k) for k in range(n + 1)]
    return sum(count * (fact[n] // math.prod(map(fact.__getitem__, parts)))
               for parts, count in terms)
