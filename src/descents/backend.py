"""The hot kernels: group-algebra convolution and the reading-word sweep.

:func:`convolve` composes a left term with all of one coefficient's right
terms in one ``bytes.translate`` of their joined words, cuts the products
apart with one ``split`` and tallies them with ``Counter``, so the work per
term pair runs in C, and returns the products as those byte words.  A basis
product needs only how many margin tables have each reading word, which
:func:`reading_word_counts` tallies in one forward pass over the rows, as
counts of states (column sums left, word so far).  The last row is forced,
so the pass stops at the next-to-last row and ends each word with the
column sums that row leaves.  A row's merged fillings depend only on the
row sum and the column sums left, so every call takes them from one
bounded cache keyed on that pair, :func:`_merged_row`.  The counting
identity re-weights a product's terms with :func:`sum_reading_multinomials`
and sweeps nothing itself.

Conventions:

* permutations are tuples of images in one-line notation, values ``1..n``;
  :func:`convolve` returns its products as ``bytes`` words of those
  images, whose ``tuple`` is the image tuple;
* a reading word is the tuple of a margin table's non-zero entries, read
  row by row: the parts of a composition of ``n``;
* every input coefficient and every result must lie within signed 64-bit
  range, else ``OverflowError`` rather than wrapping.  Sums on the way are
  exact; each finished result, a basis product's counts too, is checked
  once, on its least and greatest value, read in C
  (:func:`check_coefficients`).
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


def check_coefficients(values):
    """Return the sized ``values``, or raise if their least or greatest
    leaves signed 64-bit range: a finished result's one range check."""
    if values and (min(values) < INT64_MIN or max(values) > INT64_MAX):
        raise OverflowError("coefficient exceeds signed 64-bit range")
    return values


def _by_coefficient(items):
    """``{coefficient: [images]}``, every coefficient range-checked."""
    groups = {}
    for images, c in items:
        groups.setdefault(c, []).append(images)
    return check_coefficients(groups)


def convolve(n, a_items, b_items):
    """Product of two sparse integer group-algebra elements.

    ``a_items`` and ``b_items`` are sequences of ``(images, coefficient)``
    pairs with ``n <= 255``, else ``ValueError``; the result maps composed
    images ``x*y`` (right factor first), as ``bytes`` words, to accumulated
    coefficients, zeros dropped.  ``tuple(word)`` is the image tuple, and
    words order as their tuples do.  Images may also arrive as such
    ``bytes`` words, which ``bytes`` returns as they are, with no copy.

    Terms are grouped by coefficient.  A left term ``x`` is a 256-byte
    translation table fixing 0, a right coefficient's terms one buffer of
    their ``bytes(y)`` joined by zero bytes; as images are ``1..n``, one
    translate composes ``x`` with every ``y`` and ``split(b"\\0")`` cuts
    the products apart, both in C.  One Counter per product weight
    ``ca * cb`` tallies the ``len(a_items) * len(b_items)`` products, also
    in C.  With one weight, as for a product of two basis indicators, the
    result is that Counter scaled; with several, the tallies are summed.
    Every input coefficient, and the result's least and greatest, must lie
    in signed 64-bit range, else ``OverflowError``; sums in between are
    exact, so term order cannot matter.

    >>> convolve(3, [((2, 1, 3), 1)], [((1, 3, 2), 2)])
    {b'\\x02\\x03\\x01': 2}
    """
    if n > 255:
        raise ValueError(f"degree {n} above 255: images are encoded as bytes")
    # table byte v is x(v), byte 0 the separator; the padding is never read
    pad = bytes(255 - n)
    lefts = {ca: [b"\0" + bytes(x) + pad for x in xs]
             for ca, xs in _by_coefficient(a_items).items()}
    rights = {cb: b"\0".join(map(bytes, ys))
              for cb, ys in _by_coefficient(b_items).items()}
    tallies = {}
    for ca, tables in lefts.items():
        for cb, joined in rights.items():
            w = ca * cb
            if w:
                tallies.setdefault(w, Counter()).update(chain.from_iterable(
                    map(bytes.split, map(joined.translate, tables),
                        repeat(b"\0"))))
    if len(tallies) == 1:
        # zero weights are skipped and counts are positive: nothing cancels
        (w, tally), = tallies.items()
        out = dict(tally) if w == 1 else {z: w * k for z, k in tally.items()}
    else:
        acc = {}
        get = acc.get
        for w, tally in tallies.items():
            for z, k in tally.items():
                acc[z] = get(z, 0) + w * k
        out = {z: v for z, v in acc.items() if v}
    check_coefficients(out.values())
    return out


# One entry per (row sum, column sums left).  The forced last row is
# never looked up, so the products of degree n reach (n - 2) * 2**n + 2
# keys: 642 at n=7, 1 538 at n=8 and 3 586 at n=9, and 4 096 holds every
# key of a table through n=9.  By tracemalloc a full table's cache retains
# about 0.6 MiB at n=7, 2.0 MiB at n=8 and 6.2 MiB at n=9.
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

    The sweep walks forward a row at a time over states (column sums
    left, word so far), each with the number of partial tables that reach
    it; columns are kept in order with emptied ones dropped.  Each row
    replaces the states with their extensions by the row's merged
    fillings, which depend only on its sum and the column sums left, so
    they come from one bounded cache shared by every call.  The last row
    is forced: its non-zero entries are the column sums that the
    next-to-last row leaves.  So the sweep ends there, and each of that
    row's fillings writes its word, ``word + filling + columns left``,
    straight into the result.  A one-row table is its column sums.

    >>> sorted(reading_word_counts((1, 2), (2, 1), 3).items())
    [((1, 1, 1), 1), ((1, 2), 1)]
    >>> reading_word_counts((3,), (1, 2), 3)
    {(1, 2): 1}
    """
    if not row_margins or not col_margins:
        raise ValueError("margins must be non-empty")
    if min(row_margins) < 1 or min(col_margins) < 1:
        raise ValueError("margins must be positive")
    if sum(row_margins) != sum(col_margins):
        raise ValueError("row and column margins must have equal totals")
    if sum(row_margins) != n:
        raise ValueError("margins must be margins of compositions of n")
    if len(row_margins) == 1:
        return {tuple(col_margins): 1}
    states = {(tuple(col_margins), ()): 1}
    for total in row_margins[:-2]:
        merged = {}
        for (cols, word), k in states.items():
            for rest, tail, m in _merged_row(total, cols):
                key = (rest, word + tail)
                merged[key] = merged.get(key, 0) + k * m
        states = merged
    # the last row is forced: the column sums the next-to-last row leaves
    counts = {}
    total = row_margins[-2]
    for (cols, word), k in states.items():
        for rest, tail, m in _merged_row(total, cols):
            key = word + tail + rest
            counts[key] = counts.get(key, 0) + k * m
    return counts


def sum_reading_multinomials(terms, n):
    """``sum of count * n! / prod(eta_i!)`` over ``(eta_parts, count)``.

    The counting identity passes a basis product's terms, so the total
    re-weights its reading-word counts with no second sweep; it must equal
    the product of the two margin multinomials.  Each multinomial is
    ``factorial(n) // prod(map(factorial, eta_parts))``.  The sum is exact.
    """
    top = math.factorial(n)
    return sum(count * (top // math.prod(map(math.factorial, parts)))
               for parts, count in terms)
