"""The hot kernels: group-algebra convolution and the margin-table sweeps.

Conventions:

* permutations are tuples of images in one-line notation, values ``1..n``;
* composition masks encode a composition of ``n`` by its proper partial
  sums: bit ``i-1`` is set iff ``i`` is a partial sum (``i < n``);
* every coefficient must stay within signed 64-bit range, and leaving it
  raises ``OverflowError`` rather than wrapping.
"""

from __future__ import annotations

import math

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def backend_name() -> str:
    """Which kernel implementation is active; always ``"pure"``."""
    return "pure"


def convolve(n, a_items, b_items):
    """Product of two sparse integer group-algebra elements.

    ``a_items`` and ``b_items`` are sequences of ``(images, coefficient)``
    pairs; the result maps composed images ``x*y`` (right factor first) to
    accumulated coefficients, zeros dropped.
    """
    acc = {}
    get = acc.get
    for ax, ca in a_items:
        if not (_INT64_MIN <= ca <= _INT64_MAX):
            raise OverflowError("coefficient exceeds signed 64-bit range")
        # pad so that 1-based values of the right factor index directly
        axp = (0,) + tuple(ax)
        lookup = axp.__getitem__
        for by, cb in b_items:
            if not (_INT64_MIN <= cb <= _INT64_MAX):
                raise OverflowError("coefficient exceeds signed 64-bit range")
            z = tuple(map(lookup, by))
            v = get(z, 0) + ca * cb
            if not (_INT64_MIN <= v <= _INT64_MAX):
                raise OverflowError("coefficient exceeds signed 64-bit range")
            if v:
                acc[z] = v
            elif z in acc:
                del acc[z]
    return acc


def _check_margins(row_margins, col_margins):
    if not row_margins or not col_margins:
        raise ValueError("margins must be non-empty")
    if min(row_margins) < 1 or min(col_margins) < 1:
        raise ValueError("margins must be positive")
    if sum(row_margins) != sum(col_margins):
        raise ValueError("row and column margins must have equal totals")


def enumerate_tables(row_margins, col_margins):
    """All non-negative integer matrices with the given margins.

    Emitted in row-major lexicographic order with the largest entries
    first; callers and tests rely on that order.
    """
    _check_margins(row_margins, col_margins)
    s, r = len(row_margins), len(col_margins)
    col_rem = list(col_margins)
    later_rows = [sum(row_margins[i + 1:]) for i in range(s)]
    cells = [[0] * r for _ in range(s)]
    out = []

    def rec(i, j, row_rem, later_cols):
        if j == r:
            if i + 1 == s:
                out.append(tuple(tuple(row) for row in cells))
            else:
                rec(i + 1, 0, row_margins[i + 1], sum(col_rem) - col_rem[0])
            return
        crj = col_rem[j]
        hi = row_rem if row_rem < crj else crj
        lo = row_rem - later_cols
        if crj - later_rows[i] > lo:
            lo = crj - later_rows[i]
        if lo < 0:
            lo = 0
        nxt_later = later_cols - (col_rem[j + 1] if j + 1 < r else 0)
        for v in range(hi, lo - 1, -1):
            cells[i][j] = v
            col_rem[j] = crj - v
            rec(i, j + 1, row_rem - v, nxt_later)
        col_rem[j] = crj

    rec(0, 0, row_margins[0], sum(col_margins) - col_margins[0])
    return out


def reading_word_counts(row_margins, col_margins, n):
    """Multiplicity of each reading word over all margin matrices.

    Returns ``{mask: count}`` where ``mask`` encodes the composition read
    off the non-zero entries row by row (partial-sum bits, see module
    docstring).  This is the whole content of a basis product: the table
    shapes are forgotten, only their reading words are tallied.
    """
    _check_margins(row_margins, col_margins)
    if sum(row_margins) != n:
        raise ValueError("margins must be margins of compositions of n")
    s, r = len(row_margins), len(col_margins)
    col_rem = list(col_margins)
    later_rows = [sum(row_margins[i + 1:]) for i in range(s)]
    counts = {}

    def rec(i, j, row_rem, later_cols, acc, mask):
        if j == r:
            if i + 1 == s:
                counts[mask] = counts.get(mask, 0) + 1
            else:
                rec(i + 1, 0, row_margins[i + 1], sum(col_rem) - col_rem[0],
                    acc, mask)
            return
        crj = col_rem[j]
        hi = row_rem if row_rem < crj else crj
        lo = row_rem - later_cols
        if crj - later_rows[i] > lo:
            lo = crj - later_rows[i]
        if lo < 0:
            lo = 0
        nxt_later = later_cols - (col_rem[j + 1] if j + 1 < r else 0)
        for v in range(hi, lo - 1, -1):
            col_rem[j] = crj - v
            if v and acc + v < n:
                rec(i, j + 1, row_rem - v, nxt_later, acc + v,
                    mask | (1 << (acc + v - 1)))
            else:
                rec(i, j + 1, row_rem - v, nxt_later, acc + v, mask)
        col_rem[j] = crj

    rec(0, 0, row_margins[0], sum(col_margins) - col_margins[0], 0, 0)
    return counts


def sum_reading_multinomials(row_margins, col_margins, n):
    """``sum over tables of n! / prod(eta_i!)`` for reading words ``eta``.

    Used by the counting identity: the total must equal the product of the
    two margin multinomials.  A table's weight ``n! / prod z_ij!`` factors
    row by row as ``C(m, nu_i) * nu_i! / prod_j z_ij!``, with ``m`` the
    total left for rows ``i`` onwards.  The sweep fills one row at a time
    and memoises, per row index and remaining column sums, the weighted
    sum over all fillings of the rows from there on.  Permuting those
    columns permutes the fillings, weight for weight, so the key sorts the
    sums and drops zeros.  The memo lives for one call; the sum is exact.
    """
    _check_margins(row_margins, col_margins)
    if sum(row_margins) != n:
        raise ValueError("margins must be margins of compositions of n")
    memo = {}

    def sweep(i, cols):
        key = (i, cols)
        if key not in memo:
            # fillings of row i so far, merged by (column sums left, row
            # left), weighted by nu_i! / prod z_ij! = prod C(left, z_ij)
            fills = {((), row_margins[i]): 1}
            after = sum(cols)
            for c in cols:
                after -= c
                merged = {}
                for (rest, left), w in fills.items():
                    for z in range(max(left - after, 0), min(left, c) + 1):
                        k = (rest + (c - z,) if z < c else rest, left - z)
                        merged[k] = merged.get(k, 0) + w * math.comb(left, z)
                fills = merged
            # an empty rest means row i was the last one
            total = sum(w * (sweep(i + 1, tuple(sorted(rest))) if rest else 1)
                        for (rest, _), w in fills.items())
            memo[key] = math.comb(sum(cols), row_margins[i]) * total
        return memo[key]

    return sweep(0, tuple(sorted(col_margins)))
