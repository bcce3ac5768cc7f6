"""The descent algebra of S_n: basis elements indexed by compositions.

``B(kappa)`` stands for the sum of the minimal coset representatives
``X_kappa``.  Products expand over margin matrices: every matrix with row
margins ``nu`` and column margins ``kappa`` contributes the basis element of
its reading word, so

    B(kappa) * B(nu) = sum over such matrices of B(reading word).

The group-algebra oracle recomputes the same product by brute force from
the defining sums and must agree exactly.  :func:`oracle_agrees` compares
the two in the byte words that :func:`backend.convolve` returns, each
side read off S_n's descent classes as its indicator or, for ``B(1^n)``,
all of S_n, as its empty complement (:func:`oracle_mismatch`).  Both
algebras' elements share one base, ``perms._IntegerCombination``;
:func:`to_group_algebra` and :func:`oracle_multiply` build them from the
same word list, as the reference the lean comparison must match.

>>> kappa, nu = Composition((2, 1)), Composition((1, 2))
>>> str(solomon_multiply(kappa, nu))
'B(1,1,1) + B(1,2)'
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, TextIO

from . import backend
from .backend import check_coefficients
from .combinatorics import Composition, _composition_mask, all_compositions
from .perms import (
    BASIS_DEGREE_MAX,
    ORACLE_DEGREE_DEFAULT,
    GroupAlgebraElement,
    Permutation,
    _adopt,
    _IntegerCombination,
    _require_degree,
    algebra_multiply,
    check_degree,
    degree_mismatch,
)

#: Version stamp for the structured export format.
STRUCTURE_SCHEMA_VERSION = 1


class DescentElement(_IntegerCombination):
    """An integer combination of basis elements, keyed by composition."""

    __slots__ = ()
    key_type = Composition

    def sorted_terms(self) -> list[tuple[Composition, int]]:
        # keys are distinct, so only they are compared
        return sorted(self.terms.items())

    def _multiply(self, other: "DescentElement") -> "DescentElement":
        # through the module global, so a wrapper installed on
        # ``algebra.element_multiply`` sees every element product
        return element_multiply(self, other)

    def __str__(self) -> str:
        """Render like ``B(1,1,1) + B(1,2)`` or ``2 B(1,1)``; zero is ``0``."""
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for comp, coeff in self.sorted_terms():
            base = f"B({comp.to_text()})"
            mag = abs(coeff)
            body = base if mag == 1 else f"{mag} {base}"
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"DescentElement({self.n}, {str(self)!r})"


def basis_element(kappa: Composition) -> DescentElement:
    """The basis element ``B(kappa)``."""
    return _adopt(DescentElement, kappa.n, {kappa: 1})


def identity_element(n: int) -> DescentElement:
    """``B(n)``: the single-part composition indexes the identity."""
    return basis_element(Composition((n,)))


# One shared Composition per reading word, so the products of degree n
# hold at most 2**(n-1) key objects however many of them are kept.  4096
# holds all 4 095 compositions through n=12, in about 0.9 MiB by
# tracemalloc.  Each word is the non-zero entries of a table, so its
# parts are positive.
@lru_cache(maxsize=4096)
def _term_key(word: tuple[int, ...]) -> Composition:
    return tuple.__new__(Composition, word)


# 4096 holds every basis product at n=7 (64 x 64 pairs), while a full n=8
# sweep (16 384 pairs) stays bounded; the products' keys come from
# _term_key, which a cache_clear here leaves warm
@lru_cache(maxsize=4096)
def _solomon(kappa: Composition, nu: Composition) -> DescentElement:
    n = kappa.n
    counts = backend.reading_word_counts(nu, kappa, n)
    terms = dict(zip(map(_term_key, counts),
                     check_coefficients(counts.values())))
    return _adopt(DescentElement, n, terms)


def solomon_multiply(kappa: Composition, nu: Composition,
                     max_degree: int | None = None) -> DescentElement:
    """Basis product by the margin-matrix rule (no group enumeration).

    Degrees above ``max_degree`` (default ``BASIS_DEGREE_MAX``) raise.
    """
    n = kappa.n
    if n != nu.n:
        raise degree_mismatch(n, nu.n)
    check_degree(n, max_degree, BASIS_DEGREE_MAX)
    return _solomon(kappa, nu)


def element_multiply(a: DescentElement, b: DescentElement,
                     max_degree: int | None = None) -> DescentElement:
    """Bilinear extension of :func:`solomon_multiply`.

    As in :func:`backend.convolve`, sums are exact, terms that cancel are
    dropped and the result is range-checked once, on its two extremes, so
    term order cannot matter.  The degree is checked against
    ``max_degree`` (default ``BASIS_DEGREE_MAX``) once per call.  Both
    operands must be ``DescentElement``s: a group-algebra element's keys
    are permutations, not compositions.
    """
    for x in (a, b):
        if not isinstance(x, DescentElement):
            raise ValueError(f"expected DescentElements: {type(x).__name__}")
    n = a.n
    if n != b.n:
        raise degree_mismatch(n, b.n)
    check_degree(n, max_degree, BASIS_DEGREE_MAX)
    terms: dict[Composition, int] = {}
    get = terms.get
    for kappa, ca in a.terms.items():
        for nu, cb in b.terms.items():
            scale = ca * cb
            for eta, c in _solomon(kappa, nu).terms.items():
                terms[eta] = get(eta, 0) + scale * c
    if 0 in check_coefficients(terms.values()):
        terms = {eta: c for eta, c in terms.items() if c}
    return _adopt(DescentElement, n, terms)


# One entry per degree: S_n's permutations as byte words of their images,
# listed once by descent set (index d has bit h-1 set for each descent h),
# in lexicographic order within each class.  An entry lists 720 words in
# 32 classes at n=6 (0.03 MiB by tracemalloc), 5 040 in 64 at n=7 (0.23 MiB)
# and 40 320 in 128 at n=8 (1.9 MiB); four entries cover the degrees a
# sweep moves between, and n=5..8 together hold 2.2 MiB.
@lru_cache(maxsize=4)
def _descent_classes(n: int) -> tuple[tuple[bytes, ...], ...]:
    classes: list[list[bytes]] = [[] for _ in range(1 << (n - 1))]
    for images in itertools.permutations(range(1, n + 1)):
        d = 0
        for h in range(n - 1):
            if images[h] > images[h + 1]:
                d |= 1 << h
        classes[d].append(bytes(images))
    return tuple(map(tuple, classes))


def _class_weights(a: DescentElement) -> list[int]:
    """The coefficient of ``a`` on each permutation of descent class d,
    listed by d and range-checked.

    A permutation lies in ``X_eta`` when none of ``eta``'s required
    ascents is one of its descents, so each class takes the sum of the
    coefficients of the basis elements whose mask misses d.
    """
    masks = [(_composition_mask(comp), coeff)
             for comp, coeff in a.terms.items()]
    return check_coefficients([sum(coeff for m, coeff in masks if m & d == 0)
                               for d in range(1 << (a.n - 1))])


def to_group_algebra(a: DescentElement,
                     max_degree: int | None = None) -> GroupAlgebraElement:
    """Expand into the group algebra: each ``B(eta)`` becomes the sum of
    its coset representatives, so each descent class's weight
    (:func:`_class_weights`) goes to the permutation of every word listed
    in that class."""
    if not isinstance(a, DescentElement):
        raise ValueError(f"expected a DescentElement: {type(a).__name__}")
    check_degree(a.n, max_degree, ORACLE_DEGREE_DEFAULT)
    terms = {tuple.__new__(Permutation, z): w
             for words, w in zip(_descent_classes(a.n), _class_weights(a))
             if w for z in words}
    return _adopt(GroupAlgebraElement, a.n, terms)


def oracle_multiply(kappa: Composition, nu: Composition,
                    max_degree: int | None = None) -> GroupAlgebraElement:
    """Brute-force product of the defining sums in the group algebra.

    Shares no logic with :func:`solomon_multiply`; the two must agree
    after :func:`to_group_algebra`.
    """
    n = kappa.n
    if n != nu.n:
        raise degree_mismatch(n, nu.n)
    check_degree(n, max_degree, ORACLE_DEGREE_DEFAULT)
    # the bound is checked, so both expansions accept degree n
    x_kappa, x_nu = (to_group_algebra(basis_element(comp), max_degree=n)
                     for comp in (kappa, nu))
    return algebra_multiply(x_kappa, x_nu)


def oracle_mismatch(kappa: Composition, nu: Composition,
                    max_degree: int | None = None
                    ) -> tuple[Permutation, int, int] | None:
    """Where the margin-matrix product and the brute-force product differ.

    ``None`` when they agree; otherwise ``(permutation, table_coefficient,
    oracle_coefficient)`` for the smallest permutation, in one-line order,
    whose coefficient differs between the two routes.

    The verdict is what comparing ``to_group_algebra(solomon_multiply(kappa,
    nu))`` with ``oracle_multiply(kappa, nu)`` gives, reached without
    building either element, in the byte words that
    :func:`backend.convolve` returns.  Each side hands it ``(word, 1)``
    pairs: the indicator ``X_eta``, read off the descent classes whose
    index misses its composition's mask, when ``|X_eta| <= n!/2``, and
    otherwise its complement ``S_n - X_eta``, the classes whose index
    meets the mask.  With ``e`` the sum of S_n, ``1_X = e - 1_C`` and
    ``e*f = eps(f)*e``, so the product is ``alpha*e + s*(A*B)``: with one
    side complemented ``s = -1`` and ``alpha`` is the other operand's
    size, with both ``s = +1`` and ``alpha = n! - |A| - |B|``.  The
    table product is expanded once, as ``{word: s*(w_d - alpha)}`` over
    the classes whose weight ``w_d`` is not ``alpha``, and the two agree
    when that dict equals the convolution; otherwise the smallest word
    on which they differ is named, with ``w_d`` (0 off S_n) and the
    oracle's ``alpha*[word in S_n] + s*convolution(word)``.
    """
    n = kappa.n
    if n != nu.n:
        raise degree_mismatch(n, nu.n)
    check_degree(n, max_degree, ORACLE_DEGREE_DEFAULT)
    weights = _class_weights(solomon_multiply(kappa, nu,
                                              max_degree=max_degree))
    classes = _descent_classes(n)
    order = math.factorial(n)
    sign, operands, sizes = 1, [], []
    for comp in (kappa, nu):
        mask, size = _composition_mask(comp), left_rep_count(comp)
        # X_eta, or its complement when that is smaller
        keep = 2 * size <= order
        operands.append([(z, 1) for d, words in enumerate(classes)
                         if (not d & mask) == keep for z in words])
        sizes.append(size)
        if not keep:
            sign = -sign
    # the product is alpha*e + sign*(A*B), so its augmentation
    # |X_kappa| * |X_nu| is alpha*n! + sign*|A|*|B|
    a_size, b_size = map(len, operands)
    alpha = (sizes[0] * sizes[1] - sign * a_size * b_size) // order
    # through the module attribute, so a wrapper on it sees every check
    oracle = backend.convolve(n, *operands)
    want = {z: sign * (w - alpha) for words, w in zip(classes, weights)
            if w != alpha for z in words}
    if want == oracle:
        return None
    get = oracle.get
    word = min(z for z in want.keys() | oracle.keys()
               if want.get(z, 0) != get(z, 0))
    table = {z: w for words, w in zip(classes, weights) for z in words}
    # alpha*e lies on the permutations only
    return (tuple.__new__(Permutation, word), table.get(word, 0),
            alpha * (word in table) + sign * get(word, 0))


def oracle_agrees(kappa: Composition, nu: Composition,
                  max_degree: int | None = None) -> bool:
    """Does the margin-matrix product match the brute-force product?"""
    return oracle_mismatch(kappa, nu, max_degree=max_degree) is None


# ---------------------------------------------------------------------------
# counting identity

def left_rep_count(nu: Composition) -> int:
    """``n! / prod(nu_i!)``, the size of ``X_nu``."""
    return math.factorial(nu.n) // math.prod(map(math.factorial, nu))


def reading_multinomial_sum(kappa: Composition, nu: Composition,
                            max_degree: int | None = None) -> int:
    """Sum of ``n!/prod(eta_i!)`` over all margin matrices of the pair.

    Read off the product that :func:`solomon_multiply` returns, as
    ``sum of c_eta * |X_eta|``, so the identity checks the very product
    callers get, and a cached product is not swept again.  ``max_degree``
    is the product's degree bound.
    """
    product = solomon_multiply(kappa, nu, max_degree=max_degree)
    return backend.sum_reading_multinomials(product.terms.items(), product.n)


def counting_identity_holds(kappa: Composition, nu: Composition,
                            max_degree: int | None = None) -> bool:
    """Reading-word multinomials must total ``|X_kappa| * |X_nu|``."""
    return (reading_multinomial_sum(kappa, nu, max_degree=max_degree)
            == left_rep_count(kappa) * left_rep_count(nu))


# ---------------------------------------------------------------------------
# structure constants and exports

def structure_constants(
        n: int, max_degree: int | None = None
) -> list[tuple[Composition, Composition, DescentElement]]:
    """Every ordered basis product, pairs in subset order."""
    _require_degree(n)
    check_degree(n, max_degree, BASIS_DEGREE_MAX)
    comps = all_compositions(n)
    return [(kappa, nu, solomon_multiply(kappa, nu, max_degree=max_degree))
            for kappa in comps for nu in comps]


def write_structure_csv(rows: Iterable[tuple[Composition, Composition,
                                             DescentElement]],
                        fh: TextIO) -> None:
    """One CSV row per (kappa, nu, eta) coefficient."""
    import csv  # here, so that importing the package does not load csv
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["kappa", "nu", "eta", "coefficient"])
    for kappa, nu, product in rows:
        pair = [kappa.to_text(), nu.to_text()]
        writer.writerows([*pair, eta.to_text(), coeff]
                         for eta, coeff in product.sorted_terms())


def structure_records(n: int,
                      rows: Iterable[tuple[Composition, Composition,
                                           DescentElement]]) -> dict:
    """Nested record form of the table, for the structured text export."""
    return {
        "schema_version": STRUCTURE_SCHEMA_VERSION,
        "kind": "descent-algebra-products",
        "n": n,
        "products": [
            {
                "kappa": kappa.to_text(),
                "nu": nu.to_text(),
                "terms": [
                    {"eta": eta.to_text(), "coefficient": coeff}
                    for eta, coeff in product.sorted_terms()
                ],
            }
            for kappa, nu, product in rows
        ],
    }
