"""Permutations of ``{1..n}`` and the sparse integer group algebra over them.

Permutations are kept in one-line notation: ``Permutation((3, 1, 2))`` sends
1 to 3, 2 to 1 and 3 to 2, and equals the tuple ``(3, 1, 2)``.  Composition
applies the right factor first: ``(x * y)(i) = x(y(i))``.
``Permutation(images)`` always validates.  A producer whose images are a
permutation by construction builds with tuple's own constructor instead,
``tuple.__new__(Permutation, images)``, as ``collections.namedtuple`` does:
it runs in C.

Elements of the group algebra and of the descent algebra (in ``algebra``)
are both subclasses of :class:`_IntegerCombination`, which holds their
shared coefficient arithmetic: exact integers, zeros dropped, every
coefficient within signed 64-bit range, immutable.  The one constructor
validates; ``_adopt`` keeps a dict its producer cleaned, uncopied.

>>> x = Permutation.from_text("132")
>>> y = Permutation.from_text("213")
>>> (x * y).to_text()
'312'
>>> Permutation.from_text("312").inverse().to_text()
'231'
>>> Permutation.from_text("312").length()
2
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping

from . import backend
from .backend import check_coefficients

#: Largest degree at which whole-group (order n!) computations run without
#: an explicit override.
ORACLE_DEGREE_DEFAULT = 7

#: Representative and table enumeration is output-linear but outputs can
#: reach n!, so the degree is capped unless the caller raises the bound.
BASIS_DEGREE_MAX = 12


def check_degree(n: int, max_degree: int | None, default: int,
                 option: str = "max_degree") -> None:
    """Raise if ``n`` exceeds ``max_degree`` (``default`` when None)."""
    limit = default if max_degree is None else max_degree
    if n > limit:
        raise ValueError(
            f"degree {n} above bound {limit}; pass {option} to override")


def _require_degree(n: int) -> None:
    """Raise unless the degree ``n`` is an ``int`` of at least 1."""
    if type(n) is not int:
        raise ValueError(f"degree must be an integer: {n!r}")
    if n <= 0:
        raise ValueError("degree must be at least 1")


def degree_mismatch(*degrees: int) -> ValueError:
    """The error for operands of different degrees, naming every degree."""
    return ValueError("degree mismatch: " + " vs ".join(map(str, degrees)))


class Permutation(tuple):
    """An element of the symmetric group S_n: the tuple of its images.
    It equals its plain images tuple and hashes and orders like it.

    The constructor validates.  Images that are a permutation of ``1..n``
    by construction are built unchecked with
    ``tuple.__new__(Permutation, images)``.
    """

    __slots__ = ()

    def __new__(cls, images: Iterable[int]):
        self = tuple.__new__(cls, images)
        n = len(self)
        _require_degree(n)
        if (any(type(v) is not int for v in self)
                or sorted(self) != list(range(1, n + 1))):
            raise ValueError(f"not a permutation of 1..{n}: {tuple(self)!r}")
        return self

    @property
    def n(self) -> int:
        return len(self)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        _require_degree(n)
        return tuple.__new__(cls, range(1, n + 1))

    @classmethod
    def from_text(cls, text: str) -> "Permutation":
        """Parse one-line text: digits for n <= 9 ("312"), else comma-separated.

        >>> Permutation.from_text("10,3,1,2,4,5,6,7,8,9").n
        10
        """
        text = text.strip()
        if not text:
            raise ValueError("empty permutation text")
        if "," in text:
            try:
                images = [int(part) for part in text.split(",")]
            except ValueError:
                raise ValueError(f"bad permutation text: {text!r}") from None
        else:
            if not text.isdecimal() or "0" in text:
                raise ValueError(f"bad permutation text: {text!r}")
            images = [int(ch) for ch in text]
        return cls(images)

    def to_text(self) -> str:
        """Inverse of :meth:`from_text`; comma-free only fits n <= 9."""
        return ("" if len(self) <= 9 else ",").join(map(str, self))

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self):
            raise ValueError(f"argument {i} outside 1..{len(self)}")
        return self[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        if len(self) != len(other):
            raise degree_mismatch(len(self), len(other))
        return tuple.__new__(Permutation, [self[v - 1] for v in other])

    def inverse(self) -> "Permutation":
        out = [0] * len(self)
        for i, v in enumerate(self, 1):
            out[v - 1] = i
        return tuple.__new__(Permutation, out)

    def length(self) -> int:
        """Coxeter length = number of inversions."""
        n = len(self)
        return sum(1 for h in range(n) for l in range(h + 1, n)
                   if self[l] < self[h])

    def __repr__(self) -> str:
        return f"Permutation({self.to_text()!r})"


def enumerate_group(n: int, max_degree: int | None = None) -> Iterator[Permutation]:
    """All of S_n in lexicographic one-line order.

    Refuses degrees above :data:`ORACLE_DEGREE_DEFAULT` unless ``max_degree``
    raises the bound explicitly; the order of the group grows as n!.
    """
    _require_degree(n)
    check_degree(n, max_degree, ORACLE_DEGREE_DEFAULT)
    return (tuple.__new__(Permutation, images)
            for images in itertools.permutations(range(1, n + 1)))


class _IntegerCombination:
    """A finite integer combination of equal-degree ``key_type`` keys.

    ``terms`` maps each key to a non-zero signed 64-bit coefficient; treat
    it as read-only.  Subclasses add ``key_type``, ``_multiply`` and text.
    The constructor validates, copies and drops zeros; producers whose
    dict is clean by construction build with :func:`_adopt` instead.  Sums
    are exact, and every result is range-checked once, on its extremes.
    """

    __slots__ = ("n", "terms")
    key_type: type

    def __new__(cls, n: int, terms: Mapping | None = None):
        _require_degree(n)
        clean = {}
        for key, coeff in (terms or {}).items():
            if not isinstance(key, cls.key_type):
                raise ValueError("terms must be keyed by "
                                 + cls.key_type.__name__)
            if key.n != n:
                raise ValueError(
                    f"degree mismatch: element of degree {n} cannot "
                    f"hold a key of degree {key.n}")
            if type(coeff) is not int:
                raise ValueError(
                    f"coefficients must be integers: {coeff!r}")
            if coeff:
                clean[key] = coeff
        check_coefficients(clean.values())
        return _adopt(cls, n, clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), (self.n, self.terms)

    def _combine(self, other, sign: int):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.n != other.n:
            raise degree_mismatch(self.n, other.n)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, 0) + sign * coeff
        if 0 in check_coefficients(terms.values()):
            terms = {key: c for key, c in terms.items() if c}
        return _adopt(type(self), self.n, terms)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._multiply(other)
        if isinstance(other, int):
            terms = ({k: c * other for k, c in self.terms.items()}
                     if other else {})
            check_coefficients(terms.values())
            return _adopt(type(self), self.n, terms)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, type(self))
                and self.n == other.n and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __len__(self) -> int:
        return len(self.terms)


def _adopt(cls: type, n: int, terms: dict) -> _IntegerCombination:
    """The ``cls`` element holding ``terms`` uncopied and unchecked: a
    fresh dict no one changes, with ``cls.key_type`` keys of degree n and
    non-zero in-range ``int`` coefficients, as the constructor leaves it."""
    self = object.__new__(cls)
    object.__setattr__(self, "n", n)
    object.__setattr__(self, "terms", terms)
    return self


class GroupAlgebraElement(_IntegerCombination):
    """A finite integer combination of equal-degree permutations."""

    __slots__ = ()
    key_type = Permutation

    def _multiply(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return algebra_multiply(self, other)

    def __repr__(self) -> str:
        parts = [f"{c}*{p.to_text()}" for p, c in sorted(self.terms.items())]
        if len(parts) > 8:
            parts = parts[:8] + [f"... ({len(self.terms)} terms)"]
        body = " + ".join(parts) if parts else "0"
        return f"GroupAlgebraElement({self.n}, {body})"


def algebra_multiply(a: GroupAlgebraElement,
                     b: GroupAlgebraElement) -> GroupAlgebraElement:
    """Bilinear product; the hot loop lives in the kernel backend."""
    if a.n != b.n:
        raise degree_mismatch(a.n, b.n)
    raw = backend.convolve(a.n, a.terms.items(), b.terms.items())
    terms = {tuple.__new__(Permutation, img): c for img, c in raw.items()}
    return _adopt(GroupAlgebraElement, a.n, terms)
