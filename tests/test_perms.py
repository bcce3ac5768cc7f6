import itertools
import math
import random

import pytest

from descents import (
    GroupAlgebraElement,
    Permutation,
    algebra_multiply,
    enumerate_group,
)
from descents.backend import check_coefficients

from _oracles import bfs_lengths, naive_convolve


def test_identity_and_call():
    e = Permutation.identity(4)
    assert e == (1, 2, 3, 4)
    assert [e(i) for i in range(1, 5)] == [1, 2, 3, 4]
    with pytest.raises(ValueError, match=r"^argument 0 outside 1\.\.2$"):
        Permutation((2, 1))(0)


def test_constructor_rejects_non_permutations():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        Permutation(())
    with pytest.raises(ValueError, match="^degree must be at least 1$"):
        Permutation.identity(0)


def test_immutability():
    p = Permutation((2, 1, 3))
    with pytest.raises(AttributeError):
        p.n = 2


def test_text_round_trip_small():
    for images in itertools.permutations(range(1, 5)):
        p = Permutation(images)
        assert Permutation.from_text(p.to_text()) == p
    assert Permutation.from_text("2314") == (2, 3, 1, 4)


def test_text_round_trip_large_degree():
    p = Permutation(tuple(range(2, 12)) + (1,))
    text = p.to_text()
    assert "," in text
    assert Permutation.from_text(text) == p


def test_from_text_rejects_garbage():
    for bad in ("", "121", "1,2,x", "10"):
        with pytest.raises(ValueError):
            Permutation.from_text(bad)
    # a part that is no integer is named like a bad digit string
    for bad in ("1,2,x", "10"):
        with pytest.raises(ValueError,
                           match=f"^bad permutation text: '{bad}'$"):
            Permutation.from_text(bad)


def test_composition_convention():
    # (x * y)(i) == x(y(i)), checked pointwise over all of S_3 x S_3.
    for xi in itertools.permutations((1, 2, 3)):
        for yi in itertools.permutations((1, 2, 3)):
            x, y = Permutation(xi), Permutation(yi)
            z = x * y
            for i in range(1, 4):
                assert z(i) == x(y(i))
    # only x * y composes; int * x repeats the tuple, as on any tuple
    p = Permutation((2, 1))
    with pytest.raises(TypeError):
        p * 2
    assert 2 * p == (2, 1, 2, 1)


def test_inverse():
    rng = random.Random(7)
    for _ in range(50):
        images = list(range(1, 7))
        rng.shuffle(images)
        p = Permutation(images)
        assert p * p.inverse() == Permutation.identity(6)
        assert p.inverse() * p == Permutation.identity(6)


def test_length_matches_bfs_distance():
    # Inversion count agrees with word length in adjacent transpositions.
    for n in range(1, 6):
        dist = bfs_lengths(n)
        for images, d in dist.items():
            assert Permutation(images).length() == d


def test_enumerate_group_order_and_size():
    for n in range(1, 6):
        group = list(enumerate_group(n))
        assert len(group) == math.factorial(n)
        assert group == sorted(group)
        assert len(set(group)) == len(group)


def test_enumerate_group_bound():
    with pytest.raises(ValueError):
        list(enumerate_group(8))
    with pytest.raises(ValueError, match="^degree must be at least 1$"):
        list(enumerate_group(0))
    # explicit override allows it
    it = enumerate_group(8, max_degree=8)
    assert next(it) == tuple(range(1, 9))


def test_check_coefficient():
    # the one int64 guard: both ends pass, one past either end raises,
    # and the values come back as they were given
    low, high = -(2**63), 2**63 - 1
    for values in ([high], [low], [low, high], [], [3, -5, 0, high, low]):
        assert check_coefficients(values) is values
    for values in ([high + 1], [low - 1], [0, high + 1, 1], [low - 1, 7]):
        with pytest.raises(OverflowError,
                           match="^coefficient exceeds signed 64-bit range$"):
            check_coefficients(values)


def test_algebra_element_basics():
    zero = GroupAlgebraElement(3)
    assert not zero
    p = Permutation((2, 1, 3))
    a = GroupAlgebraElement(p.n, {p: 3})
    assert a.terms.get(p, 0) == 3
    assert a.terms.get(Permutation.identity(3), 0) == 0
    assert sorted(a.terms) == [p]
    assert a + zero == a
    assert a - a == zero
    assert -a + a == zero
    assert 2 * a == a + a
    assert a * 0 == zero


def test_algebra_element_mixed_degree_rejected():
    a = GroupAlgebraElement(2, {Permutation((2, 1)): 1})
    b = GroupAlgebraElement(3, {Permutation((2, 1, 3)): 1})
    with pytest.raises(ValueError, match="^degree mismatch: 2 vs 3$"):
        a + b
    with pytest.raises(ValueError, match="^degree mismatch: 2 vs 3$"):
        a * b
    with pytest.raises(ValueError, match="^degree mismatch: 2 vs 3$"):
        Permutation((2, 1)) * Permutation((2, 1, 3))


def test_product_matches_naive_convolution():
    rng = random.Random(11)
    group4 = list(enumerate_group(4))
    for _ in range(25):
        a_items = [(rng.choice(group4), rng.randint(-5, 5)) for _ in range(6)]
        b_items = [(rng.choice(group4), rng.randint(-5, 5)) for _ in range(6)]
        # build via addition so duplicate picks accumulate
        a = GroupAlgebraElement(4)
        b = GroupAlgebraElement(4)
        for im, c in a_items:
            a = a + c * GroupAlgebraElement(4, {Permutation(im): 1})
        for im, c in b_items:
            b = b + c * GroupAlgebraElement(4, {Permutation(im): 1})
        want = naive_convolve(a.terms.items(), b.terms.items())
        assert algebra_multiply(a, b).terms == want


def test_product_with_identity_and_associativity():
    rng = random.Random(3)
    group = list(enumerate_group(4))
    e = GroupAlgebraElement(4, {Permutation.identity(4): 1})
    for _ in range(10):
        a = GroupAlgebraElement(
            4, {rng.choice(group): rng.randint(-3, 3) for _ in range(4)})
        b = GroupAlgebraElement(
            4, {rng.choice(group): rng.randint(-3, 3) for _ in range(4)})
        c = GroupAlgebraElement(
            4, {rng.choice(group): rng.randint(-3, 3) for _ in range(4)})
        assert a * e == a
        assert e * a == a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_product_overflow_detected():
    big = GroupAlgebraElement(2, {Permutation((2, 1)): 2**62})
    with pytest.raises(OverflowError):
        big * big
