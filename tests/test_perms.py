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
from descents.backend import check_coefficient

from _oracles import bfs_lengths, naive_convolve


def test_identity_and_call():
    e = Permutation.identity(4)
    assert e == (1, 2, 3, 4)
    assert [e(i) for i in range(1, 5)] == [1, 2, 3, 4]


def test_constructor_rejects_non_permutations():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError):
        Permutation(())


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
    # explicit override allows it
    it = enumerate_group(8, max_degree=8)
    assert next(it) == tuple(range(1, 9))


def test_check_coefficient():
    assert check_coefficient(2**63 - 1) == 2**63 - 1
    assert check_coefficient(-(2**63)) == -(2**63)
    with pytest.raises(OverflowError):
        check_coefficient(2**63)
    with pytest.raises(OverflowError):
        check_coefficient(-(2**63) - 1)


def test_algebra_element_basics():
    zero = GroupAlgebraElement.zero(3)
    assert zero.is_zero()
    p = Permutation((2, 1, 3))
    a = GroupAlgebraElement.from_permutation(p, 3)
    assert a.coefficient(p) == 3
    assert a.coefficient(Permutation.identity(3)) == 0
    assert a.support() == [p]
    assert a + zero == a
    assert a - a == zero
    assert -a + a == zero
    assert 2 * a == a + a
    assert a * 0 == zero


def test_algebra_element_mixed_degree_rejected():
    a = GroupAlgebraElement.from_permutation(Permutation((2, 1)))
    b = GroupAlgebraElement.from_permutation(Permutation((2, 1, 3)))
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
        a = GroupAlgebraElement.zero(4)
        b = GroupAlgebraElement.zero(4)
        for im, c in a_items:
            a = a + c * GroupAlgebraElement.from_permutation(Permutation(im))
        for im, c in b_items:
            b = b + c * GroupAlgebraElement.from_permutation(Permutation(im))
        want = naive_convolve(a.terms.items(), b.terms.items())
        assert algebra_multiply(a, b).terms == want


def test_product_with_identity_and_associativity():
    rng = random.Random(3)
    group = list(enumerate_group(4))
    e = GroupAlgebraElement.from_permutation(Permutation.identity(4))
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
    big = GroupAlgebraElement.from_permutation(Permutation((2, 1)), 2**62)
    with pytest.raises(OverflowError):
        big * big
