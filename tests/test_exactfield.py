"""The exact coefficient field: ring axioms, roots, and inversion."""

import math
import random
from fractions import Fraction

import pytest

from voalab.exactfield import (
    I, ONE, SQRT2, SQRT3, SQRT6, ZERO, as_rational, exp_two_pi_i,
    from_basis_products, is_rational, rat, sc, sixth_root, sqrt2_power,
)

BASIS = (ONE, SQRT2, SQRT3, SQRT6, I, SQRT2 * I, SQRT3 * I, SQRT6 * I)


def random_scalar(rng):
    acc = ZERO
    for _ in range(rng.randint(1, 3)):
        base = sqrt2_power(rng.randint(0, 3)) * sixth_root(rng.randint(0, 5))
        acc = acc + base * sc(Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
    return acc


def assert_normalised_coords(x):
    co = x.co
    assert len(co) == 8
    assert all(type(c) is Fraction for c in co)
    assert all(c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1
               for c in co)
    assert sum((sc(c) * b for c, b in zip(co, BASIS)), ZERO) == x


def test_from_basis_products_matches_field_products():
    for p, a in enumerate(BASIS):
        for q, b in enumerate(BASIS):
            assert from_basis_products([(p, q, 3)], 2) == a * b * sc(Fraction(3, 2))
    # sqrt2 * sqrt2 cancels the rational term; the result is normalised
    assert from_basis_products([(1, 1, 1), (0, 0, -2), (4, 0, 6)], 4) == I * sc(Fraction(3, 2))
    assert from_basis_products([], 1) == ZERO


def test_basic_constants():
    assert ONE == sc(1)
    assert ZERO == sc(0)
    assert sc(Fraction(3, 7)) + sc(Fraction(4, 7)) == ONE
    assert sqrt2_power(0) == ONE
    assert sqrt2_power(2) == sc(2)
    assert sqrt2_power(1) * sqrt2_power(1) == sc(2)
    assert sqrt2_power(-1) * sqrt2_power(3) == sc(2)


def test_sixth_roots():
    z = sixth_root(1)
    acc = ONE
    for _ in range(6):
        acc = acc * z
    assert acc == ONE
    assert sixth_root(3) == -ONE
    assert sixth_root(2) * sixth_root(4) == ONE
    # the primitive cube root satisfies 1 + w + w^2 = 0
    w = sixth_root(2)
    assert ONE + w + w * w == ZERO


def test_exp_two_pi_i():
    assert exp_two_pi_i(Fraction(1, 6)) == sixth_root(1)
    assert exp_two_pi_i(Fraction(1, 3)) == sixth_root(2)
    assert exp_two_pi_i(Fraction(1, 2)) == -ONE
    assert exp_two_pi_i(Fraction(7, 6)) == sixth_root(1)
    with pytest.raises(ValueError):
        exp_two_pi_i(Fraction(1, 4))
    assert I * I == -ONE


def test_surd_products():
    r2 = sqrt2_power(1)
    assert (ONE + r2) * (ONE - r2) == -ONE
    # sqrt 3 out of the sixth root: zeta6 - zeta6^-1 = sqrt(3) i
    r3i = sixth_root(1) - sixth_root(5)
    assert r3i * r3i == sc(-3)
    r6i = r2 * r3i
    assert r6i * r6i == sc(-6)


def test_ring_axioms_random():
    rng = random.Random(20240815)
    for _ in range(60):
        a, b, c = (random_scalar(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        # equal elements built by different routes hash equal
        assert hash(a * (b + c)) == hash(a * b + a * c)
        assert hash((a * b) * c) == hash(c * (b * a))
        assert (a * (b + c)).co == (a * b + a * c).co
        assert_normalised_coords(a * (b + c))


def test_inverse_random():
    rng = random.Random(77)
    seen = 0
    while seen < 25:
        a = random_scalar(rng)
        if a == ZERO:
            continue
        seen += 1
        assert a * a.inv() == ONE
        assert a.inv() * a == ONE
        assert hash(a * a.inv()) == hash(ONE) == hash(1)
        assert hash(a.inv().inv()) == hash(a)
        assert (a * a.inv()).co == (1, 0, 0, 0, 0, 0, 0, 0)
        assert_normalised_coords(a.inv())


def test_rationality():
    assert is_rational(sc(5))
    assert as_rational(sc(Fraction(5, 3))) == Fraction(5, 3)
    assert not is_rational(sqrt2_power(1))
    with pytest.raises(Exception):
        as_rational(sqrt2_power(1))
    assert rat(3) == Fraction(3)


def test_scalar_str_is_stable():
    assert str(sc(5400)) == "5400"
    assert "2" in str(sqrt2_power(1))
