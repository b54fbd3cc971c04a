"""The exact coefficient field: ring axioms, roots, and inversion."""

import math
import random
from fractions import Fraction

import pytest

from voalab.exactfield import (
    BASIS_MUL, I, ONE, SQRT2, SQRT3, SQRT6, ZERO, Scalar, as_rational,
    exp_two_pi_i, rat, sc, sixth_root, sqrt2_power,
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


def test_basis_mul_matches_field_products():
    # e_p = sqrt(r) i^s with r = (1, 2, 3, 6)[p % 4] and s = p // 4
    radicands = (1, 2, 3, 6)
    unit = [Scalar([int(j == p) for j in range(8)]) for p in range(8)]
    assert unit == list(BASIS)
    for p in range(8):
        for q in range(8):
            m, f = BASIS_MUL[p][q]
            assert unit[p] * unit[q] == f * unit[m]
            # the table on its own: sqrt(r_p r_q) = |f| sqrt(r_m), i i = -1
            assert radicands[p % 4] * radicands[q % 4] == f * f * radicands[m % 4]
            assert m // 4 == (p // 4) ^ (q // 4)
            assert (f < 0) == (p >= 4 and q >= 4)
    assert BASIS_MUL[4][4] == (0, -1) and I * I == -ONE
    assert BASIS_MUL[5][6] == (3, -1) and (SQRT2 * I) * (SQRT3 * I) == -SQRT6


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
    assert sc(5).is_rational()
    assert as_rational(sc(Fraction(5, 3))) == Fraction(5, 3)
    assert not sqrt2_power(1).is_rational()
    with pytest.raises(Exception):
        as_rational(sqrt2_power(1))
    assert rat(3) == Fraction(3)


def test_scalar_str_is_stable():
    assert str(sc(5400)) == "5400"
    assert "2" in str(sqrt2_power(1))


# An independent model of the field: Q(i, sqrt2, sqrt3) is Q(zeta) for
# zeta a primitive 24th root of unity, held as rational polynomials in
# zeta modulo Phi_24 = x^8 - x^4 + 1, with i = zeta^6,
# sqrt2 = zeta^3 + zeta^21 and sqrt3 = zeta^2 + zeta^22.


def _cyc_mul(a, b):
    out = [Fraction(0)] * 15
    for j, x in enumerate(a):
        for k, y in enumerate(b):
            out[j + k] += x * y
    for d in range(14, 7, -1):  # x^8 = x^4 - 1
        out[d - 4] += out[d]
        out[d - 8] -= out[d]
    return out[:8]


def _zeta(*powers):
    """The sum of zeta**p over the given powers."""
    out = [Fraction(0)] * 8
    for p in powers:
        z = [Fraction(1)] + [Fraction(0)] * 7
        for _ in range(p % 24):
            z = _cyc_mul(z, [0, 1, 0, 0, 0, 0, 0, 0])
        out = [x + y for x, y in zip(out, z)]
    return out


_R2, _R3, _I = _zeta(3, 21), _zeta(2, 22), _zeta(6)
_R6 = _cyc_mul(_R2, _R3)
_CYC_BASIS = (_zeta(0), _R2, _R3, _R6, _I, _cyc_mul(_R2, _I),
              _cyc_mul(_R3, _I), _cyc_mul(_R6, _I))


def _cyc(x):
    """The Scalar x as a polynomial in zeta, read off its coordinates."""
    out = [Fraction(0)] * 8
    for c, b in zip(x.co, _CYC_BASIS):
        out = [o + c * y for o, y in zip(out, b)]
    return out


def test_field_matches_the_cyclotomic_model():
    for gen, square in ((_R2, 2), (_R3, 3), (_I, -1)):
        assert _cyc_mul(gen, gen) == [square] + [0] * 7
    rng = random.Random(2024)
    elems = [Scalar([rng.choice((0, rng.randint(-9, 9))) for _ in range(8)],
                    rng.randint(1, 12)) for _ in range(40)]
    pairs = [(a, b) for a in BASIS for b in BASIS]
    pairs += [(a, rng.choice(elems)) for a in elems]
    for a, b in pairs:
        assert _cyc(a * b) == _cyc_mul(_cyc(a), _cyc(b))
    for a in elems:
        if a:
            assert _cyc_mul(_cyc(a), _cyc(a.inv())) == _zeta(0)
    for k in range(-6, 12):
        assert _cyc(sixth_root(k)) == _zeta(4 * k)
        assert _cyc(exp_two_pi_i(Fraction(k, 6))) == _zeta(4 * k)
