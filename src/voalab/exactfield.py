"""Exact arithmetic in the number field Q(i, sqrt2, sqrt3).

Every quantity that appears in the structure constants of the lattice
vertex algebra lives in the degree-8 field Q(i, sqrt2, sqrt3).  A field
element is stored as 8 integer numerators over one shared positive
denominator, in the basis

    1, sqrt2, sqrt3, sqrt6, i, sqrt2*i, sqrt3*i, sqrt6*i

in that order.  The pair is kept normalised (no common factor of the
denominator and all eight numerators), so equal elements have equal
storage and all arithmetic runs on plain Python integers.  `Scalar.co`
gives the same element as 8 reduced `fractions.Fraction` coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# The rational type of `rat` and of the coordinates in `Scalar.co`.
RAT = Fraction

# Multiplication of the radical parts {1, sqrt2, sqrt3, sqrt6}: entry
# (p, q) -> (r, f) meaning basis_p * basis_q = f * basis_r.
_RMUL = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, 2), (3, 1), (2, 2)),
    ((2, 1), (3, 1), (0, 3), (1, 3)),
    ((3, 1), (2, 2), (1, 3), (0, 6)),
)

# Full 8x8 table including the imaginary flag: index = radical + 4*imag.
# BASIS_MUL[p][q] = (m, f) means basis_p * basis_q = f * basis_m.
BASIS_MUL = tuple(
    tuple(
        (
            _RMUL[p % 4][q % 4][0] + 4 * ((p // 4 + q // 4) % 2),
            -_RMUL[p % 4][q % 4][1] if (p // 4 and q // 4) else _RMUL[p % 4][q % 4][1],
        )
        for q in range(8)
    )
    for p in range(8)
)

_LABELS = ("", "√2", "√3", "√6", "i", "√2·i", "√3·i", "√6·i")

_Z8 = (0,) * 8
_new = object.__new__


def rat(x):
    """Coerce an int, Fraction or ratio string to the rational type."""
    if isinstance(x, float):
        raise TypeError("refusing to build an exact rational from a float")
    return RAT(x)


def _raw(num, den):
    """A Scalar from numerators and a denominator already normalised."""
    s = _new(Scalar)
    s.num = num
    s.den = den
    return s


def _norm(num, den):
    """A Scalar from a tuple of 8 integer numerators over a nonzero
    denominator."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = tuple([x // g for x in num])
        den //= g
    return _raw(num, den)


class Scalar:
    """An element of Q(i, sqrt2, sqrt3): 8 integer numerators `num`
    over one positive denominator `den`, normalised."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = tuple(num)
        if len(num) != 8:
            raise ValueError("Scalar needs exactly 8 coordinates")
        if not den:
            raise ZeroDivisionError("Scalar with zero denominator")
        s = _norm(num, den)
        self.num = s.num
        self.den = s.den

    @classmethod
    def from_rat(cls, x):
        if type(x) is int:
            return _raw((x, 0, 0, 0, 0, 0, 0, 0), 1)
        x = rat(x)
        return _raw((x.numerator, 0, 0, 0, 0, 0, 0, 0), x.denominator)

    @property
    def co(self):
        """The 8 coordinates as reduced Fractions."""
        d = self.den
        return tuple([Fraction(x, d) for x in self.num])

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            return self + sc(other) if isinstance(other, _OPERAND) else NotImplemented
        a, b = self.num, other.num
        d1, d2 = self.den, other.den
        if d1 == d2:
            num = (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3],
                   a[4] + b[4], a[5] + b[5], a[6] + b[6], a[7] + b[7])
            return _norm(num, d1) if d1 != 1 else _raw(num, 1)
        g = gcd(d1, d2)
        f1, f2 = d2 // g, d1 // g
        num = (a[0] * f1 + b[0] * f2, a[1] * f1 + b[1] * f2,
               a[2] * f1 + b[2] * f2, a[3] * f1 + b[3] * f2,
               a[4] * f1 + b[4] * f2, a[5] * f1 + b[5] * f2,
               a[6] * f1 + b[6] * f2, a[7] * f1 + b[7] * f2)
        return _norm(num, d1 * f1) if g != 1 else _raw(num, d1 * f1)

    __radd__ = __add__

    def __neg__(self):
        a = self.num
        return _raw((-a[0], -a[1], -a[2], -a[3], -a[4], -a[5], -a[6], -a[7]),
                    self.den)

    def __sub__(self, other):
        return self + -other if isinstance(other, _OPERAND) else NotImplemented

    def __rsub__(self, other):
        return -self + other if isinstance(other, _OPERAND) else NotImplemented

    def __mul__(self, other):
        if type(other) is not Scalar:
            return self * sc(other) if isinstance(other, _OPERAND) else NotImplemented
        a, b = self.num, other.num
        if not (b[1] or b[2] or b[3] or b[4] or b[5] or b[6] or b[7]):
            a, b = b, a
        if not (a[1] or a[2] or a[3] or a[4] or a[5] or a[6] or a[7]):
            # a rational factor scales every coordinate
            r = a[0]
            return _norm((r * b[0], r * b[1], r * b[2], r * b[3],
                          r * b[4], r * b[5], r * b[6], r * b[7]),
                         self.den * other.den)
        out = [0] * 8
        bq = [(q, y) for q, y in enumerate(b) if y]
        for p, x in enumerate(a):
            if not x:
                continue
            row = BASIS_MUL[p]
            for q, y in bq:
                m, f = row[q]
                out[m] += x * y * f
        return _norm(tuple(out), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        result, base = ONE, self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def mul_rat_sqrt2(self, r, e):
        """self * r * sqrt2**e in one pass, for rational r and int e,
        building no intermediate field elements.  `sqrt2_power`,
        `vertexengine._mode_ops` and the tests' per-contribution oracle of
        the mode engine use it.
        """
        if type(r) is int:
            rn, rd = r, 1
        else:
            r = rat(r)
            rn, rd = r.numerator, r.denominator
        sh = e >> 1
        if sh >= 0:
            rn <<= sh
        else:
            rd <<= -sh
        a = self.num
        if e & 1:
            r2 = rn + rn
            num = (r2 * a[1], rn * a[0], r2 * a[3], rn * a[2],
                   r2 * a[5], rn * a[4], r2 * a[7], rn * a[6])
        else:
            num = (rn * a[0], rn * a[1], rn * a[2], rn * a[3],
                   rn * a[4], rn * a[5], rn * a[6], rn * a[7])
        return _norm(num, self.den * rd)

    def inv(self):
        """Multiplicative inverse via successive conjugations."""
        if not self:
            raise ZeroDivisionError("inverting zero field element")
        a_bar = self.conj_i()
        b = self * a_bar
        b_bar = b.conj_sqrt2()
        c = b * b_bar
        c_bar = c.conj_sqrt3()
        d = c * c_bar
        if not d.is_rational():
            raise ArithmeticError("norm tower failed to land in Q")
        num = a_bar * b_bar * c_bar
        # the inverse is num / d, and d = d.num[0] / d.den is rational
        return _norm(tuple([x * d.den for x in num.num]), num.den * d.num[0])

    def __truediv__(self, other):
        return self * sc(other).inv() if isinstance(other, _OPERAND) else NotImplemented

    def __rtruediv__(self, other):
        return self.inv() * other if isinstance(other, _OPERAND) else NotImplemented

    # -- conjugations ---------------------------------------------------

    def conj_i(self):
        a = self.num
        return _raw((a[0], a[1], a[2], a[3], -a[4], -a[5], -a[6], -a[7]), self.den)

    def conj_sqrt2(self):
        a = self.num
        return _raw((a[0], -a[1], a[2], -a[3], a[4], -a[5], a[6], -a[7]), self.den)

    def conj_sqrt3(self):
        a = self.num
        return _raw((a[0], a[1], -a[2], -a[3], a[4], a[5], -a[6], -a[7]), self.den)

    # -- predicates and conversions --------------------------------------

    def __bool__(self):
        return self.num != _Z8

    def __eq__(self, other):
        if type(other) is not Scalar:
            return self == sc(other) if isinstance(other, _OPERAND) else NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        # Rational elements hash like the rational they equal.
        if self.is_rational():
            n = self.num[0]
            return hash(n) if self.den == 1 else hash(Fraction(n, self.den))
        return hash((self.num, self.den))

    def is_rational(self):
        a = self.num
        return not (a[1] or a[2] or a[3] or a[4] or a[5] or a[6] or a[7])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError("not a rational number: %s" % self)
        return Fraction(self.num[0], self.den)

    # -- rendering --------------------------------------------------------

    def __str__(self):
        parts = []
        d = self.den
        for k, x in enumerate(self.num):
            if not x:
                continue
            # |x| / d in lowest terms, written as a Fraction writes it
            g = gcd(x, d)
            p, q = abs(x) // g, d // g
            mag = str(p) if q == 1 else "%d/%d" % (p, q)
            label = _LABELS[k]
            if not label:
                body = mag
            elif p == q:
                body = label
            elif q == 1:
                body = mag + label
            else:
                body = "(%s)%s" % (mag, label)
            if not parts:
                parts.append(("-" if x < 0 else "") + body)
            else:
                parts.append((" - " if x < 0 else " + ") + body)
        return "".join(parts) if parts else "0"

    def __repr__(self):
        return "Scalar(%s)" % self


# The other operands of a binary operator; on any other it returns
# NotImplemented, so Python tries that operand's method (State.__rmul__).
_OPERAND = (Scalar, int, Fraction)


def sc(x):
    """Build a Scalar from an int or a Fraction (a Scalar is returned
    as it is); raises TypeError on any other type."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.from_rat(x)
    raise TypeError("cannot coerce %r to Scalar" % (x,))


ZERO = Scalar.from_rat(0)
ONE = Scalar.from_rat(1)
SQRT2 = _raw((0, 1, 0, 0, 0, 0, 0, 0), 1)
SQRT3 = _raw((0, 0, 1, 0, 0, 0, 0, 0), 1)
SQRT6 = _raw((0, 0, 0, 1, 0, 0, 0, 0), 1)
I = _raw((0, 0, 0, 0, 1, 0, 0, 0), 1)
HALF = Scalar.from_rat(Fraction(1, 2))
ZETA3 = _raw((-1, 0, 0, 0, 0, 0, 1, 0), 2)
ZETA6 = _raw((1, 0, 0, 0, 0, 0, 1, 0), 2)

_SIXTH = (ONE, ZETA6, ZETA3, -ONE, -ZETA6, -ZETA3)


def sixth_root(k):
    """zeta6**k for the principal sixth root of unity zeta6 = e^{pi i/3}."""
    return _SIXTH[k % 6]


def exp_two_pi_i(lam):
    """e^{2 pi i lam} for a rational lam with denominator dividing 6."""
    lam = rat(lam)
    six = lam * 6
    if six.denominator != 1:
        raise ValueError("eigenvalue %s is not in (1/6)Z" % lam)
    return sixth_root(int(six))


def sqrt2_power(e):
    """sqrt2**e for an integer e (possibly negative)."""
    return ONE.mul_rat_sqrt2(1, e)


def as_rational(a):
    return sc(a).as_rational()
