"""States of a rank-one lattice Fock space, and the one representation
every computation with them runs on.

A basis monomial is h(-n_1)...h(-n_s) e^{q b} where h is the canonical
weight-one Heisenberg generator, b is the degree-8 lattice vector
(b = 2a with (a,a) = 2, h = a/sqrt2), and the charge q runs over the
grid (1/8)Z so that every module sector of interest fits in one space.
A monomial is the pair (degs, q8): degs is a descending tuple of
positive integers and q8 = 8q is an integer.  Its weight is
sum(n_i) + 4 q^2.

Packed keys.  A monomial is also one int, its packed key (`_pack`): the
low 8 bits hold q8 + 128, and each part d adds 1 << (8 + 6 (d - 1)), so
every part has a 6-bit count field (the packed exponent vectors of
Monagan and Pearce, CASC 2007).  Merging two monomials is one integer
addition, removing a part is one subtraction, and the multiplicity of
the part d is a shift and a mask.  A degree sum(d_i) of at most 63
bounds every part and every count by 63, so no field ever carries into
the next; a larger degree, or |q8| >= 128, raises KeyWidthError.

Coordinate planes.  A State's `packed` view is (den, planes): integer
maps {packed key: int}, one per basis element of the field, over one
common denominator, in a dict {basis index: plane} of the nonempty
planes only.  The planes are in the parity basis: the monomial with k
parts stands for sqrt2^(k mod 2) h(-d_1)...h(-d_k) e^{(q8/8) b}, a
rational multiple of the lattice monomial a(-d_1)...a(-d_k) e^{(q8/8) b}
(a = sqrt2 h, <a, a> = 2), so the coordinate of a monomial with an odd
number of parts is held divided by sqrt2 and every mode amplitude is
rational.  sqrt2 enters and leaves only where `_pack_terms` packs a
State's terms and `_coefficient` reads one key's field element.  The
planes of a State are trimmed (`_trim`): no zero entry, so a zero state
has no planes, and no factor common to the denominator and every entry,
so equal states have equal planes.  Every map from States to States
runs on them: the arithmetic of `State` (`_sum_planes`,
`_scale_planes`), the parts of `_split`, `theta`, `tau1`,
`linalg.Echelon` and the mode engine of `vertexengine`.  Other modules
read keys and planes only through the functions defined here.

This is the bottom data layer: it imports only `exactfield`.  So of the
paper's named vectors it holds only those written down as monomials
(`basic_vector`); the ones the mode engine builds, and the whole
catalog, are in `structure`.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .exactfield import (
    BASIS_MUL, I, ONE, SQRT2, SQRT3, SQRT6, Scalar, ZERO, _norm, rat, sc,
    sixth_root,
)


def to_q8(q):
    """Normalize a charge (multiple of 1/8) to its integer 8q form;
    raises TypeError on a float."""
    if isinstance(q, int):
        return 8 * q
    f = rat(q)
    e = f * 8
    if e.denominator != 1:
        raise ValueError("charge %s is not a multiple of 1/8" % q)
    return int(e)


def mono(degs, q8):
    return (tuple(sorted(degs, reverse=True)), q8)


def mono_weight(m):
    degs, q8 = m
    w16 = 16 * sum(degs) + q8 * q8  # the weight in sixteenths
    return w16 // 16 if w16 % 16 == 0 else Fraction(w16, 16)


def mono_str(m):
    degs, q8 = m
    ops = "".join("h(-%d)" % d for d in degs)
    if q8 == 0:
        ket = "|0>"
    else:
        ket = "|%sb>" % Fraction(q8, 8)
    return ops + ket


# --------------------------------------------------------------------------
# Packed monomial keys (module docstring).

MAX_DEGREE = 63
_QBIAS = 128
_SHIFT = (0,) + tuple(8 + 6 * (d - 1) for d in range(1, MAX_DEGREE + 1))
_PART = tuple(1 << s for s in _SHIFT)
_ODD = sum(_PART[1:])  # the low bit of every count field


class KeyWidthError(ValueError):
    """Raised when a monomial falls outside the packed key: a degree
    above MAX_DEGREE or a charge |q8| >= 128."""


def _check_width(deg, q8):
    if deg > MAX_DEGREE:
        raise KeyWidthError("monomial degree %d exceeds the packed key width"
                            " (at most %d)" % (deg, MAX_DEGREE))
    if not -_QBIAS < q8 < _QBIAS:
        raise KeyWidthError("charge %s is outside the packed key width"
                            " (|8q| < %d)" % (Fraction(q8, 8), _QBIAS))


def _check_parts(degs):
    if degs and degs[-1] < 1:
        raise KeyWidthError("part %d has no field in the packed key"
                            % degs[-1])


def _pack(degs, q8):
    """The packed key of the monomial (degs, q8), degs descending as in
    a State key; raises KeyWidthError if it does not fit."""
    _check_parts(degs)
    _check_width(sum(degs), q8)
    key = q8 + _QBIAS
    for d in degs:
        key += _PART[d]
    return key


def _parts(key):
    """[(d, multiplicity)] of the parts of a packed key, ascending in d."""
    out = []
    key >>= 8
    d = 1
    while key:
        m = key & 63
        if m:
            out.append((d, m))
        key >>= 6
        d += 1
    return out


def _charge(key):
    """The charge q8 of a packed key."""
    return (key & 255) - _QBIAS


def _conjugate(key):
    """The packed key of the same parts at the opposite charge -q8."""
    return key - 2 * _charge(key)


def _odd(key):
    """1 if the packed key has an odd number of parts, else 0."""
    return (key & _ODD).bit_count() & 1


def _unpack(key):
    """The monomial (degs, q8) of a packed key."""
    degs = []
    for d, m in reversed(_parts(key)):
        degs += [d] * m
    return tuple(degs), _charge(key)


# --------------------------------------------------------------------------
# Coordinate planes (module docstring).
#
# _ROUTE[k & 1][j] = (m, f): a coordinate on the basis element e_j of a
# monomial with k parts, times sqrt2^(k & 1), is f times a coordinate
# on e_m.  Multiplying by sqrt2 converts both ways, over a doubled
# denominator on the way in: a parity coordinate is c / sqrt2 =
# c sqrt2 / 2, and c is sqrt2 times it.
_ROUTE = (tuple((j, 1) for j in range(8)), BASIS_MUL[1])


def _pack_terms(terms):
    """The trimmed (den, planes) holding the terms {(degs, q8): Scalar}
    of a State: their parity-basis coordinates over their least common
    denominator, keyed by packed monomial, packed here and only here,
    when a State's `packed` is first read."""
    terms = [(len(degs) & 1, _pack(degs, q8), c)
             for (degs, q8), c in terms.items()]
    den = math.lcm(*[c.den << k1 for k1, _, c in terms])
    planes = {}
    for k1, key, c in terms:
        f = den // (c.den << k1)
        route = _ROUTE[k1]
        for j, x in enumerate(c.num):
            if x:
                m, g = route[j]
                planes.setdefault(m, {})[key] = x * f * g
    return _trim(den, planes)


def _coefficient(den, planes, key):
    """The field element on the packed key of the planes over den."""
    route = _ROUTE[_odd(key)]
    num = [0] * 8
    for j, plane in planes.items():
        m, g = route[j]
        num[m] = g * plane.get(key, 0)
    return _norm(tuple(num), den)


def _unpack_planes(den, planes):
    """The terms {(degs, q8): Scalar} of the state held by the planes
    over den, unpacked here when a packed State's terms are first read."""
    keys = dict.fromkeys(key for plane in planes.values() for key in plane)
    return {_unpack(key): _coefficient(den, planes, key) for key in keys}


def _split(v, key):
    """{key(k): the packed State part of v on the keys k with that key}."""
    den, planes = v.packed
    parts = {}
    for p, plane in planes.items():
        for k, c in plane.items():
            parts.setdefault(key(k), {}).setdefault(p, {})[k] = c
    return {g: State(packed=_trim(den, part)) for g, part in parts.items()}


def _trim(den, planes):
    """(den, planes) without zero entries, empty planes or a factor
    common to den and every entry: the form a packed State holds, and
    each step of an engine chain, so that a zero state has no planes."""
    out = {}
    g = den
    for p, plane in planes.items():
        plane = {key: c for key, c in plane.items() if c}
        if plane:
            out[p] = plane
            g = math.gcd(g, *plane.values())
    if g > 1:
        den //= g
        out = {p: {key: c // g for key, c in plane.items()}
               for p, plane in out.items()}
    return den, out


def _scale_planes(x, den, planes):
    """The trimmed (den, planes) holding x v, x a nonzero field element
    and v held by planes over den: a coordinate c on e_p and x_j on e_j
    give f c x_j on e_m, e_p e_j = f e_m (`BASIS_MUL`)."""
    out = {}
    for p, plane in planes.items():
        row = BASIS_MUL[p]
        for j, xj in enumerate(x.num):
            if xj:
                m, f = row[j]
                f *= xj
                into = out.setdefault(m, {})
                get = into.get
                for key, c in plane.items():
                    into[key] = get(key, 0) + f * c
    return _trim(den * x.den, out)


def _sum_planes(terms):
    """(den, planes) holding sum_j r_j v_j for the (r_j, planes_j) in
    terms, r_j rational and v_j held by planes_j over 1: one integer sum
    over the common denominator of the r_j; the planes may hold zeros."""
    den = math.lcm(*(r.denominator for r, _ in terms))
    acc = {}
    for r, planes in terms:
        f = r.numerator * (den // r.denominator)
        if f:
            for p, plane in planes.items():
                into = acc.setdefault(p, {})
                get = into.get
                for key, c in plane.items():
                    into[key] = get(key, 0) + c * f
    return den, acc


class State:
    """A finite K-linear combination of Fock monomials.

    A State has two views of one value, and keeps whichever it was made
    with: `terms` maps each monomial (degs, q8) to its nonzero Scalar
    coefficient, and `packed` is its trimmed integer coordinate planes
    (den, planes) (module docstring).  The other
    view is built on its first read and kept.  Every map from States to
    States (+, -, scaling, ==, the involutions, sigma, the engine) runs
    on the planes and returns a packed State: trimmed planes are unique
    to their state, and a monomial beyond the packed key width raises
    KeyWidthError there.  The terms are only read: no code writes into
    them or builds another State from them.  A State is a value that
    hashes by its trimmed planes, like ==, so caches take States as keys.
    """

    __slots__ = ("_terms", "_packed")

    def __init__(self, terms=None, packed=None):
        if terms is None and packed is None:
            terms = {}
        self._terms = terms
        self._packed = packed

    @property
    def terms(self):
        if self._terms is None:
            self._terms = _unpack_planes(*self._packed)
        return self._terms

    @property
    def packed(self):
        if self._packed is None:
            self._packed = _pack_terms(self._terms)
        return self._packed

    @classmethod
    def basis(cls, degs, q=0, coeff=ONE):
        coeff = sc(coeff) if not isinstance(coeff, Scalar) else coeff
        if not coeff:
            return cls()
        return cls({mono(degs, to_q8(q)): coeff})

    def __bool__(self):
        if self._packed is not None:
            return bool(self._packed[1])
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, State):
            return NotImplemented
        return self.packed == other.packed

    def __hash__(self):
        den, planes = self.packed
        return hash((den, frozenset((p, frozenset(plane.items()))
                                    for p, plane in planes.items())))

    def __add__(self, other):
        if not isinstance(other, State):
            return NotImplemented
        # a State never changes, so a sum with zero can be its other side
        if not self:
            return other
        return self._plus(other, 1)

    def __sub__(self, other):
        if not isinstance(other, State):
            return NotImplemented
        return self._plus(other, -1)

    def _plus(self, other, sign):
        """self + sign * other, sign = +-1, in one pass over the planes."""
        if not other:
            return self
        (d1, p1), (d2, p2) = self.packed, other.packed
        return State(packed=_trim(*_sum_planes(
            [(Fraction(1, d1), p1), (Fraction(sign, d2), p2)])))

    def __neg__(self):
        return self.scale(-ONE)

    def scale(self, s):
        s = sc(s) if not isinstance(s, Scalar) else s
        if not s:
            return State()
        return State(packed=_scale_planes(s, *self.packed))

    def __mul__(self, s):
        return self.scale(s)

    __rmul__ = __mul__

    def coefficient(self, degs, q=0):
        return self.terms.get(mono(degs, to_q8(q)), ZERO)

    def weight(self):
        """The common weight of all monomials; raises if inhomogeneous."""
        ws = {mono_weight(m) for m in self.terms}
        if not ws:
            return None
        if len(ws) > 1:
            raise ValueError("state is not weight homogeneous: %s" % sorted(map(Fraction, ws)))
        return ws.pop()

    def __str__(self):
        if not self.terms:
            return "0"
        def order(m):
            degs, q8 = m
            return (-q8, degs)
        parts = []
        for m in sorted(self.terms, key=order):
            c = self.terms[m]
            if c == ONE:
                t = mono_str(m)
            elif c == -ONE:
                t = "-" + mono_str(m)
            else:
                t = "(%s) %s" % (c, mono_str(m))
            parts.append(t)
        return " + ".join(parts)

    def __repr__(self):
        return "State<%s>" % self


VACUUM = State.basis(())


def ratio(w, v):
    """The scalar lam with w == v * lam, read off one coefficient of the
    nonzero state v (ValueError if v is zero), or None if there is none."""
    if not v:
        raise ValueError("ratio needs a nonzero state")
    m, c = next(iter(v.terms.items()))
    lam = w.terms.get(m, ZERO) * c.inv()
    return lam if w == v * lam else None


def theta(v):
    """The lift of the (-1)-isometry: h -> -h, e^{qb} -> e^{-qb}."""
    den, planes = v.packed
    return State(packed=(den, {
        p: {_conjugate(k): -c if _odd(k) else c for k, c in plane.items()}
        for p, plane in planes.items()}))


def tau1(v):
    """The sign involution e^{na} -> (-1)^n e^{na} fixing h.

    Defined on sectors whose charges are multiples of a = b/2, that is
    q8 divisible by 4.
    """
    den, planes = v.packed
    bad = [_charge(k) for plane in planes.values() for k in plane
           if _charge(k) % 4]
    if bad:
        raise ValueError("tau1 is undefined on charge %s" % Fraction(bad[0], 8))
    return State(packed=(den, {
        p: {k: -c if _charge(k) % 8 else c for k, c in plane.items()}
        for p, plane in planes.items()}))


def lattice_component(v, q):
    """The part of v supported on charges +q and -q (q >= 0)."""
    return _split(v, lambda key: abs(_charge(key))).get(abs(to_q8(q)), State())


def partitions(n, max_part=None, min_part=1):
    """Yield the partitions of n as descending tuples."""
    if n < 0:
        return
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, min_part - 1, -1):
        for rest in partitions(n - first, first, min_part):
            yield (first,) + rest


def basis_monomials(w, charges):
    """All monomials of weight w whose charge lies in the given list."""
    out = []
    w = rat(w)
    for q in charges:
        q8 = to_q8(q)
        rem = w - Fraction(q8 * q8, 16)
        if rem < 0 or rem.denominator != 1:
            continue
        for lam in partitions(int(rem)):
            out.append((lam, q8))
    return out


def sector_charges(name, w):
    """Charges of the named sector that can carry weight <= w."""
    grids = {
        "V_Zb": (8, 0), "V_L2": (4, 0), "V_L2+a/2": (4, 2),
        "V_Zb+1/8": (8, 1), "V_Zb+2/8": (8, 2), "V_Zb+3/8": (8, 3),
        "V_Zb+4/8": (8, 4), "V_Zb+5/8": (8, 5), "V_Zb+6/8": (8, 6),
        "V_Zb+7/8": (8, 7),
    }
    if name not in grids:
        raise ValueError("unknown sector %r" % name)
    step, off = grids[name]
    w = rat(w)
    hi = 0
    while Fraction(hi * hi, 16) <= w:
        hi += 1
    return [Fraction(q8, 8) for q8 in range(-hi, hi + 1)
            if (q8 - off) % step == 0 and Fraction(q8 * q8, 16) <= w]


# A full catalog run reads 223 bases, 26 of them distinct; the bound
# caps what library callers can add.
@functools.lru_cache(maxsize=128)
def graded_monomials(name, w):
    """The monomials of the named sector at weight w, as a tuple, listed
    once per (name, w): callers only read them."""
    return tuple(basis_monomials(w, sector_charges(name, w)))


def graded_states(name, w):
    return [State({m: ONE}) for m in graded_monomials(name, w)]


def theta_even_states(name, w):
    """A basis of the theta-fixed part of the named sector at weight w.

    On one-sided coset grids a reflection orbit may meet the grid in a
    single charge of either sign, so orbits are deduplicated by absolute
    charge rather than by skipping negative representatives.
    """
    monos = graded_monomials(name, w)
    have = set(monos)
    seen = set()
    out = []
    for m in monos:
        degs, q8 = m
        key = (degs, abs(q8))
        if key in seen:
            continue
        if q8 < 0 and (degs, -q8) in have:
            continue
        seen.add(key)
        v = State({m: ONE})
        if q8 == 0:
            if len(degs) % 2 == 0:
                out.append(v)
        else:
            out.append(v + theta(v))
    return out


# --------------------------------------------------------------------------
# The named vectors made from monomials alone; `structure.named_vector`
# adds the ones the mode engine builds.


def _half(x):
    return Fraction(x, 2)


@functools.cache
def _build_basic():
    one = VACUUM
    h = State.basis((1,))
    omega = State.basis((1, 1), 0, Fraction(1, 2))
    J = (State.basis((1, 1, 1, 1)) + State.basis((3, 1), 0, -2)
         + State.basis((2, 2), 0, Fraction(3, 2)))
    E = State.basis((), 1) + State.basis((), -1)
    F = State.basis((), 1) - State.basis((), -1)
    E2 = State.basis((), 2) + State.basis((), -2)
    s27i = SQRT3 * I * 3
    X1 = J - E * s27i
    X2 = J + E * s27i
    inv_r2 = SQRT2 * sc(Fraction(1, 2))
    x1 = h
    x2 = (State.basis((), _half(1)) + State.basis((), _half(-1))) * inv_r2
    x3 = (State.basis((), _half(1)) - State.basis((), _half(-1))) * (inv_r2 * I)
    inv_r3 = SQRT3 * sc(Fraction(1, 3))
    y1 = (x1 + x2 * sixth_root(2) + x3 * sixth_root(1)) * inv_r3
    y2 = (x1 + x2 * sixth_root(4) + x3 * sixth_root(5)) * inv_r3
    hprime = (x1 + x2 - x3) * (SQRT6 * sc(Fraction(1, 18)))
    # weight 1/4 sector: w1, w2 span the top of the charge b/4 module
    c1 = (SQRT3 - ONE) * (ONE + I) * sc(Fraction(1, 2))
    w1 = State.basis((), Fraction(1, 4)) + State.basis((), Fraction(-1, 4)) * c1
    w2 = (State.basis((), Fraction(1, 4)) * (SQRT3 - ONE)
          - State.basis((), Fraction(-1, 4)) * (ONE + I)) * inv_r2
    # the weight 9 generator: a pure lattice-charge combination
    u9_E = {(4, 1): -15, (3, 2): -10, (2, 1, 1, 1): -10}
    u9_F = {(5,): 6, (3, 1, 1): 10, (2, 2, 1): Fraction(15, 2), (1, 1, 1, 1, 1): 1}
    terms = {}
    for degs, c in u9_E.items():
        coeff = sc(Fraction(c, 1)) * inv_r2
        terms[mono(degs, 8)] = coeff
        terms[mono(degs, -8)] = coeff
    for degs, c in u9_F.items():
        coeff = sc(Fraction(c))
        terms[mono(degs, 8)] = coeff
        terms[mono(degs, -8)] = -coeff
    u9 = State(terms)
    return {
        "one": one, "h": h, "omega": omega, "J": J, "E": E, "F": F,
        "E2": E2, "X1": X1, "X2": X2, "x1": x1, "x2": x2, "x3": x3,
        "y1": y1, "y2": y2, "hprime": hprime, "w1": w1, "w2": w2, "u9": u9,
    }


def basic_vector(name):
    """A cataloged state built from monomials alone, by name; the
    catalog of all named vectors is `structure.named_vector`."""
    basic = _build_basic()
    if name not in basic:
        raise KeyError("no cataloged vector named %r" % name)
    return basic[name]
