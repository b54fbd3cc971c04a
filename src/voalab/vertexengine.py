"""Mode actions of lattice vertex operators, exactly.

The central routine is `mode_apply(u, n, v)`: the n-th mode of the
vertex operator attached to u, applied to v.  Operators are built from
normally ordered products of derivative Heisenberg fields against a
lattice exponential, with all lattice two-cocycle values taken to be 1
(consistent here because every charge pairing that occurs is even).

For efficiency the expansion of one monomial pair runs on integers.
`_pair_modes` returns it as (den, even, odd): two integer maps keyed by
the output monomial (degs, q8 + a8) over one positive denominator, the
amplitude being (even + sqrt2 odd) / den (the even part of each power
of sqrt2 is folded into the integer).  `mode_apply` sums those integers,
times the integer coordinates of the pair coefficients, on 8 coordinate
planes {monomial: int} (one per basis element of the field) over one
common denominator, and builds one field element per output monomial
at the very end.  The creation-side combinatorics are memoized
independently of the lattice charge.

`exp_charge_mode(a8, x, v)` computes exp(x e^{(a8/8) b}(0)) v, the
nilpotent exponentials of the order-3 symmetry, keeping the whole series
on coordinate planes and building one State at the end; the series of
`mode_apply` calls is its test oracle.

Virasoro modes skip the general expansion: `virasoro_mode` applies the
free-field form L(n) = (1/2) sum_j :h(j) h(n-j): straight to each Fock
monomial, with h(0) acting on e^{(q8/8) b} by p = sqrt2 q8 / 4, and
sums through the same integer accumulation.  The general route
`mode_apply(omega, n + 1, v)` is its test oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactfield import BASIS_MUL, Scalar, exp_two_pi_i, rat, sc
from .fockspace import State, mono_weight, named_vector, partitions, theta
from .linalg import Echelon


class ModeLegalityError(ValueError):
    """Raised when no charge pairing admits the requested mode index."""


def ModeIndex(n):
    """Normalize a mode index to an int or a Fraction; raises TypeError
    on a float."""
    if isinstance(n, int):
        return n
    f = rat(n)
    return int(f) if f.denominator == 1 else f


# --------------------------------------------------------------------------
# Creation-side combinatorics, independent of the lattice charge.
#
# All amplitudes are integers over a known denominator.  The weight
# 1/prod_k (k^{j_k} j_k!) of a partition of c is c!/prod_k (k^{j_k} j_k!)
# over c!, and that numerator is an integer (it counts the permutations
# of cycle type lam), so creation coefficients at degree c live over c!.

_EMINUS = {}
_CREATION = {}


def _eminus(c):
    """Partitions lam of c with weights prod_k 1/(k^{j_k} j_k!), each
    given as an integer numerator over c!."""
    hit = _EMINUS.get(c)
    if hit is not None:
        return hit
    out = []
    for lam in partitions(c):
        denom = 1
        for d, run in _counts(lam).items():
            denom *= d ** run * math.factorial(run)
        out.append((lam, len(lam), math.factorial(c) // denom))
    _EMINUS[c] = out
    return out


def _creation(pending, c_target):
    """Ways to realize total creation degree c_target.

    pending: ascending tuple of derivative orders n_i assigned to the
    creation channel; each picks a degree k_i >= n_i with coefficient
    binom(k_i - 1, n_i - 1), and the remainder becomes an exponential
    cloud partition.  Returns a dict (degrees, cloud_size) -> integer
    numerator over c_target!.
    """
    key = (pending, c_target)
    hit = _CREATION.get(key)
    if hit is not None:
        return hit
    out = {}
    if not pending:
        for lam, s, coeff in _eminus(c_target):
            k = (lam, s)
            out[k] = out.get(k, 0) + coeff
    else:
        n0 = pending[0]
        rest = pending[1:]
        min_rest = sum(rest)
        for k in range(n0, c_target - min_rest + 1):
            # binom(k-1, n0-1), rescaled from (c_target-k)! to c_target!
            f = math.comb(k - 1, n0 - 1) * math.perm(c_target, k)
            if not f:
                continue
            for (degs, s), c in _creation(rest, c_target - k).items():
                degs2 = tuple(sorted(degs + (k,), reverse=True))
                k2 = (degs2, s)
                out[k2] = out.get(k2, 0) + f * c
    _CREATION[key] = out
    return out


def _counts(degs):
    out = {}
    for d in degs:
        out[d] = out.get(d, 0) + 1
    return out


# Pure exponential operators (no derivative fields) recur constantly in
# zero-mode iterations over a fixed weight space, so their expansions
# are worth caching across calls.
_PURE_EXP = {}


def _pair_modes(udegs, a8, vdegs, q8, n):
    """All output contributions of one monomial pair, or None if the
    mode index is incompatible with the charge pairing.

    Returns (den, even, odd): even and odd map each output monomial
    (degs, q8 + a8) to a nonzero integer, and the pair contributes
    (even + sqrt2 odd) / den there, over one positive denominator den.
    The caller supplies the monomial coefficients.

    Every factor of the charge pairings 2a = a8/4 and 2q = q8/4 raises
    the sqrt2 exponent e by one, so the running amplitude is an integer
    over 4^e; the creation coefficients add the denominator c!.
    """
    # The lowest creation degree is c0 = -n - 1 - a8 q8 / 8.
    if type(n) is int:
        c0, frac = divmod(-8 * (n + 1) - a8 * q8, 8)
        if frac:
            return None
    else:
        c0f = -n - 1 - Fraction(a8 * q8, 8)
        if c0f.denominator != 1:
            return None
        c0 = int(c0f)
    memo_key = None
    if not udegs:
        memo_key = (a8, vdegs, q8, n)
        hit = _PURE_EXP.get(memo_key)
        if hit is not None:
            return hit
    vcounts = _counts(vdegs)
    distinct = sorted(vcounts)

    # Phase one: contractions of the charge exponential with v's modes.
    branches = [((), 1, 0, 0)]  # (removed counts, amp, e2, cshift)
    for d in distinct:
        m = vcounts[d]
        jmax = m if a8 else 0
        nxt = []
        for removed, amp, e2, csh in branches:
            for j in range(jmax + 1):
                f = math.comb(m, j) * (-a8) ** j
                nxt.append((removed + (j,), amp * f, e2 + j, csh + d * j))
        branches = nxt

    # Phase two: route each derivative field of u through one channel.
    states = {}
    for removed, amp0, e20, csh0 in branches:
        rem0 = []
        for d, j in zip(distinct, removed):
            rem0.extend([d] * (vcounts[d] - j))
        key = (tuple(sorted(rem0, reverse=True)), (), csh0 + c0, e20)
        states[key] = states.get(key, 0) + amp0
    for ni in udegs:
        sgn = -1 if (ni - 1) % 2 else 1
        nxt = {}
        for (rem, pend, csh, e2), amp in states.items():
            key = (rem, tuple(sorted(pend + (ni,))), csh, e2)
            nxt[key] = nxt.get(key, 0) + amp
            if q8:
                key = (rem, pend, csh + ni, e2 + 1)
                nxt[key] = nxt.get(key, 0) + amp * sgn * q8
            seen = None
            for pos, d in enumerate(rem):
                if d == seen:
                    continue
                seen = d
                f = sgn * math.comb(d + ni - 1, ni - 1) * d * rem.count(d)
                key = (rem[:pos] + rem[pos + 1:], pend, csh + d + ni, e2)
                nxt[key] = nxt.get(key, 0) + amp * f
        states = nxt

    # Phase three: fill in creation modes and the exponential cloud.  A
    # contribution at sqrt2 exponent e and creation degree c is an
    # integer over 4^e c!; bring them all over 4^emax cmax!, where
    # sqrt2^e = 2^(e >> 1) sqrt2^(e & 1) leaves at most one sqrt2.
    live = [(rem, pend, csh + sum(pend), e2, amp)
            for (rem, pend, csh, e2), amp in states.items()
            if amp and csh + sum(pend) >= 0]
    q8out = q8 + a8
    even, odd = {}, {}
    if live:
        cmax = max(t[2] for t in live)
        emax = max(t[3] for t in live) + (cmax if a8 else 0)
        for rem, pend, c_target, e2, amp in live:
            amp *= math.perm(cmax, cmax - c_target)
            for (extra, s), cx in _creation(pend, c_target).items():
                if s and not a8:
                    continue
                e = e2 + s
                plane = odd if e & 1 else even
                key = (tuple(sorted(rem + extra, reverse=True)), q8out)
                val = amp * cx * a8 ** s << 2 * (emax - e) + (e >> 1)
                plane[key] = plane.get(key, 0) + val
        den = math.factorial(cmax) << 2 * emax
    else:
        den = 1
    even = {key: amp for key, amp in even.items() if amp}
    odd = {key: amp for key, amp in odd.items() if amp}
    g = math.gcd(den, *even.values(), *odd.values())
    res = (den // g, {key: amp // g for key, amp in even.items()},
           {key: amp // g for key, amp in odd.items()})
    if memo_key is not None:
        _PURE_EXP[memo_key] = res
    return res


def _mode_apply_counting(u, n, v):
    n = ModeIndex(n)
    legal = 0
    total = 0
    pairs = []
    for (udegs, a8), cu in u.terms.items():
        for (vdegs, q8), cv in v.terms.items():
            total += 1
            contrib = _pair_modes(udegs, a8, vdegs, q8, n)
            if contrib is None:
                continue
            legal += 1
            den, even, odd = contrib
            if even or odd:
                pairs.append((cu * cv, den, even, odd))
    return _sum_pairs(pairs), legal, total


# --------------------------------------------------------------------------
# Coordinate planes: a state as 8 maps {monomial: int}, one per basis
# element of the field, over one common denominator.


def _add_amps(planes, k, c, even, odd):
    """Add c e_k (even + sqrt2 odd) to the planes, for an integer c, the
    basis element e_k and integer maps {monomial: int} as from
    `_pair_modes` (odd may be empty)."""
    if even:
        plane = planes[k]
        get = plane.get
        for key, a in even.items():
            plane[key] = get(key, 0) + c * a
    if odd:
        m, f = BASIS_MUL[1][k]
        plane = planes[m]
        get = plane.get
        c *= f
        for key, a in odd.items():
            plane[key] = get(key, 0) + c * a


def _to_planes(v):
    """(den, planes) holding v: its coordinates over their common
    denominator."""
    den = math.lcm(*(c.den for c in v.terms.values()))
    planes = [{} for _ in range(8)]
    for key, c in v.terms.items():
        f = den // c.den
        for k, x in enumerate(c.num):
            if x:
                planes[k][key] = x * f
    return den, planes


def _from_planes(planes, den):
    """The State held by planes over den: one field element per monomial."""
    out = {}
    for key in dict.fromkeys(key for plane in planes for key in plane):
        num = [plane.get(key, 0) for plane in planes]
        if any(num):
            out[key] = Scalar(num, den)
    return State(out)


def _sum_pairs(pairs):
    """The State sum of coeff * (even + sqrt2 odd) / den over
    pairs = [(coeff, den, even, odd)], the maps as from `_pair_modes`.

    Every contribution is an integer coordinate of a pair coefficient
    times an integer amplitude, possibly times sqrt2, over one common
    denominator: sum them on the 8 coordinate planes, one dict update
    per amplitude and nonzero coordinate, and build one field element
    per output monomial at the end.
    """
    den = 1
    for cc, d, _, _ in pairs:
        d *= cc.den
        if den % d:
            den = den // math.gcd(den, d) * d
    planes = [{} for _ in range(8)]
    for cc, d, even, odd in pairs:
        f = den // (d * cc.den)
        for k, x in enumerate(cc.num):
            if x:
                _add_amps(planes, k, x * f, even, odd)
    return _from_planes(planes, den)


def mode_apply(u, n, v):
    """The n-th mode of u applied to v.

    Raises ModeLegalityError when u and v are nonzero but no charge
    pairing is compatible with the requested index.
    """
    result, legal, total = _mode_apply_counting(u, n, v)
    if total and not legal:
        raise ModeLegalityError("mode %s is not defined on this pair" % n)
    return result


def mode_apply_theta_even(u, n, v):
    """Fast path for theta-fixed u with no charge-zero part acting on a
    theta-fixed v: compute the positive-charge half and symmetrize."""
    pos = State({m: c for m, c in u.terms.items() if m[1] > 0})
    if theta(u) != u or theta(v) != v or len(pos.terms) * 2 != len(u.terms):
        raise ValueError("theta-even fast path preconditions not met")
    q = mode_apply(pos, n, v)
    return q + theta(q)


def exp_charge_mode(a8, x, v):
    """exp(x e(0)) v for the zero mode e(0) of e^{(a8/8) b} and a field
    element x, where e(0) is nilpotent on v (as the zero modes of
    e^{+-a}, a8 = +-4, are: they move the charge at fixed weight).

    The series sum_k x^k / k! e(0)^k v runs on coordinate planes from
    start to end: each step reads the memoized `_pair_modes((), a8,
    degs, q8, 0)` of every monomial, applies x and 1/k on the planes,
    and one State is built at the end.  Raises ModeLegalityError on a
    term whose charge admits no zero mode of e^{(a8/8) b}.
    """
    xs = [(j, xj) for j, xj in enumerate(x.num) if xj]
    den, planes = _to_planes(v)
    terms = [(den, planes)]
    k = 0
    while any(planes):
        k += 1
        amps = {}
        for plane in planes:
            for key in plane:
                if key not in amps:
                    amp = _pair_modes((), a8, key[0], key[1], 0)
                    if amp is None:
                        raise ModeLegalityError(
                            "zero mode of e^(%s b) is not defined on charge %s"
                            % (Fraction(a8, 8), Fraction(key[1], 8)))
                    amps[key] = amp
        dd = math.lcm(*(amp[0] for amp in amps.values()))
        nxt = [{} for _ in range(8)]
        for p, plane in enumerate(planes):
            row = BASIS_MUL[p]
            for key, c in plane.items():
                d, even, odd = amps[key]
                c *= dd // d
                for j, xj in xs:
                    m, f = row[j]
                    _add_amps(nxt, m, c * f * xj, even, odd)
        planes = [{key: c for key, c in plane.items() if c} for plane in nxt]
        den *= dd * x.den * k
        g = math.gcd(den, *(c for plane in planes for c in plane.values()))
        if g > 1:
            den //= g
            planes = [{key: c // g for key, c in plane.items()}
                      for plane in planes]
        terms.append((den, planes))
    den = math.lcm(*(d for d, _ in terms))
    acc = [{} for _ in range(8)]
    for d, planes in terms:
        for k, plane in enumerate(planes):
            _add_amps(acc, k, den // d, plane, None)
    return _from_planes(acc, den)


# --------------------------------------------------------------------------
# Virasoro modes.


def _drop(degs, d):
    """degs (descending) with one part d removed."""
    i = degs.index(d)
    return degs[:i] + degs[i + 1:]


def _with(degs, *parts):
    """degs with the given parts added, descending."""
    return tuple(sorted(degs + parts, reverse=True))


def _virasoro_amps(vdegs, q8, n):
    """L(n) on the monomial h(-d_1)...h(-d_k) e^{(q8/8) b}, in the output
    format of `_pair_modes`: (den, even, odd), keyed by (degs, q8).

    L(n) = p h(n) + (1/2) sum_{j != 0, n} :h(j) h(n-j): for n != 0, where
    h(0) acts by p = sqrt2 q8 / 4 and [h(j), h(-d)] = j delta_{j,d}, so
    h(j) takes j times the multiplicity of the part j.  Every amplitude
    is an integer over 4 (the charge term is q8 over 4 at sqrt2
    exponent 1; the diagonal j = n - j carries the 1/2).
    """
    if n == 0:
        w16 = 16 * sum(vdegs) + q8 * q8
        g = math.gcd(16, w16)
        return 16 // g, ({(vdegs, q8): w16 // g} if w16 else {}), {}
    counts = _counts(vdegs)
    even, odd = {}, {}
    if q8:
        if n < 0:
            odd[(_with(vdegs, -n), q8)] = q8
        elif n in counts:
            odd[(_drop(vdegs, n), q8)] = q8 * n * counts[n]
    # h(-(d - n)) h(d): annihilate a part d, create the part d - n.
    for d, m in counts.items():
        if d > n:
            even[(_with(_drop(vdegs, d), d - n), q8)] = 4 * d * m
    if n >= 2:
        # h(j) h(n - j): annihilate the parts j <= n - j.
        for d, m in counts.items():
            k = n - d
            if k == d and m > 1:
                even[(_drop(_drop(vdegs, d), d), q8)] = 2 * d * d * m * (m - 1)
            elif k > d and k in counts:
                even[(_drop(_drop(vdegs, d), k), q8)] = 4 * d * k * m * counts[k]
    elif n <= -2:
        # h(-j) h(n + j): create the parts j <= -n - j.
        for j in range(1, -n // 2 + 1):
            even[(_with(vdegs, j, -n - j), q8)] = 2 if 2 * j == -n else 4
    g = math.gcd(4, *even.values(), *odd.values())
    return (4 // g, {key: amp // g for key, amp in even.items()},
            {key: amp // g for key, amp in odd.items()})


def virasoro_mode(n, v):
    """L(n) v for the rank-one free-boson Virasoro vector (c = 1).

    This is the mode omega(n + 1) of omega = (1/2) h(-1)^2 |0>, applied
    monomial by monomial through the free-field form
    L(n) = (1/2) sum_j :h(j) h(n-j): (`_virasoro_amps`), where h(0)
    acts on e^{(q8/8) b} by p = sqrt2 q8 / 4.  The general route
    `mode_apply(named_vector("omega"), n + 1, v)` gives the same state
    and serves as the test oracle.  Raises ModeLegalityError for a
    non-integer n on a nonzero v.
    """
    n = ModeIndex(n)
    if not v:
        return State()
    if type(n) is not int:
        raise ModeLegalityError("mode %s is not defined on this pair" % (n + 1))
    pairs = []
    for (vdegs, q8), cv in v.terms.items():
        den, even, odd = _virasoro_amps(vdegs, q8, n)
        if even or odd:
            pairs.append((cv, den, even, odd))
    return _sum_pairs(pairs)


def apply_word(word, v):
    """Apply L(m_s)...L(m_1) to v, rightmost factor first.

    word is the list [m_s, ..., m_1] of mode indices, so apply_word([-3, -1], v)
    is L(-3) L(-1) v.
    """
    for m in reversed(list(word)):
        v = virasoro_mode(m, v)
        if not v:
            break
    return v


# --------------------------------------------------------------------------
# Zero-mode spectral decomposition (Krylov based, exact).  Callers:
# `delta_apply`, `zero_mode_exp` (the test oracle for sigma) and
# `sectors.sigma_eigendims`.


def _root_bound(coeffs):
    """An integer bound on the absolute values of the roots of a monic
    rational polynomial (ascending Fraction coeffs): Fujiwara's bound
    2 max_i |c_{d-i}|^{1/i}, with each i-th root rounded up in integers.

    Since |c_{d-i}| <= binom(d, i) R^i for roots of size at most R, the
    bound is at most 2 d R before rounding.
    """
    deg = len(coeffs) - 1
    top = 0
    for i in range(1, deg + 1):
        c = abs(coeffs[deg - i])
        while top ** i < c:
            top += 1
    return 2 * top


def _rational_roots(coeffs):
    """All roots of a monic rational polynomial, assuming they are
    rational with denominator dividing 6; raises otherwise.

    coeffs: ascending list of Fractions with coeffs[-1] == 1.  The
    candidates k6/6 are scanned in ascending order within the
    `_root_bound` window.
    """
    roots = []
    cur = [Fraction(x) for x in coeffs]
    while len(cur) > 1:
        bound = 6 * _root_bound(cur)
        # r = k6/6 is a root iff sum_i c_i k6^i 6^(deg-i) vanishes; clear
        # the denominators of the c_i to evaluate that in integers.
        deg = len(cur) - 1
        den = math.lcm(*(c.denominator for c in cur))
        icoef = [int(c * den) * 6 ** (deg - i) for i, c in enumerate(cur)]
        found = None
        for k6 in range(-bound, bound + 1):
            acc = 0
            for c in reversed(icoef):
                acc = acc * k6 + c
            if acc == 0:
                found = Fraction(k6, 6)
                break
        if found is None:
            raise ArithmeticError("zero-mode spectrum is not on the (1/6)Z grid")
        roots.append(found)
        nxt = [Fraction(0)] * (len(cur) - 1)
        carry = Fraction(0)
        for i in range(len(cur) - 1, 0, -1):
            carry = cur[i] + carry * found
            nxt[i - 1] = carry
        cur = nxt
    if len(set(roots)) != len(roots):
        raise ArithmeticError("zero mode is not semisimple on this vector")
    return roots


def zero_mode_decompose(hvec, v):
    """Split v into eigenvectors of the zero mode of hvec.

    Returns {eigenvalue (Fraction): component (State)}.  The spectrum
    must be simple on the cyclic subspace and lie in (1/6)Z.
    """
    if not v:
        return {}
    ech = Echelon()
    seq = [v]
    ech.insert(v)
    dep = None
    while dep is None:
        nxt = mode_apply(hvec, 0, seq[-1])
        dep = ech.insert(nxt)
        if dep is None:
            seq.append(nxt)
    k = len(seq)
    coeffs = [Fraction(0)] * (k + 1)
    coeffs[k] = Fraction(1)
    for i, c in dep.items():
        if not c.is_rational():
            raise ArithmeticError("zero-mode minimal polynomial is not rational")
        coeffs[i] = -c.as_rational()
    roots = _rational_roots(coeffs)
    out = {}
    for lam in roots:
        # Lagrange projector: prod over other roots of (A - mu)/(lam - mu).
        poly = [Fraction(1)]
        denom = Fraction(1)
        for mu in roots:
            if mu == lam:
                continue
            poly = [a - mu * b for a, b in
                    zip([Fraction(0)] + poly, poly + [Fraction(0)])]
            denom *= lam - mu
        piece = State()
        for i, c in enumerate(poly):
            if c:
                piece = piece + seq[i] * sc(c / denom)
        if piece:
            out[lam] = piece
    return out


def zero_mode_exp(hvec, v):
    """exp(2 pi i hvec(0)) applied to v."""
    acc = State()
    for lam, piece in zero_mode_decompose(hvec, v).items():
        acc = acc + piece * exp_two_pi_i(lam)
    return acc


# --------------------------------------------------------------------------
# Li shift operators and twisted modes.


class RationalPowerSeries:
    """A finite sum of states against rational powers of z.

    terms: ascending list of (exponent, state).  bound is None for an
    exact (complete) expansion; otherwise queries above the bound raise
    instead of silently returning zero.
    """

    def __init__(self, terms, bound=None):
        self.terms = [(Fraction(e), st) for e, st in terms if st]
        self.terms.sort(key=lambda t: t[0])
        exps = [e for e, _ in self.terms]
        if len(set(exps)) != len(exps):
            raise ValueError("duplicate exponents in power series")
        self.bound = bound if bound is None else Fraction(bound)

    def coefficient(self, e):
        e = Fraction(e)
        if self.bound is not None and e > self.bound:
            raise ValueError("coefficient %s beyond truncation bound %s"
                             % (e, self.bound))
        for ee, st in self.terms:
            if ee == e:
                return st
        return State()

    def __iter__(self):
        return iter(self.terms)

    def __eq__(self, other):
        if not isinstance(other, RationalPowerSeries):
            return NotImplemented
        return self.bound == other.bound and self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join("z^(%s) [%s]" % (e, st) for e, st in self.terms)


_DELTA_VALID = {}
_DELTA_CACHE = {}


def _validate_hvec(hvec):
    key = hvec.key()
    hit = _DELTA_VALID.get(key)
    if hit is not None:
        return hit
    if hvec.weight() != 1:
        raise ValueError("shift vector must have weight 1")
    for nn in (1, 2):
        if virasoro_mode(nn, hvec):
            raise ValueError("shift vector must be primary")
    if mode_apply(hvec, 0, hvec) or mode_apply(hvec, 2, hvec) \
            or mode_apply(hvec, 3, hvec):
        raise ValueError("shift vector self-modes are not of Heisenberg type")
    lvl = mode_apply(hvec, 1, hvec)
    level = lvl.coefficient(())
    if lvl != State.basis((), 0, level) or not level.is_rational():
        raise ValueError("shift vector level must be rational")
    _DELTA_VALID[key] = level.as_rational()
    return _DELTA_VALID[key]


def delta_apply(hvec, v):
    """Li's shift operator Delta(hvec, z) applied to v.

    Returns an exact RationalPowerSeries: z^{hvec(0)} applied after the
    exponential of the positive modes sum_k ((-1)^{k+1}/k) hvec(k) z^{-k}.
    """
    _validate_hvec(hvec)
    ckey = (hvec.key(), v.key())
    hit = _DELTA_CACHE.get(ckey)
    if hit is not None:
        return hit
    pieces = {0: v}
    current = {0: v}
    j = 0
    while current:
        j += 1
        nxt = {}
        for e, st in current.items():
            wmax = max(mono_weight(m) for m in st.terms)
            k = 1
            while k <= wmax:
                img = mode_apply(hvec, k, st)
                if img:
                    img = img * sc(Fraction((-1) ** (k + 1), k * j))
                    acc = nxt.get(e - k)
                    nxt[e - k] = img if acc is None else acc + img
                k += 1
        current = {e: st for e, st in nxt.items() if st}
        for e, st in current.items():
            acc = pieces.get(e)
            pieces[e] = st if acc is None else acc + st
    out = {}
    for e, st in pieces.items():
        if not st:
            continue
        for lam, piece in zero_mode_decompose(hvec, st).items():
            key = Fraction(e) + lam
            acc = out.get(key)
            out[key] = piece if acc is None else acc + piece
    res = RationalPowerSeries(sorted(out.items()), bound=None)
    _DELTA_CACHE[ckey] = res
    return res


def twisted_mode_apply(u, n, v, hvec):
    """The n-th twisted mode of u on v, for the twist attached to hvec.

    The twisted operator is the plain one evaluated on the shifted
    vector Delta(hvec, z) u, so each shift term contributes its plain
    mode at a shifted index.  Index incompatibilities are tolerated per
    term; if nothing at all is compatible, that is an error.
    """
    n = ModeIndex(n)
    series = delta_apply(hvec, u)
    acc = State()
    legal = 0
    total = 0
    for e, w in series:
        st, lg, tt = _mode_apply_counting(w, Fraction(n) + e, v)
        acc = acc + st
        legal += lg
        total += tt
    if total and not legal:
        raise ModeLegalityError("twisted mode %s undefined on this pair" % n)
    return acc


def twisted_weight(v, hvec):
    """Apply the twisted L(0) for the hvec twist."""
    return twisted_mode_apply(named_vector("omega"), 1, v, hvec)
