"""Mode actions of lattice vertex operators, exactly.

The central routine is `mode_apply(u, n, v)`: the n-th mode of the
vertex operator attached to u, applied to v.  Operators are built from
normally ordered products of derivative Heisenberg fields against a
lattice exponential, with all lattice two-cocycle values taken to be 1
(consistent here because every charge pairing that occurs is even).

The engine runs on a State's packed view, its packed monomial keys and
integer coordinate planes in the parity basis (see `fockspace`), so
merging monomials is an integer addition and every mode amplitude is
rational.  `_pair_modes` returns one pair's expansion as (den, amps):
one integer map keyed by the packed output monomial over one positive
denominator.  Every operator monomial at a mode index has one table of
its pair expansions, an `_Expansions` dict keyed by v's packed
monomial, so the kernel reads a stored expansion as one dict subscript;
a miss computes it, and stores it unless it has more than 256 output
keys.  The tables hold at most 4,096 expansions in all, and each
expansion of negative lattice charge is read off its reflection
conjugate of positive charge, so a pair and its conjugate are computed
once.  Every operator reads its creation side from one table,
`_creation`, memoized independently of the lattice charge and built by
one recursion: it places the creation modes one at a time and, for a
charged operator, the parts of the exponential cloud one cycle at a
time; a charge-zero operator builds no cloud.  Before that, the branches
of one pair that differ only by an even step of the sqrt2 exponent are
merged, so each class reads its creation table once.

One kernel, `_apply_planes`, applies a sum of operators x A to the
planes, A given by a table of its amplitudes in the format of
`_pair_modes` and x a field element (`_mode_ops` takes u's coefficients
into the parity basis); it is the only loop that routes amplitudes onto
the planes.
`mode_apply` (one operator per term of u), `twisted_mode_apply` (one
call over all the shift terms), the Virasoro words of `apply_word` (one
call per letter; `virasoro_mode` is the one-letter word) and the
exponentials of `_exp_planes` all run on it, and each returns a State
made from its trimmed planes, which unpacks its terms only when they
are first read.

`_exp_planes` is the one exponential: exp of a sum of ops, nilpotent
on the state, one `_apply_planes` call per series term, each term added
into one running integer sum as it is made.
`charge_chain(factors, v)` runs a product of exponentials
exp(x e^{(a8/8) b}(0)) through it: the order-3 symmetry
`sectors.sigma` = t^H exp(-f/2) exp(e) is the chain exp(-f/2) exp(e)
followed by one pass of t^H over the planes of its output, and the frame
g = exp(c f) exp(u e), whose images of charge parts are the
eigenvectors of h'(0) (`hprime_eigenvector`), is another chain.  Li's
shift `delta_apply` runs exp(sum_k ((-1)^{k+1}/k) hvec(k)) through it,
one call per weight-homogeneous part of its input.
Virasoro modes skip the general expansion: `_virasoro_amps` applies
L(n) = (1/2) sum_j :h(j) h(n-j): straight to each Fock monomial, and
each letter of a word reads a table built for that letter alone.  The
general route `mode_apply` is the test oracle of both.
"""

from __future__ import annotations

import functools
import math
import weakref
from fractions import Fraction

from .exactfield import (
    BASIS_MUL, HALF, I, ONE, SQRT2, SQRT3, exp_two_pi_i, rat, sc,
)
from .fockspace import (
    _PART, _SHIFT, KeyWidthError, State, _charge, _check_parts,
    _check_width, _conjugate, _odd, _parts, _split, _trim, _unpack,
    basic_vector, mono_weight, ratio, theta,
)
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
# All amplitudes are integers over a known denominator.  The exponential
# cloud exp(sum_k alpha(-k) z^k / k) weighs a partition lam of c, with
# j_k parts k, by 1/prod_k (k^{j_k} j_k!); over c! that is the number of
# permutations of c points with cycle type lam, an integer, so creation
# coefficients at degree c live over c!.  Counting those permutations by
# the cycle through one fixed point, of length k in perm(c - 1, k - 1)
# ways, builds the cloud by the same recursion that places the pending
# derivative orders.  Degrees are packed keys without a charge (their
# low 8 bits are zero).  A creation table is stored flat: a tuple of
# (s, packed degrees, numerators) per cloud size s, s ascending, the
# last two tuples in step.

# A full catalog run makes 670 distinct (pending, c_target, cloud) keys,
# the sub-keys of the recursion included; the bound sits well above
# that and caps what library callers can add.
@functools.lru_cache(maxsize=2048)
def _creation(pending, c_target, cloud):
    """The ways to realize total creation degree c_target, as a creation
    table: the s-group holds each distinct packed degrees with its
    integer numerator over c_target!.

    pending: ascending tuple of derivative orders n_i assigned to the
    creation channel; each picks a degree k_i >= n_i with coefficient
    binom(k_i - 1, n_i - 1), perm(c_target, k_i) rescaling the rest from
    (c_target - k_i)! to c_target!.  Under a charged operator (cloud
    true) the degree the k_i leave becomes the exponential cloud, placed
    one part at a time the same way: a part k, the cycle through a fixed
    point, weighs perm(c_target - 1, k - 1) and raises the cloud size s
    by one.  A charge-zero operator has no cloud, and its table is the
    s = 0 group of the charged one.  Like degrees merge before the next
    order or part is placed.  Memoized: the same key recurs across
    pairs, charges and calls.
    """
    # (k, weight, cloud parts added) for each degree k placed next
    if pending:
        n0, rest = pending[0], pending[1:]
        steps = [(k, math.comb(k - 1, n0 - 1) * math.perm(c_target, k), 0)
                 for k in range(n0, c_target - sum(rest) + 1)]
    elif cloud and c_target:
        rest = ()
        steps = [(k, math.perm(c_target - 1, k - 1), 1)
                 for k in range(1, c_target + 1)]
    else:
        return () if c_target else ((0, (0,), (1,)),)
    groups = {}
    for k, f, ds in steps:
        pk = _PART[k]
        for s, degs, nums in _creation(rest, c_target - k, cloud):
            into = groups.setdefault(s + ds, {})
            get = into.get
            for extra, c in zip(degs, nums):
                extra += pk
                into[extra] = get(extra, 0) + f * c
    return tuple((s, tuple(group), tuple(group.values()))
                 for s, group in sorted(groups.items()))


def _pair_modes(udegs, a8, vkey, n):
    """All output contributions of one monomial pair, or None if the
    mode index is incompatible with the charge pairing.

    u's monomial is (udegs, a8) with udegs a tuple; v's monomial is the
    packed key vkey.  Returns (den, amps): amps maps each packed output
    key (charge q8 + a8) to a nonzero integer, and in the parity basis
    (see `fockspace`) the pair contributes amps / den there, over one
    positive denominator den.  The caller supplies the monomial
    coefficients, in the parity basis too.

    Every factor of the charge pairings 2a = a8/4 and 2q = q8/4 raises
    the sqrt2 exponent e by one, so the running amplitude is an integer
    over 4^e; the creation coefficients add the denominator c!.

    Every output of the pair has the same degree D = deg u + deg v + c0
    (the mode moves the weight by a fixed amount), which equals
    deg(rem) + c_target on each live branch of phase three.  So one test
    of D, and of the output charge, guards every output key: a pair
    with output beyond the key width raises KeyWidthError.
    """
    q8 = _charge(vkey)
    # The lowest creation degree is c0 = -n - 1 - a8 q8 / 8, and the pair
    # is legal when it is an integer; for n = p / d that is
    # (-8 (p + d) - a8 q8 d) / 8d.
    if type(n) is int:
        c0, frac = divmod(-8 * (n + 1) - a8 * q8, 8)
    else:
        p, d = n.numerator, n.denominator
        c0, frac = divmod(-8 * (p + d) - a8 * q8 * d, 8 * d)
    if frac:
        return None
    parts = _parts(vkey)

    # Phase one: contractions of the charge exponential with v's modes.
    branches = [(vkey, 1, 0, c0)]  # (rem, amp, e2, cshift)
    if a8:
        for d, m in parts:
            pd = _PART[d]
            nxt = []
            for rem, amp, e2, csh in branches:
                for j in range(m + 1):
                    f = math.comb(m, j) * (-a8) ** j
                    nxt.append((rem - j * pd, amp * f, e2 + j, csh + d * j))
            branches = nxt

    # Phase two: route each derivative field of u through one channel.
    # A state is keyed by (rem, pend, c, e2), where c counts the creation
    # degree of the branch, sum(pend) included.
    states = {(rem, (), csh, e2): amp for rem, amp, e2, csh in branches}
    desc = [d for d, _ in reversed(parts)]
    for ni in udegs:
        sgn = -1 if (ni - 1) % 2 else 1
        nxt = {}
        for (rem, pend, csh, e2), amp in states.items():
            # udegs is descending (a State key), so pend stays ascending
            key = (rem, (ni,) + pend, csh + ni, e2)
            nxt[key] = nxt.get(key, 0) + amp
            if q8:
                key = (rem, pend, csh + ni, e2 + 1)
                nxt[key] = nxt.get(key, 0) + amp * sgn * q8
            for d in desc:
                m = rem >> _SHIFT[d] & 63
                if m:
                    f = sgn * math.comb(d + ni - 1, ni - 1) * d * m
                    key = (rem - _PART[d], pend, csh + d + ni, e2)
                    nxt[key] = nxt.get(key, 0) + amp * f
        states = nxt

    # Phase three: fill in creation modes and the exponential cloud.  A
    # contribution at sqrt2 exponent e and creation degree c is an
    # integer over 4^e c!; bring them all over 4^emax cmax!.  The parity
    # basis multiplies it by sqrt2^((ku & 1) + (kv & 1) - (kout & 1)),
    # ku, kv and kout the part counts of u, v and the output, and
    # kout = e + ku + kv mod 2: the parts of rem and pend, the u fields
    # still to route and e keep the parity of their sum through every
    # step (phase one moves j parts into e, the charge channel a u field
    # into e, the pending channel a u field into pend, the annihilation
    # channel drops a u field and a part of rem, and a cloud of s parts
    # adds s parts and s to e).  So the whole power of sqrt2 is
    # 2^((e + kuv) >> 1) with kuv = (ku & 1) + (kv & 1): one shift per
    # cloud group, never negative, and no sqrt2 is left over.  Each
    # pending order n_i takes a degree k_i >= n_i, so a branch with
    # c < sum(pend) has no placement; the width guard tests every branch
    # with c >= 0 all the same.
    if any(amp and c >= 0 for (_, _, c, _), amp in states.items()):
        _check_width(sum(d * m for d, m in parts) + sum(udegs) + c0, q8 + a8)
    # Two branches that differ only by 2j in e meet the same creation
    # entries, and on each the one with the smaller e weighs 2^(3j) times
    # as much: 4^(2j) from the denominator 4^e over 2^j from the parity
    # basis.  So every class (rem, pend, c, e mod 2) is merged into its
    # largest e before its creation table is read.
    merged = {}
    for (rem, pend, c, e2), amp in states.items():
        if amp and c >= sum(pend):
            cls = rem, pend, c, e2 & 1
            top, acc = merged.get(cls, (e2, 0))
            if e2 > top:
                acc <<= 3 * (e2 - top >> 1)
                top = e2
            merged[cls] = top, acc + (amp << 3 * (top - e2 >> 1))
    live = [(rem, pend, c, e2, amp) for (rem, pend, c, _), (e2, amp)
            in merged.items() if amp]
    amps = {}
    if live:
        kuv = (len(udegs) & 1) + (sum(m for _, m in parts) & 1)
        cloud = a8 != 0
        cmax = max(t[2] for t in live)
        emax = max(t[3] for t in live) + (cmax if cloud else 0)
        for rem, pend, c_target, e2, amp in live:
            amp *= math.perm(cmax, cmax - c_target)
            rem += a8
            for s, degs, nums in _creation(pend, c_target, cloud):
                e = e2 + s
                f = amp * a8 ** s << 2 * (emax - e) + (e + kuv >> 1)
                get = amps.get
                for extra, cx in zip(degs, nums):
                    key = rem + extra
                    amps[key] = get(key, 0) + cx * f
        den = math.factorial(cmax) << 2 * emax
    else:
        den = 1
    g = math.gcd(den, *amps.values())
    return den // g, {key: amp // g for key, amp in amps.items() if amp}


# Every operator monomial (udegs, a8) at mode n has one table of its
# pair expansions, keyed by v's packed monomial: a dict whose
# __missing__ computes and stores, so a hit is one dict subscript and no
# Python frame.  The same monomial pair recurs across the terms of one
# state, across calls and across checks, and a negative-charge pair
# reads its conjugate.  The keys come from the caller's states, so the
# tables hold at most _MEMO_ENTRIES entries in all, and the tables that
# stored first are emptied first.  One operator has one table at a time
# (`_live`), so a table emptied while the caller holds it, or an op
# list's table not yet stored into, is the one its conjugate reads.  A
# table stores only an expansion with at most _MEMO_KEYS output keys.  In
# a full catalog run, 1,773 of the 1,778 hits on derivative-field pairs
# land on at most 16 keys, and the 98 expansions above 256 keys (79,810
# keys in all) never recur; every pure exponential has at most 256 keys,
# and 1,654 of the 1,681 hits on those of 65..256 keys are in
# sigma(u16).  Such a run computes 2,366 expansions and leaves 3,239
# entries in 269 tables, 618 each in those of e^{+-a}(0).
_MEMO_ENTRIES = 4096
_MEMO_KEYS = 256
_tables = {}  # (udegs, a8, n) -> its table while it holds entries
_live = weakref.WeakValueDictionary()  # (udegs, a8, n) -> its table
_stored = 0  # the entries of every table in _tables


class _Expansions(dict):
    """The pair expansions of u's monomial (udegs, a8), udegs () for a
    pure exponential, at mode n: table[vkey] is
    `_pair_modes(udegs, a8, vkey, n)`, computed on its first read.  A
    caller must not change the returned amps.

    A negative charge a8 is read off the conjugate table (udegs, -a8, n)
    at the conjugate of vkey: the reflection theta is an automorphism,
    so theta(u)(n) = theta u(n) theta (Frenkel, Huang and Lepowsky
    1993), and theta is +-1 in the parity basis, -1 on a key with an odd
    number of parts.  So each output key k of the conjugate expansion
    gives the key _conjugate(k), its amplitude negated when
    len(udegs) + _odd(vkey) + _odd(k) is odd.  Where the conjugate pair
    is beyond the key width, the pair is computed directly, so that the
    error names its own charge.
    """

    __slots__ = ("op", "__weakref__")

    def __init__(self, op):
        self.op = op

    def __missing__(self, vkey):
        udegs, a8, n = self.op
        if a8 >= 0:
            out = _pair_modes(udegs, a8, vkey, n)
        else:
            try:
                out = _table(udegs, -a8, n)[_conjugate(vkey)]
            except KeyWidthError:
                return _pair_modes(udegs, a8, vkey, n)
            if out is not None:
                den, amps = out
                flip = (len(udegs) + _odd(vkey)) & 1
                out = den, {_conjugate(k): -a if flip ^ _odd(k) else a
                            for k, a in amps.items()}
        if out is None or len(out[1]) <= _MEMO_KEYS:
            _store(self, vkey, out)
        return out


def _table(udegs, a8, n):
    """The expansion table of u's monomial (udegs, a8) at mode n."""
    op = (udegs, a8, n)
    table = _live.get(op)
    if table is None:
        table = _live[op] = _Expansions(op)
    return table


def _store(table, vkey, out):
    """table[vkey] = out, after emptying the oldest tables while all of
    them hold _MEMO_ENTRIES entries."""
    global _stored
    while _stored >= _MEMO_ENTRIES:
        old = _tables.pop(next(iter(_tables)))
        _stored -= len(old)
        old.clear()
    _tables[table.op] = table
    table[vkey] = out
    _stored += 1


def _apply_planes(ops, den, planes):
    """The sum of operators x A applied to the state held by planes over
    den, as (den, planes, legal, total); the planes may hold zeros.

    ops is a list of (table, x): table[key] is A on the packed monomial
    key in the format of `_pair_modes`, or None where A is undefined,
    and x is a field element; legal and total count the (op, monomial)
    pairs where A is defined and all of them.  A term c e_p goes to
    sum_j x_j c e_p e_j amps / (d x.den), where e_p e_j is a signed basis
    element (`BASIS_MUL`): every x_j routes to one plane, and every
    contribution is an integer product added to it.
    """
    if len(planes) == 1:
        [(p, keys)] = planes.items()
    else:
        # the hits of each op are distributed over the planes below
        p = None
        keys = {}
        for plane in planes.values():
            keys |= plane
    legal = total = 0
    dd = 1
    work = []
    for table, x in ops:
        hits = []
        xden = x.den
        for key, c in keys.items():
            amp = table[key]
            if amp is not None:
                legal += 1
                if amp[1]:
                    hits.append((key, c, amp))
                    d = amp[0] * xden
                    if dd % d:
                        dd = dd // math.gcd(dd, d) * d
        total += len(keys)
        if not hits:
            continue
        if p is not None:
            work.append((p, hits, xden, x.num))
            continue
        found = {key: amp for key, _, amp in hits}
        for q, plane in planes.items():
            on = [(key, c, found[key]) for key, c in plane.items()
                  if key in found]
            if on:
                work.append((q, on, xden, x.num))
    nxt = {}
    for p, hits, xden, xnum in work:
        row = BASIS_MUL[p]
        for j, xj in enumerate(xnum):
            if not xj:
                continue
            # e_p x_j lands on the plane m, with the integer factor f
            m, f = row[j]
            f *= xj
            into = nxt.setdefault(m, {})
            get = into.get
            for _, c, (d, amps) in hits:
                fc = f * c * (dd // (d * xden))
                for out, a in amps.items():
                    into[out] = get(out, 0) + fc * a
    return den * dd, nxt, legal, total


def _mode_ops(u, n):
    """The `_apply_planes` ops of the n-th mode of u, one per term, each
    with the parity-basis coefficient of its term."""
    ops = []
    for (udegs, a8), cu in u.terms.items():
        # u's monomial is never packed: only a part 0 or its charge can
        # fall outside the key, and its degree reaches the key only
        # through the output degree that `_pair_modes` checks
        _check_parts(udegs)
        _check_width(0, a8)
        if len(udegs) & 1:
            cu = cu.mul_rat_sqrt2(1, -1)
        ops.append((_table(udegs, a8, n), cu))
    return ops


def mode_apply(u, n, v):
    """The n-th mode of u applied to v.

    Raises ModeLegalityError when u and v are nonzero but no charge
    pairing is compatible with the requested index, and KeyWidthError
    when a monomial of v or of the result is beyond the key width, or a
    monomial of u has a part 0 or a charge beyond it (u is not packed,
    so its degree is bounded only through the result's).
    """
    n = ModeIndex(n)
    den, planes = v.packed
    den, planes, legal, total = _apply_planes(_mode_ops(u, n), den, planes)
    if total and not legal:
        raise ModeLegalityError("mode %s is not defined on this pair" % n)
    return State(packed=_trim(den, planes))


def mode_apply_theta_even(u, n, v):
    """Fast path for theta-fixed u with no charge-zero part, that is
    u = pos + theta(pos) for its positive-charge half pos, acting on a
    theta-fixed v: compute the modes of pos and symmetrize."""
    pos = _split(u, lambda key: _charge(key) > 0).get(True, State())
    if pos + theta(pos) != u or theta(v) != v:
        raise ValueError("theta-even fast path preconditions not met")
    q = mode_apply(pos, n, v)
    return q + theta(q)


def charge_chain(factors, v):
    """The product of charge-mode exponentials applied to v, the
    rightmost factor first (as written: charge_chain([f2, f1], v) is
    f2 f1 v).

    Each factor is a pair (a8, x), the exponential exp(x e^{(a8/8) b}(0))
    of a zero mode nilpotent on v (as those of e^{+-a}, a8 = +-4, are:
    they move the charge at fixed weight).  Raises ModeLegalityError on
    a term whose charge admits no such zero mode.
    """
    den, planes = v.packed
    for a8, x in reversed(factors):
        ops = [(_table((), a8, 0), x)]
        den, planes = _exp_planes(ops, den, planes)
    return State(packed=(den, planes))


def _exp_planes(ops, den, planes):
    """exp(X) on the state held by planes over den, as (den, planes), for
    X the sum of the `_apply_planes` ops, nilpotent on that state.

    The series sum_k X^k v / k! is one `_apply_planes` call per term,
    each trimmed term added into one running integer sum as it is made.
    The sum is kept over the lcm of the term denominators so far, and
    its entries are rescaled only when that lcm grows.  Raises
    ModeLegalityError, naming the charge, where an op is undefined on a
    monomial of some term.
    """
    acc = {p: dict(plane) for p, plane in planes.items()}
    accden = den
    k = 0
    while planes:
        k += 1
        den, nxt, legal, total = _apply_planes(ops, den, planes)
        if legal < total:
            q8 = next(_charge(key) for table, _ in ops
                      for plane in planes.values() for key in plane
                      if table[key] is None)
            raise ModeLegalityError("exponentiated mode is not defined on"
                                    " charge %s" % Fraction(q8, 8))
        den, planes = _trim(den * k, nxt)
        if accden % den:
            g = den // math.gcd(accden, den)
            accden *= g
            for plane in acc.values():
                for key in plane:
                    plane[key] *= g
        f = accden // den
        for p, plane in planes.items():
            into = acc.setdefault(p, {})
            get = into.get
            for key, c in plane.items():
                into[key] = get(key, 0) + f * c
    return _trim(accden, acc)


# --------------------------------------------------------------------------
# Virasoro modes.


def _virasoro_amps(n, vkey):
    """L(n) on the packed monomial vkey = h(-d_1)...h(-d_k) e^{(q8/8) b},
    in the output format of `_pair_modes`: (den, amps), keyed by packed
    monomial, in the parity basis.

    L(n) = p h(n) + (1/2) sum_{j != 0, n} :h(j) h(n-j): for n != 0, where
    h(0) acts by p = sqrt2 q8 / 4 and [h(j), h(-d)] = j delta_{j,d}, so
    h(j) takes j times the multiplicity of the part j.  Every amplitude
    is an integer over 4 (the diagonal j = n - j carries the 1/2).  The
    charge term moves the part count k of v by one, so the parity basis
    turns its sqrt2 q8 / 4 into q8 / 4 for even k and 2 q8 / 4 for odd
    k; the other terms keep the parity of k and their amplitude.  Every
    output has degree deg v - n, which must fit the key width.
    """
    parts = _parts(vkey)
    deg = sum(d * m for d, m in parts)
    q8 = _charge(vkey)
    if n == 0:
        w16 = 16 * deg + q8 * q8
        g = math.gcd(16, w16)
        return 16 // g, ({vkey: w16 // g} if w16 else {})
    _check_width(deg - n, q8)
    parts.reverse()
    counts = dict(parts)
    amps = {}
    if q8:
        p = q8 << (sum(counts.values()) & 1)
        if n < 0:
            amps[vkey + _PART[-n]] = p
        elif n in counts:
            amps[vkey - _PART[n]] = p * n * counts[n]
    # h(-(d - n)) h(d): annihilate a part d, create the part d - n.
    for d, m in parts:
        if d > n:
            amps[vkey - _PART[d] + _PART[d - n]] = 4 * d * m
    if n >= 2:
        # h(j) h(n - j): annihilate the parts j <= n - j.
        for d, m in parts:
            k = n - d
            if k == d and m > 1:
                amps[vkey - 2 * _PART[d]] = 2 * d * d * m * (m - 1)
            elif k > d and k in counts:
                amps[vkey - _PART[d] - _PART[k]] = 4 * d * k * m * counts[k]
    elif n <= -2:
        # h(-j) h(n + j): create the parts j <= -n - j.
        for j in range(1, -n // 2 + 1):
            amps[vkey + _PART[j] + _PART[-n - j]] = 2 if 2 * j == -n else 4
    g = math.gcd(4, *amps.values())
    return 4 // g, {key: amp // g for key, amp in amps.items()}


def virasoro_mode(n, v):
    """L(n) v for the rank-one free-boson Virasoro vector (c = 1), the
    one-letter `apply_word`.

    This is the mode omega(n + 1) of omega = (1/2) h(-1)^2 |0>, applied
    through the free-field form (`_virasoro_amps`); the general route
    `mode_apply(basic_vector("omega"), n + 1, v)` is its test oracle.
    Raises ModeLegalityError for a non-integer n on a nonzero v, and
    KeyWidthError when a monomial of v or of L(n) v is beyond the key
    width.
    """
    return apply_word([n], v)


def apply_word(word, v):
    """Apply L(m_s)...L(m_1) to v, rightmost factor first.

    word is the list [m_s, ..., m_1] of mode indices, so apply_word([-3, -1], v)
    is L(-3) L(-1) v.  v stays on the coordinate planes from letter to
    letter, and the word stops at a zero state.
    """
    den, planes = v.packed
    for m in reversed(list(word)):
        m = ModeIndex(m)
        if not planes:
            break
        if type(m) is not int:
            raise ModeLegalityError("mode %s is not defined on this pair"
                                    % (m + 1))
        keys = {}
        for plane in planes.values():
            keys |= plane
        ops = [({key: _virasoro_amps(m, key) for key in keys}, ONE)]
        den, planes = _trim(*_apply_planes(ops, den, planes)[:2])
    return State(packed=(den, planes))


# --------------------------------------------------------------------------
# Zero-mode spectral decomposition (Krylov based, exact).  No code of
# the package calls it: the tests use it as the oracle of sigma, of the
# frame g and of `delta_apply`.


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
# The sl2 frame of h'(0), the only route to its eigenvectors.
#
# h' lies in the weight-one sl2 spanned by h and e^{+-a} (a = b/2).  With
# H = sqrt2 h(0), e = e^{a}(0) and f = e^{-a}(0), which satisfy
# [H, e] = 2e, [H, f] = -2f, [e, f] = H on these modules,
# h'(0) = (sqrt3/18) M for M = H + (1-i) e + (1+i) f.  g = exp(c f) exp(u e)
# with u = -(1-i) sqrt3/6 and c = (sqrt3-1)(1+i)/2 is [[1, u], [c, 1+cu]]
# in the 2-dimensional representation, where g^-1 M g = sqrt3 H, so
# g^-1 h'(0) g = H/6 on every weight space.  H is q8/2 on charge
# (q8/8) b, so g maps the charge parts of g^-1 v = exp(-u e) exp(-c f) v
# to eigenvectors of eigenvalue q8/12.
_U = (I - ONE) * SQRT3 * sc(Fraction(1, 6))
_C = (SQRT3 - ONE) * (ONE + I) * HALF


# The shifted sectors share their bases, and Li's shift splits through
# the same frame: a full catalog run reads 76 frame images of 40 distinct
# states.  The bound caps what library callers can add.
@functools.lru_cache(maxsize=128)
def hprime_eigenvector(p):
    """(q8/12, g p) for a nonzero state p of one charge (q8/8) b in
    (1/4)Z b: g p is an eigenvector of h'(0) with eigenvalue q8/12,
    certified by one h'(0) application (ArithmeticError if not) when
    it is first computed."""
    lam = Fraction(next(iter(p.terms))[1], 12)
    gp = charge_chain([(-4, _C), (4, _U)], p)
    if mode_apply(basic_vector("hprime"), 0, gp) != gp * sc(lam):
        raise ArithmeticError("g p is not an h'(0) eigenvector for %s" % lam)
    return lam, gp


# --------------------------------------------------------------------------
# Li shift operators and twisted modes.


class RationalPowerSeries:
    """A finite sum of states against rational powers of z: an exact
    (complete) expansion, zero at every exponent it does not list.

    terms: ascending list of (exponent, state).
    """

    def __init__(self, terms):
        self.terms = sorted(((rat(e), st) for e, st in terms if st),
                            key=lambda t: t[0])
        exps = [e for e, _ in self.terms]
        if len(set(exps)) != len(exps):
            raise ValueError("duplicate exponents in power series")

    def coefficient(self, e):
        e = rat(e)
        for ee, st in self.terms:
            if ee == e:
                return st
        return State()

    def __iter__(self):
        return iter(self.terms)

    def __eq__(self, other):
        if not isinstance(other, RationalPowerSeries):
            return NotImplemented
        return self.terms == other.terms

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join("z^(%s) [%s]" % (e, st) for e, st in self.terms)


# A full catalog run shifts 8 distinct (hvec, v) pairs (40 hits); the
# keys are arbitrary user states, so the cache is bounded.
@functools.lru_cache(maxsize=64)
def delta_apply(hvec, v):
    """Li's shift operator Delta(hvec, z) applied to v.

    Returns an exact RationalPowerSeries: z^{hvec(0)} applied after the
    exponential of the positive modes sum_k ((-1)^{k+1}/k) hvec(k) z^{-k},
    which runs on the coordinate planes as one `_exp_planes` call per
    weight-homogeneous part of v.
    hvec is s h' (z^{hvec(0)} split by the frame g, eigenvalue s q8/12)
    or t h (split by charge, eigenvalue t sqrt2 q8/4), s and t field
    elements.  Raises ValueError for any other hvec, ModeLegalityError
    for s h' on a charge outside (1/4)Z b, and ArithmeticError on an
    eigenvalue that is not rational.
    """
    s = ratio(hvec, basic_vector("hprime"))
    t = ratio(hvec, basic_vector("h"))
    if s is None and t is None:
        raise ValueError("shift vector must be a multiple of h' or of h")
    # exp(sum_k ((-1)^{k+1}/k) hvec(k) z^{-k}) on each weight-w part of v:
    # hvec(k) lowers the weight and the power of z by k alike, so an
    # output monomial of weight wt sits at z^{wt - w}, and hvec(k) with
    # k > w vanishes on the part
    out = {}
    for w, part in _split(v, lambda key: mono_weight(_unpack(key))).items():
        ops = [(amps, x * sc(Fraction((-1) ** (k + 1), k)))
               for k in range(1, math.floor(w) + 1)
               for amps, x in _mode_ops(hvec, k)]
        shifted = State(packed=_exp_planes(ops, *part.packed))
        for wt, st in _split(shifted,
                             lambda key: mono_weight(_unpack(key))).items():
            if t is None:
                g = _split(charge_chain([(4, -_U), (-4, -_C)], st), _charge)
                split = [(s * sc(lam), gp)
                         for lam, gp in map(hprime_eigenvector, g.values())]
            else:
                # h(0) is sqrt2 q8/4 on charge (q8/8) b
                split = [(t * SQRT2 * sc(Fraction(q8, 4)), p)
                         for q8, p in _split(st, _charge).items()]
            for lam, piece in split:
                if not lam.is_rational():
                    raise ArithmeticError("shift eigenvalue %s is not rational"
                                          % lam)
                key = wt - w + lam.as_rational()
                out[key] = out.get(key, State()) + piece
    return RationalPowerSeries(sorted(out.items()))


def twisted_mode_apply(u, n, v, hvec):
    """The n-th twisted mode of u on v, for the twist attached to hvec.

    The twisted operator is the plain one evaluated on the shifted
    vector Delta(hvec, z) u, so each shift term contributes its plain
    mode at a shifted index; all of them run as one `_apply_planes`
    call.  Index incompatibilities are tolerated per term; if nothing at
    all is compatible, that is an error.  A shift by s h' needs v in
    V_L2 + V_L2+a/2: the shifted u then has e^{+-a} terms, whose fields
    have half-integer powers of z on a charge k/8 b with k odd, so
    ModeLegalityError names any such charge of v rather than return a
    partial sum.  Shifts by t h take every charge.
    """
    n = ModeIndex(n)
    ops = [op for e, w in delta_apply(hvec, u)
           for op in _mode_ops(w, ModeIndex(n + e))]
    den, planes = v.packed
    odd = sorted({Fraction(q8, 8) for plane in planes.values()
                  for q8 in map(_charge, plane) if q8 % 2})
    if odd and ratio(hvec, basic_vector("h")) is None:
        raise ModeLegalityError(
            "twisted modes for the h' shift need charges in (1/4)Z b;"
            " got charge %s" % ", ".join("%sb" % q for q in odd))
    den, planes, legal, total = _apply_planes(ops, den, planes)
    if total and not legal:
        raise ModeLegalityError("twisted mode %s undefined on this pair" % n)
    return State(packed=_trim(den, planes))


def twisted_weight(v, hvec):
    """Apply the twisted L(0) for the hvec twist (ModeLegalityError on a
    charge of v outside (1/4)Z b when hvec is a nonzero multiple of h')."""
    return twisted_mode_apply(basic_vector("omega"), 1, v, hvec)
