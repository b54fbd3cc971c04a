"""Mode actions: untwisted, theta-even shortcut, zero modes, twisted shifts."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from voalab import vertexengine
from voalab.exactfield import (
    I, SQRT2, ZERO, Scalar, exp_two_pi_i, sc, sixth_root, sqrt2_power,
)
from voalab.fockspace import (
    MAX_DEGREE, KeyWidthError, State, _conjugate, _pack, _sum_planes,
    _trim, _unpack, graded_monomials, graded_states, lattice_component,
    mono_weight, partitions, tau1, theta,
)
from voalab.structure import named_vector
from voalab.vertexengine import (
    ModeIndex, ModeLegalityError, RationalPowerSeries, _pair_modes,
    _rational_roots, _root_bound, apply_word, charge_chain,
    delta_apply, mode_apply, mode_apply_theta_even, twisted_mode_apply,
    twisted_weight, virasoro_mode, zero_mode_decompose, zero_mode_exp,
)

ONE_V = named_vector("one")
OMEGA = named_vector("omega")
E = named_vector("E")
J = named_vector("J")


def test_heisenberg_modes():
    h = State.basis((1,))
    assert mode_apply(h, -1, ONE_V) == h
    assert mode_apply(h, 1, h) == ONE_V
    assert mode_apply(h, 0, h) == State()
    charged = State.basis((), 1)
    # h(0) reads the charge pairing (h, beta) = 2 sqrt 2
    assert mode_apply(h, 0, charged) == charged * sqrt2_power(1) * sc(2)
    assert mode_apply(h, 2, State.basis((2,))) == ONE_V * sc(2)


def test_virasoro_algebra_samples():
    assert virasoro_mode(0, J) == J * sc(4)
    assert virasoro_mode(0, E) == E * sc(4)
    assert virasoro_mode(1, OMEGA) == State()
    assert virasoro_mode(2, OMEGA) == ONE_V * sc(Fraction(1, 2))
    assert virasoro_mode(-1, ONE_V) == State()
    # [L(1), L(-1)] = 2 L(0) on a weight 2 state
    v = State.basis((2,))
    lhs = virasoro_mode(1, virasoro_mode(-1, v)) - virasoro_mode(-1, virasoro_mode(1, v))
    assert lhs == v * sc(4)


def test_virasoro_kernel_matches_general_route():
    states = [b for w in range(7) for b in graded_states("V_L2", w)]
    for w in (Fraction(1, 4), Fraction(5, 4), Fraction(9, 4)):
        states += graded_states("V_L2+a/2", w)
    # a mixture of weights and charges with an odd-q8 term
    states.append(State.basis((2, 1), Fraction(1, 8), sc(Fraction(-3, 5)))
                  + State.basis((3,), Fraction(-1, 2), I) + J)
    states += [named_vector(name) for name in
               ("J", "E", "W", "u9", "u16", "hprime")]
    for v in states:
        for n in range(-6, 7):
            assert virasoro_mode(n, v) == mode_apply(OMEGA, n + 1, v)
    with pytest.raises(ModeLegalityError):
        virasoro_mode(Fraction(1, 2), E)
    assert virasoro_mode(Fraction(1, 2), State()) == State()


def test_virasoro_relations_on_three_charge_classes():
    # V_L2 (q8 = 0 mod 4), V_L2+a/2 (q8 = 2 mod 4), odd q8 (|1/8 b> sector)
    states = [
        State.basis((2, 1)) + State.basis((1,), 1, sc(3)) + J * I,
        State.basis((1, 1), Fraction(1, 4)) + State.basis((), Fraction(-3, 4), sc(-2)),
        State.basis((3,), Fraction(1, 8)) + State.basis((1, 1), Fraction(-7, 8), sc(5)),
    ]
    for v in states:
        for m in range(-3, 4):
            for n in range(-3, 4):
                lhs = (virasoro_mode(m, virasoro_mode(n, v))
                       - virasoro_mode(n, virasoro_mode(m, v)))
                rhs = virasoro_mode(m + n, v) * sc(m - n)
                if m + n == 0:
                    rhs = rhs + v * sc(Fraction(m ** 3 - m, 12))
                assert lhs == rhs, (m, n, v)
    # L(0) reads the weight of every monomial up to weight 5
    for q8 in range(-8, 9):
        for s in range(6):
            if Fraction(q8 * q8, 16) + s > 5:
                continue
            for lam in partitions(s):
                b = State({(lam, q8): sc(1)})
                assert virasoro_mode(0, b) == b * sc(mono_weight((lam, q8)))


def test_rational_roots_scan_is_bounded():
    roots = [Fraction(s * k, 6) for k in range(1, 7) for s in (1, -1)]
    poly = [Fraction(1)]
    for r in roots:
        poly = [a - r * b for a, b in zip([Fraction(0)] + poly, poly + [Fraction(0)])]
    assert _rational_roots(poly) == sorted(roots)
    deg = len(poly) - 1
    assert _root_bound(poly) <= 2 * deg * max(abs(r) for r in roots)


def test_apply_word():
    w = apply_word([-2, -2], ONE_V)
    direct = virasoro_mode(-2, virasoro_mode(-2, ONE_V))
    assert w == direct
    assert apply_word([], E) == E
    # whole words on the planes against the step-by-step chain of the
    # general route omega(m + 1); [.., -1] reaches 0 on the vacuum
    words = ([-1, -2, -1], [-3, -1, 2], [0, -2, 1, -1], [2, 1, -1, -2],
             [-1, -1, -1, -1], [-2, -1], [3, -2, -2])
    mixed = (State.basis((2, 1), Fraction(1, 8), sc(Fraction(-3, 5)))
             + State.basis((3,), Fraction(-1, 2), I) + J)
    for v in (ONE_V, E, J, named_vector("u9"), mixed):
        for word in words:
            want = v
            for m in reversed(word):
                want = mode_apply(OMEGA, m + 1, want)
            assert apply_word(word, v) == want, (word, v)
    # the word stops at 0, so a later non-integer letter is never
    # applied; L(1) kills v = h(-2)|b/2> - (1/p) h(-1)^2|b/2>, p = sqrt2,
    # by cancellation
    v = (State.basis((2,), Fraction(1, 2))
         - State.basis((1, 1), Fraction(1, 2), SQRT2 * sc(Fraction(1, 2))))
    assert not mode_apply(OMEGA, 2, v)
    assert apply_word([Fraction(1, 2), 1], v) == State()
    assert apply_word([Fraction(1, 2), -1], ONE_V) == State()
    with pytest.raises(ModeLegalityError):
        apply_word([-1, Fraction(1, 2), -2], ONE_V)


def test_lattice_mode_values():
    # (E, E) = 2 shows up as the top pairing coefficient
    assert mode_apply(E, 7, E) == ONE_V * sc(2)
    assert mode_apply(E, 4, E).weight() == 3
    v = mode_apply(E, 3, E)
    assert v.coefficient((1, 1, 1, 1)) == sc(Fraction(16, 3))
    assert v.coefficient((2, 2)) == sc(2)
    assert v.coefficient((3, 1)) == sc(Fraction(16, 3))


def test_mode_legality():
    with pytest.raises(ModeLegalityError):
        mode_apply(E, Fraction(1, 2), E)
    with pytest.raises(ModeLegalityError):
        mode_apply(State.basis((1,)), Fraction(1, 3), ONE_V)


def test_float_mode_index_is_refused():
    hp = named_vector("hprime")
    y1 = named_vector("y1")
    for n in (0.1, 1.0, 0.5):
        with pytest.raises(TypeError):
            ModeIndex(n)
        with pytest.raises(TypeError):
            mode_apply(E, n, E)
        with pytest.raises(TypeError):
            twisted_mode_apply(E, n, y1, hp)
        with pytest.raises(TypeError):
            virasoro_mode(n, E)
    assert ModeIndex(Fraction(4, 2)) == 2
    assert ModeIndex("1/3") == Fraction(1, 3)


def test_theta_even_shortcut_agrees():
    # the fast path needs u supported away from charge zero
    rng = random.Random(90125)
    targets = [E, J, named_vector("u0"), OMEGA]
    for _ in range(6):
        v = targets[rng.randrange(len(targets))]
        n = rng.randint(0, 3)
        assert mode_apply_theta_even(E, n, v) == mode_apply(E, n, v)
    with pytest.raises(ValueError):
        mode_apply_theta_even(J, 0, J)


def test_zero_mode_decompose_and_exp():
    hp = named_vector("hprime")
    pieces = zero_mode_decompose(hp, E)
    assert set(pieces) == {Fraction(1, 3), Fraction(-1, 3),
                           Fraction(2, 3), Fraction(-2, 3)}
    assert sum(pieces.values(), State()) == E
    for lam, piece in pieces.items():
        img = mode_apply(hp, 0, piece)
        assert img == piece * sc(lam)
    g = zero_mode_exp(hp, E)
    direct = sum((piece * exp_two_pi_i(lam)
                  for lam, piece in pieces.items()), State())
    assert g == direct


def test_sigma_has_order_three_on_E():
    hp = named_vector("hprime")
    v = E
    for _ in range(3):
        v = zero_mode_exp(hp, v)
    assert v == E


def test_rational_power_series():
    s = RationalPowerSeries([(Fraction(0), ONE_V), (Fraction(1, 2), E)])
    assert s.coefficient(Fraction(0)) == ONE_V
    assert s.coefficient(Fraction(1, 2)) == E
    assert s.coefficient(Fraction(1, 3)) == State()
    t = RationalPowerSeries([(Fraction(1, 2), E), (Fraction(0), ONE_V)])
    assert s == t
    assert s != RationalPowerSeries([(Fraction(0), ONE_V)])
    with pytest.raises(ValueError):
        RationalPowerSeries([(Fraction(0), ONE_V), (Fraction(0), E)])


def test_delta_apply_series():
    hp = named_vector("hprime")
    a = delta_apply(hp, named_vector("x1"))
    b = delta_apply(hp, named_vector("x1"))
    assert a == b
    r3 = (sixth_root(1) - sixth_root(5)) * I * sc(-1)
    assert r3 * r3 == sc(3)
    lead = a.coefficient(Fraction(-1))
    assert lead == ONE_V * sqrt2_power(1) * r3 * sc(Fraction(1, 18))
    assert a.coefficient(Fraction(1, 2)) == State()


def _delta_by_krylov(hvec, v):
    """Li's shift operator with z^{hvec(0)} split by the Krylov route
    `zero_mode_decompose`: the oracle of `delta_apply`."""
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
                    nxt[e - k] = nxt[e - k] + img if e - k in nxt else img
                k += 1
        current = {e: st for e, st in nxt.items() if st}
        for e, st in current.items():
            pieces[e] = pieces[e] + st if e in pieces else st
    out = {}
    for e, st in pieces.items():
        for lam, piece in zero_mode_decompose(hvec, st).items():
            key = e + lam
            out[key] = out[key] + piece if key in out else piece
    return RationalPowerSeries(sorted(out.items()))


def test_delta_apply_matches_krylov_route():
    hp = named_vector("hprime")
    cases = []
    # the catalog's pairs (eq-5.2 to eq-5.9), then further test inputs
    for s in (hp, -hp):
        cases += [(s, named_vector(n)) for n in ("omega", "y1", "y2")]
        cases.append((s, s))
        cases += [(s, named_vector(n))
                  for n in ("x1", "E", "J", "w1", "w2", "u9")]
        # weight-mixed inputs: one exponential per weight-homogeneous part
        cases += [(s, named_vector(a) + named_vector(b))
                  for a, b in (("omega", "y1"), ("hprime", "J"), ("u9", "E"))]
    cases += [(named_vector("h"), ONE_V), (named_vector("h") * SQRT2, E)]
    for hvec, v in cases:
        got = delta_apply(hvec, v)
        assert got == _delta_by_krylov(hvec, v), (hvec, v)
        assert got.terms
    for name in ("y1", "E", "omega"):
        with pytest.raises(ValueError, match="multiple"):
            delta_apply(named_vector(name), ONE_V)
    assert delta_apply(hp, State()) == RationalPowerSeries([])
    # h'(1) has e^{+-a} terms, which have no integral mode on charge b/8
    with pytest.raises(ModeLegalityError, match="1/8"):
        delta_apply(hp, State.basis((1,), Fraction(1, 8)))


def test_delta_apply_off_the_sixth_grid():
    # h'/2 on the charge-1/4 top: eigenvalues +-1/12, which the Krylov
    # root scan on (1/6)Z refuses
    half = named_vector("hprime") * sc(Fraction(1, 2))
    for v in (named_vector("w1"), named_vector("w2")):
        with pytest.raises(ArithmeticError):
            zero_mode_decompose(half, v)
        got = delta_apply(half, v)
        assert {e for e, _ in got} <= {Fraction(1, 12), Fraction(-1, 12)}
        assert sum((st for _, st in got), State()) == v
        for e, st in got:
            assert mode_apply(half, 0, st) == st * sc(e)
    # an irrational eigenvalue: h(0) is 2 sqrt2 on charge b
    with pytest.raises(ArithmeticError, match="rational"):
        delta_apply(named_vector("h"), E)


def test_twisted_weight_eigenvector():
    hp = named_vector("hprime")
    y1 = named_vector("y1")
    assert twisted_weight(y1, hp) == y1 * sc(Fraction(49, 36))
    # charges outside (1/4)Z b: the h' shift refuses them, an h shift
    # gives 1/16 + 1/2 + sqrt2/4 on |b/8> and 1/4 + 1/2 + sqrt2/2 on |b/4>
    eighth, quarter = State.basis((), Fraction(1, 8)), State.basis((), Fraction(1, 4))
    for v in (eighth, quarter + eighth):
        with pytest.raises(ModeLegalityError, match="charge 1/8b"):
            twisted_weight(v, hp)
    h = named_vector("h")
    low = sc(Fraction(9, 16)) + SQRT2 * sc(Fraction(1, 4))
    assert twisted_weight(eighth, h) == eighth * low
    assert twisted_weight(quarter + eighth, h) == \
        eighth * low + quarter * (sc(Fraction(3, 4)) + SQRT2 * sc(Fraction(1, 2)))
    with pytest.raises(ModeLegalityError):
        twisted_mode_apply(E, Fraction(1, 5), ONE_V, hp)


def _binom(m, j):
    """binom(m, j) for a rational m."""
    out = Fraction(1)
    for i in range(j):
        out = out * (m - i) / (i + 1)
    return out


@pytest.mark.parametrize("s", [Fraction(1), Fraction(1, 2)])
def test_twisted_commutator_formula(s):
    # [u_m, v_n] w = sum_{j >= 0} binom(m, j) (u_(j) v)_{m+n-j} w for the
    # twisted modes u_m of the s h' shift: the axiom behind Li's Delta
    # (`delta_apply`) and the shifted indices of `twisted_mode_apply`
    hvec = named_vector("hprime") * sc(s)
    vec = {name: named_vector(name)
           for name in ("y1", "y2", "hprime", "omega", "one", "w1")}
    grid = [Fraction(k, 6) for k in range(-12, 12)]

    def mode(u, m, w):
        return twisted_mode_apply(u, m, w, hvec)

    # u_m w for every operator, index and w; None where it is undefined
    single = {}
    for u in ("y1", "y2", "hprime", "omega"):
        for m in grid:
            for w in ("one", "y1", "w1"):
                try:
                    single[u, m, w] = mode(vec[u], m, vec[w])
                except ModeLegalityError:
                    single[u, m, w] = None
    legal = nonzero = 0
    for u, v in (("y1", "y2"), ("y2", "y1"), ("hprime", "y1"),
                 ("omega", "y2"), ("y1", "y1")):
        prods = [mode_apply(vec[u], j, vec[v]) for j in range(8)]
        for w in ("one", "y1", "w1"):
            for m in grid:
                for n in grid:
                    um, vn = single[u, m, w], single[v, n, w]
                    if um is None or vn is None:
                        continue
                    legal += 1
                    lhs = mode(vec[u], m, vn) - mode(vec[v], n, um)
                    rhs = State()
                    for j, p in enumerate(prods):
                        if p:
                            rhs = rhs + mode(p, m + n - j, vec[w]) * sc(_binom(m, j))
                    assert lhs == rhs, (u, v, w, m, n)
                    nonzero += bool(lhs)
    assert (legal, nonzero) == (240, 110)


def _parity_exponent(udegs, vdegs, degs):
    """t such that the h-basis amplitude of a pair is its parity-basis
    amplitude times sqrt2^t: (k & 1) - (ku & 1) - (kv & 1) for the part
    counts of the output, u and v."""
    return (len(degs) & 1) - (len(udegs) & 1) - (len(vdegs) & 1)


def per_contribution(u, n, v):
    """mode_apply by the per-contribution route: each pair amplitude is
    taken from the parity basis to the h basis, promoted to a Scalar by
    mul_rat_sqrt2 and summed as Scalars.

    Returns (state, number of legal pairs, output monomials touched).
    """
    out = {}
    legal = 0
    for (udegs, a8), cu in u.terms.items():
        for (vdegs, q8), cv in v.terms.items():
            pair = _pair_modes(udegs, a8, _pack(vdegs, q8), ModeIndex(n))
            if pair is None:
                continue
            legal += 1
            den, amps = pair
            cc = cu * cv
            for key, amp in amps.items():
                m = _unpack(key)
                e = _parity_exponent(udegs, vdegs, m[0])
                out[m] = out.get(m, ZERO) + cc.mul_rat_sqrt2(Fraction(amp, den), e)
    return State({m: c for m, c in out.items() if c}), legal, set(out)


def assert_same_as_per_contribution(u, n, v):
    got = mode_apply(u, n, v)
    want, legal, touched = per_contribution(u, n, v)
    assert legal
    assert got == want
    assert all(got.terms.values())
    return got, touched


def test_integer_accumulation_matches_per_contribution_route():
    hp = named_vector("hprime")
    for w in range(5):
        for b in graded_states("V_Zb", w):
            for n in (-1, 0, 1):
                assert_same_as_per_contribution(hp, n, b)
    # quarter charges with sqrt3 and i in the coefficients
    w1, w2 = named_vector("w1"), named_vector("w2")
    for k in range(-5, 1):
        n = Fraction(2 * k - 1, 2)
        for a, b in ((w1, w2), (w2, w1), (w1, w1)):
            assert_same_as_per_contribution(a, n, b)
    # odd powers of sqrt2 in the coefficients and in the amplitudes
    u9 = named_vector("u9")
    for n in range(12, 18):
        assert_same_as_per_contribution(u9, n, u9)
    # contributions of the two charge pairings cancel on some monomials
    got, touched = assert_same_as_per_contribution(E, 5, E)
    assert touched - set(got.terms)
    got, touched = assert_same_as_per_contribution(u9, 16, u9)
    assert touched and not got


def test_delta_cache_is_bounded():
    h = named_vector("h")
    cap = delta_apply.cache_info().maxsize
    assert cap
    for k in range(1, cap + 10):
        v = ONE_V * sc(k)
        assert delta_apply(h, v) == RationalPowerSeries([(0, v)])
    assert delta_apply.cache_info().currsize <= cap


def _expansion(udegs, a8, n, vkey):
    """The engine's read of one pair: the table of its operator at vkey."""
    return vertexengine._table(udegs, a8, n)[vkey]


def _is_stored(key):
    """Whether the table of key = (udegs, a8, n, vkey) holds vkey."""
    return key[3] in vertexengine._tables.get(key[:3], {})


def _stored(key):
    """The expansion stored for key = (udegs, a8, n, vkey), read without
    computing it; KeyError if none is stored."""
    if not _is_stored(key):
        raise KeyError(key)
    return vertexengine._tables[key[:3]][key[3]]


def _held(tables):
    """The entries held by the given tables, in all."""
    return sum(map(len, tables))


def _cold_tables(monkeypatch):
    """Give the engine empty tables for the rest of the test."""
    monkeypatch.setattr(vertexengine, "_tables", {})
    monkeypatch.setattr(vertexengine, "_stored", 0)


def test_pure_exp_cache_is_bounded():
    # e^{(a8/8)b}(n)|e^{(q8/8)b}> with creation degree
    # c = -n - 1 - a8 q8 / 8 in 0..2: every pair is legal, and there are
    # more keys than the bound of the pair tables holds
    cap = vertexengine._MEMO_ENTRIES
    assert cap
    keys = [(a8, -1 - a8 * q8 // 8 - c, _pack((), q8))
            for a8 in (8, -8, 16, -16, 24, -24, 32, -32)
            for q8 in range(-127, 128) if abs(q8 + a8) < 128
            for c in range(3)]
    assert len(keys) > cap
    for a8, n, vkey in keys:
        assert _expansion((), a8, n, vkey) == _pair_modes((), a8, vkey, n)
    assert _held(vertexengine._tables.values()) == vertexengine._stored <= cap
    # the evicted first keys are computed again, to the same values
    for a8, n, vkey in keys[:10]:
        assert _expansion((), a8, n, vkey) == _pair_modes((), a8, vkey, n)


def test_tables_hold_at_most_the_bound(monkeypatch):
    # seeded states on one plane and on several, under operators with
    # both signs of charge, with the bound lowered so that the tables
    # fill past it many times: at every expansion the engine computes,
    # the entries of every table it has handed out, the emptied ones
    # included, are those of the registered tables, the counted ones, and
    # stay within the bound; and every result is the one computed with
    # the full bound, where no pair is computed twice
    rng = random.Random(20261021)
    states = [b for w in range(1, 5) for b in graded_states("V_Zb", w)]
    states += [_rich_state(rng, "V_L2", w) for w in range(1, 6)]
    ops = [(named_vector("hprime"), n) for n in (-1, 0, 1)]
    ops += [(E, -1), (J, -2), (E + J, 1), (named_vector("W"), 0)]
    # f + e with f's term first: f reads e's table before e's op does
    fe = State.basis((), Fraction(-1, 2)) + State.basis((), Fraction(1, 2))
    assert next(iter(fe.terms))[1] < 0
    ops.append((fe, 0))

    def run():
        out = [mode_apply(u, n, v) for u, n in ops for v in states]
        out += [charge_chain([(-4, sc(Fraction(-1, 2))), (4, sc(1))], v)
                for v in states]
        return out + [charge_chain([(-4, vertexengine._C),
                                    (4, vertexengine._U)], v)
                      for v in states]

    table, pair_modes = vertexengine._table, vertexengine._pair_modes
    computed = []

    def counted_pair_modes(*args):
        computed.append(args)
        return pair_modes(*args)

    _cold_tables(monkeypatch)
    monkeypatch.setattr(vertexengine, "_pair_modes", counted_pair_modes)
    want = run()
    cap = 40
    assert vertexengine._stored > 3 * cap
    assert len(set(computed)) == len(computed)
    _cold_tables(monkeypatch)
    monkeypatch.setattr(vertexengine, "_MEMO_ENTRIES", cap)
    seen = {}

    def seen_table(*op):
        out = table(*op)
        seen[id(out)] = out
        return out

    held = []

    def within_bound():
        held.append(_held(seen.values()))
        assert held[-1] == _held(vertexengine._tables.values())
        assert held[-1] == vertexengine._stored <= cap
        return True

    def checked_pair_modes(*args):
        assert within_bound()
        return pair_modes(*args)

    monkeypatch.setattr(vertexengine, "_table", seen_table)
    monkeypatch.setattr(vertexengine, "_pair_modes", checked_pair_modes)
    assert run() == want
    assert within_bound()
    assert max(held) == cap and len(held) > 3 * cap


def test_tables_held_across_a_clear(monkeypatch):
    # with the bound lowered to 3, the store that would pass it empties
    # every table and the registry, which then holds only the tables
    # registered since.  A table its caller held across the clear
    # registers itself again on its next store while its operator has no
    # new table; once it has one, the held table computes each read
    # afresh and stores nothing
    _cold_tables(monkeypatch)
    monkeypatch.setattr(vertexengine, "_MEMO_ENTRIES", 3)
    op, other, lone = ((), 8, -4), ((), 16, -4), ((), 24, -4)
    held, kept = vertexengine._table(*op), vertexengine._table(*lone)
    keys = [_pack((), q8) for q8 in range(3)]
    for vkey in keys:
        held[vkey]
    assert len(held) == vertexengine._stored == 3
    _expansion(*other, keys[0])
    assert not held and not kept
    assert list(vertexengine._tables) == [other]
    assert vertexengine._stored == 1
    new = vertexengine._table(*op)
    assert new is not held and vertexengine._tables[op] is new
    for vkey in keys:
        assert held[vkey] == _pair_modes(*op[:2], vkey, op[2])
    assert not held and not new and vertexengine._stored == 1
    assert kept[keys[1]] == _pair_modes(*lone[:2], keys[1], lone[2])
    assert vertexengine._tables[lone] is kept and _is_stored((*lone, keys[1]))
    assert set(vertexengine._tables) == {other, op, lone}
    assert vertexengine._stored == 2


def _term_pairs(u, n, v):
    """(udegs, a8, n, packed v monomial) for every term pair of u(n)v."""
    return [(udegs, a8, n, _pack(vdegs, q8))
            for udegs, a8 in u.terms for vdegs, q8 in v.terms]


def test_memo_hit_is_the_uncached_expansion():
    # the seeded family of `_seeded_pairs` and the inputs of u16, every
    # term pair of J(-9)J and E(-9)E: a stored expansion is returned as
    # stored, equal to a fresh `_pair_modes`
    pairs = [(udegs, a8, n, _pack(vdegs, q8))
             for udegs, a8, vdegs, q8, n in _seeded_pairs()]
    pairs += _term_pairs(J, -9, J) + _term_pairs(E, -9, E)
    stored = 0
    for key in pairs:
        udegs, a8, n, vkey = key
        want = _pair_modes(udegs, a8, vkey, n)
        got = _expansion(*key)
        assert got == want
        if want is not None and len(want[1]) > vertexengine._MEMO_KEYS:
            continue
        assert _stored(key) is got
        assert _expansion(*key) is got
        stored += 1
    assert stored > len(pairs) // 2


def test_memo_skips_large_expansions():
    # the 98 pairs of u9(-3)u9 with more than 256 output keys (626 and
    # up) are computed each time and never stored
    u9 = named_vector("u9")
    large = [key for key in _term_pairs(u9, -3, u9)
             if len(_pair_modes(key[0], key[1], key[3], key[2])[1])
             > vertexengine._MEMO_KEYS]
    assert len(large) == 98
    for key in large[:3]:
        got = _expansion(*key)
        assert got == _pair_modes(key[0], key[1], key[3], key[2])
        assert not _is_stored(key)


def test_engine_leaves_stored_expansions_unchanged(monkeypatch):
    # the engine only reads the amps it is handed: after mode_apply,
    # twisted_mode_apply and an exponential chain have used the tables
    # twice, every stored expansion still equals a fresh one
    _cold_tables(monkeypatch)
    u9 = named_vector("u9")
    for _ in range(2):
        mode_apply(J, -9, J)
        mode_apply(u9, 12, u9)
        mode_apply_theta_even(E, -9, E)
        charge_chain([(-4, sc(Fraction(-1, 2))), (4, sc(1))], J + E)
        twisted_mode_apply(E, Fraction(1, 3), named_vector("y1"),
                           named_vector("hprime"))
    assert vertexengine._stored > 50
    for (udegs, a8, n), table in vertexengine._tables.items():
        for vkey, out in table.items():
            assert out == _pair_modes(udegs, a8, vkey, n)


def test_conjugate_route_is_the_direct_expansion(monkeypatch):
    # a negative charge is read off the theta-conjugate pair: over the
    # seeded family with both signs of a8 and of q8, each at its legal n
    # and at an illegal one, and every term pair of E(-9)E and J(-9)J,
    # the memoized expansion equals a fresh `_pair_modes`, a None on
    # either side included, and both signs are stored where they have at
    # most _MEMO_KEYS keys
    _cold_tables(monkeypatch)
    pairs = []
    for udegs, a8, vdegs, q8, n in _seeded_pairs():
        for s, t in itertools.product((1, -1), repeat=2):
            vkey = _pack(vdegs, t * q8)
            pairs += [(udegs, s * a8, n, vkey),
                      (udegs, s * a8, n + Fraction(1, 3), vkey)]
    pairs += _term_pairs(E, -9, E) + _term_pairs(J, -9, J)
    kinds = set()
    for key in pairs:
        udegs, a8, n, vkey = key
        want = _pair_modes(udegs, a8, vkey, n)
        assert _expansion(*key) == want, key
        if want is not None and len(want[1]) > vertexengine._MEMO_KEYS:
            continue
        assert _stored(key) == want
        if a8 < 0:
            conj = (udegs, -a8, n, _conjugate(vkey))
            assert _stored(conj) == _pair_modes(udegs, -a8, conj[3], n)
            kinds.add((bool(udegs), type(n), want is None))
    # with and without derivative fields: legal at an integer and at a
    # fractional n, and illegal
    assert kinds == {(d, t, z) for d in (False, True) for t, z in
                     ((int, False), (Fraction, False), (Fraction, True))}


def test_conjugate_route_skips_large_expansions():
    # a negative-charge pair of u9(-3)u9 above 256 output keys is computed
    # through its conjugate, and neither sign is stored
    u9 = named_vector("u9")
    large = [key for key in _term_pairs(u9, -3, u9) if key[1] < 0
             and len(_pair_modes(key[0], key[1], key[3], key[2])[1])
             > vertexengine._MEMO_KEYS]
    assert large
    udegs, a8, n, vkey = large[0]
    conj = (udegs, -a8, n, _conjugate(vkey))
    assert _expansion(*large[0]) == _pair_modes(udegs, a8, vkey, n)
    assert not _is_stored(large[0])
    assert not _is_stored(conj)


def test_conjugate_route_errors_name_the_requested_charge():
    # the conjugate pair has the opposite output charge: a width error
    # still names the requested one, and an illegal pair stays illegal
    with pytest.raises(KeyWidthError, match=r"^charge -16 is outside the"):
        mode_apply(State.basis((), Fraction(-120, 8)), -121, State.basis((), -1))
    with pytest.raises(KeyWidthError, match=r"^charge 16 is outside the"):
        mode_apply(State.basis((), 15), -121, State.basis((), 1))
    with pytest.raises(KeyWidthError, match=r"^monomial degree 70 exceeds"):
        mode_apply(State.basis((1,) * 40, -1), -1, State.basis((1,) * 30))
    with pytest.raises(ModeLegalityError,
                       match=r"^mode 0 is not defined on this pair$"):
        mode_apply(State.basis((), Fraction(-1, 8)), 0,
                   State.basis((), Fraction(1, 8)))


def _rich_state(rng, name, w):
    """A seeded state on up to four monomials of the weight-w space of
    name, each coefficient with two or three nonzero coordinates over its
    own denominator, so the state lies on several planes."""
    terms = {}
    basis = graded_monomials(name, w)
    for m in rng.sample(basis, min(4, len(basis))):
        num = [0] * 8
        for j in rng.sample(range(8), rng.randint(2, 3)):
            num[j] = rng.randint(-9, 9) or 1
        terms[m] = Scalar(num, rng.randint(1, 12))
    return State(terms)


def _exp_by_term_list(ops, den, planes):
    """exp(X) summed the way `_exp_planes` did before its running sum:
    each trimmed series term kept as (1/den, planes), then one
    `_sum_planes` and one `_trim`.  Also returns how many terms have a
    denominator that does not divide the lcm of those before it, that
    is how often the running sum rescales its entries."""
    terms = [(Fraction(1, den), planes)]
    lcm = den
    grows = k = 0
    while planes:
        k += 1
        den, nxt, _, _ = vertexengine._apply_planes(ops, den, planes)
        den, planes = _trim(den * k, nxt)
        terms.append((Fraction(1, den), planes))
        if lcm % den:
            grows += 1
            lcm = math.lcm(lcm, den)
    return _trim(*_sum_planes(terms)), grows


def test_running_sum_exponential_matches_term_list():
    # the factors of sigma (x = -1/2) and of the frame (_C, _U) on e and
    # f, and the 1/k of Li's shift on h' and h, over seeded multi-plane
    # states: the running sum equals the term list, rescales on the way,
    # and leaves its input planes as they were
    rng = random.Random(20261020)
    weights = [("V_L2", w) for w in range(1, 7)]
    weights += [("V_L2+a/2", Fraction(k, 4)) for k in (1, 5, 9, 13)]
    states = [_rich_state(rng, name, w) for name, w in weights
              for _ in range(3)]
    opsets = [[(vertexengine._table((), a8, 0), x)]
              for a8 in (4, -4)
              for x in (vertexengine._C, vertexengine._U, sc(Fraction(-1, 2)))]
    for hvec in (named_vector("hprime"), named_vector("h")):
        opsets.append([(amps, x * sc(Fraction((-1) ** (k + 1), k)))
                       for k in range(1, 8)
                       for amps, x in vertexengine._mode_ops(hvec, k)])
    grows = 0
    for v in states:
        den, planes = v.packed
        assert len(planes) > 1
        before = {p: dict(plane) for p, plane in planes.items()}
        for ops in opsets:
            want, g = _exp_by_term_list(ops, den, planes)
            assert vertexengine._exp_planes(ops, den, planes) == want
            grows += g
        assert planes == before
    assert grows > 100


def test_twisted_mode_matches_per_contribution_route():
    hp = named_vector("hprime")
    y1 = named_vector("y1")
    n = Fraction(1, 3)
    want = State()
    for e, w in delta_apply(hp, E):
        want = want + per_contribution(w, n + e, y1)[0]
    got = twisted_mode_apply(E, n, y1, hp)
    assert got and got == want
    assert all(got.terms.values())


# --------------------------------------------------------------------------
# The tuple-keyed expansion the packed engine replaced, kept as its
# oracle: monomials are (descending degs, q8) tuples throughout.

_TUPLE_EMINUS = {}
_TUPLE_CREATION = {}


def _tuple_counts(degs):
    out = {}
    for d in degs:
        out[d] = out.get(d, 0) + 1
    return out


def _tuple_eminus(c):
    hit = _TUPLE_EMINUS.get(c)
    if hit is not None:
        return hit
    out = []
    for lam in partitions(c):
        denom = 1
        for d, run in _tuple_counts(lam).items():
            denom *= d ** run * math.factorial(run)
        out.append((lam, len(lam), math.factorial(c) // denom))
    _TUPLE_EMINUS[c] = out
    return out


def _tuple_creation(pending, c_target):
    key = (pending, c_target)
    hit = _TUPLE_CREATION.get(key)
    if hit is not None:
        return hit
    out = {}
    if not pending:
        for lam, s, coeff in _tuple_eminus(c_target):
            k = (lam, s)
            out[k] = out.get(k, 0) + coeff
    else:
        n0 = pending[0]
        rest = pending[1:]
        min_rest = sum(rest)
        for k in range(n0, c_target - min_rest + 1):
            f = math.comb(k - 1, n0 - 1) * math.perm(c_target, k)
            if not f:
                continue
            for (degs, s), c in _tuple_creation(rest, c_target - k).items():
                degs2 = tuple(sorted(degs + (k,), reverse=True))
                k2 = (degs2, s)
                out[k2] = out.get(k2, 0) + f * c
    _TUPLE_CREATION[key] = out
    return out


def _tuple_live(udegs, a8, vdegs, q8, n):
    """The live branches (rem, pend, c, e2, amp) of the tuple oracle's
    phase three, unmerged, or None for an illegal pair."""
    if type(n) is int:
        c0, frac = divmod(-8 * (n + 1) - a8 * q8, 8)
        if frac:
            return None
    else:
        c0f = -n - 1 - Fraction(a8 * q8, 8)
        if c0f.denominator != 1:
            return None
        c0 = int(c0f)
    vcounts = _tuple_counts(vdegs)
    distinct = sorted(vcounts)
    branches = [((), 1, 0, 0)]
    for d in distinct:
        m = vcounts[d]
        jmax = m if a8 else 0
        nxt = []
        for removed, amp, e2, csh in branches:
            for j in range(jmax + 1):
                f = math.comb(m, j) * (-a8) ** j
                nxt.append((removed + (j,), amp * f, e2 + j, csh + d * j))
        branches = nxt
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
    return [(rem, pend, csh + sum(pend), e2, amp)
            for (rem, pend, csh, e2), amp in states.items()
            if amp and csh + sum(pend) >= 0]


def _tuple_pair_modes(udegs, a8, vdegs, q8, n):
    live = _tuple_live(udegs, a8, vdegs, q8, n)
    if live is None:
        return None
    q8out = q8 + a8
    even, odd = {}, {}
    if live:
        cmax = max(t[2] for t in live)
        emax = max(t[3] for t in live) + (cmax if a8 else 0)
        for rem, pend, c_target, e2, amp in live:
            amp *= math.perm(cmax, cmax - c_target)
            for (extra, s), cx in _tuple_creation(pend, c_target).items():
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
    return (den // g, {key: amp // g for key, amp in even.items()},
            {key: amp // g for key, amp in odd.items()})


def _h_basis(udegs, vdegs, den, amps):
    """The tuple oracle's (den, even, odd) form of the parity-basis map
    amps / den of one pair: the h-basis amplitude is amps / den times
    sqrt2^t (`_parity_exponent`), so it lands in the even or the odd map
    by the parity of t alone, which is the parity rule the oracle checks.
    Over 2 den, 2 sqrt2^t = 2^((t + 2) >> 1) sqrt2^(t & 1) for t >= -2."""
    even, odd = {}, {}
    for key, a in amps.items():
        m = _unpack(key)
        t = _parity_exponent(udegs, vdegs, m[0])
        (odd if t & 1 else even)[m] = a << (t + 2 >> 1)
    g = math.gcd(2 * den, *even.values(), *odd.values())
    return (2 * den // g, {m: a // g for m, a in even.items()},
            {m: a // g for m, a in odd.items()})


def assert_packed_matches_tuple_oracle(u, n, v):
    """Every term pair of u(n)v: the packed `_pair_modes` and the tuple
    oracle agree on legality, den and the even/odd maps of the h basis
    (`_h_basis`).  Returns the number of pairs compared."""
    n = ModeIndex(n)
    count = 0
    for udegs, a8 in u.terms:
        for vdegs, q8 in v.terms:
            got = _pair_modes(udegs, a8, _pack(vdegs, q8), n)
            want = _tuple_pair_modes(udegs, a8, vdegs, q8, n)
            if want is None:
                assert got is None
                continue
            assert _h_basis(udegs, vdegs, *got) == want, (udegs, a8, vdegs, q8, n)
            count += 1
    return count


def _seeded_pairs():
    """400 seeded monomial pairs over every charge class, as
    (udegs, a8, vdegs, q8, n): q8 in each residue mod 8, a8 in
    {0, +-1, +-2, +-3, +-4, +-8}, u with 0..3 derivative fields, v up to
    weight 8 (deg + q8^2/16), each at a legal integer or fractional n.
    Then three fixed pairs whose live branches differ only by 2 or 4 in
    e2, so that phase three merges them: two u fields through the charge
    channel against one contraction of phase one and one annihilation."""
    rng = random.Random(20261019)
    pairs = []
    for _ in range(400):
        a8 = rng.choice((0, 1, -1, 2, -2, 3, -3, 4, -4, 8, -8))
        q8 = rng.randint(-11, 11)
        udegs = tuple(sorted((rng.randint(1, 4)
                              for _ in range(rng.randint(0, 3))), reverse=True))
        vdegs = rng.choice(list(partitions(
            rng.randint(0, (128 - q8 * q8) // 16))))
        c0 = rng.randint(-sum(udegs) - sum(vdegs) - 1, 3)
        pairs.append((udegs, a8, vdegs, q8, c0))
    pairs += [((1, 1), 4, (1,), 2, -3), ((1, 1), -4, (1, 1), -2, -2),
              ((2, 1, 1), 2, (2, 1), 3, -3)]
    return [(udegs, a8, vdegs, q8, ModeIndex(-1 - c0 - Fraction(a8 * q8, 8)))
            for udegs, a8, vdegs, q8, c0 in pairs]


def test_packed_pair_modes_match_tuple_oracle():
    # the inputs of u16: every term pair of J(-9)J and E(-9)E
    for x in (J, E):
        assert assert_packed_matches_tuple_oracle(x, -9, x)
    # the 98 positive-charge pairs of u9(-3)u9
    u9 = named_vector("u9")
    pos = State({m: c for m, c in u9.terms.items() if m[1] > 0})
    assert assert_packed_matches_tuple_oracle(pos, -3, u9) == 98
    # e^{+-a}(0) on every V_Zb monomial at weights 0..8 (sigma's inputs)
    monos = State({m: c for w in range(9) for b in graded_states("V_Zb", w)
                   for m, c in b.terms.items()})
    for a8 in (4, -4):
        ea = State.basis((), Fraction(a8, 8))
        assert assert_packed_matches_tuple_oracle(ea, 0, monos)
    # h' at n = -1, 0, 1 on V_Zb at weights <= 4
    hp = named_vector("hprime")
    small = State({m: c for w in range(5) for b in graded_states("V_Zb", w)
                   for m, c in b.terms.items()})
    for n in (-1, 0, 1):
        assert assert_packed_matches_tuple_oracle(hp, n, small)
    # the seeded family, each pair at its legal n and at an illegal one
    residues, kinds = set(), set()
    for udegs, a8, vdegs, q8, n in _seeded_pairs():
        u = State.basis(udegs, Fraction(a8, 8))
        v = State.basis(vdegs, Fraction(q8, 8))
        assert assert_packed_matches_tuple_oracle(u, n, v) == 1
        assert assert_packed_matches_tuple_oracle(u, n + Fraction(1, 3), v) == 0
        residues.add(q8 % 8)
        kinds.add(type(n))
    assert residues == set(range(8)) and kinds == {int, Fraction}


def test_phase_three_merges_branches_apart_by_two_in_e(monkeypatch):
    # the pairs of `_seeded_pairs` with live branches that differ only by
    # 2 or 4 in e2 (the three fixed ones and many seeded ones):
    # `_pair_modes` reads one creation table per class
    # (rem, pend, c, e2 mod 2), fewer than the branches, and its
    # expansion is still the tuple oracle's
    reads = []
    creation = vertexengine._creation

    def counted(*args):
        reads.append(args)
        return creation(*args)

    gaps = set()
    merging = 0
    for udegs, a8, vdegs, q8, n in _seeded_pairs():
        branches = [b for b in _tuple_live(udegs, a8, vdegs, q8, n)
                    if b[2] >= sum(b[1])]
        classes = {}
        for rem, pend, c, e2, _ in branches:
            classes.setdefault((rem, pend, c, e2 & 1), set()).add(e2)
        if len(classes) == len(branches):
            continue
        merging += 1
        gaps |= {max(e2s) - min(e2s) for e2s in classes.values()}
        u = State.basis(udegs, Fraction(a8, 8))
        v = State.basis(vdegs, Fraction(q8, 8))
        # the creation tables are cached by the first call, so the
        # counted second call reads each table once, with no recursion
        assert assert_packed_matches_tuple_oracle(u, n, v) == 1
        monkeypatch.setattr(vertexengine, "_creation", counted)
        reads.clear()
        assert assert_packed_matches_tuple_oracle(u, n, v) == 1
        monkeypatch.setattr(vertexengine, "_creation", creation)
        assert len(reads) <= len(classes) < len(branches)
    assert merging > 100 and gaps >= {2, 4}


def _flat(table):
    """{(degs, s): numerator} of a flat creation table."""
    return {(_unpack(extra)[0], s): c
            for s, degs, nums in table for extra, c in zip(degs, nums)}


def test_creation_cache_is_bounded():
    # two pending derivative orders a <= b under a cloud and creation
    # degree a + b + r, and the pure cloud at degrees 0..30: more keys
    # than the bound holds, each checked against the oracle
    cache = vertexengine._creation
    cap = cache.cache_info().maxsize
    assert cap
    keys = [((a, b), a + b + r) for b in range(1, 41) for a in range(1, b + 1)
            for r in range(3)] + [((), c) for c in range(31)]
    assert len(keys) > cap
    for key in keys:
        table = cache(*key, True)
        assert [s for s, _, _ in table] == sorted({s for s, _, _ in table})
        assert all(len(degs) == len(nums) for _, degs, nums in table)
        assert _flat(table) == _tuple_creation(*key), key
    assert cache.cache_info().currsize <= cap


def test_placements_are_the_cloud_free_creation_group():
    # a charge-zero operator reads the s = 0 group of the cloud table, in
    # the same order
    for size in range(5):
        for pend in itertools.combinations_with_replacement(range(1, 5), size):
            for c in range(15):
                groups = vertexengine._creation(pend, c, True)
                want = groups[:1] if groups and not groups[0][0] else ()
                got = vertexengine._creation(pend, c, False)
                assert got == want, (pend, c)


def test_charge_zero_mode_reads_no_creation(monkeypatch):
    # J's terms carry no charge: its pairs build no exponential cloud
    class Cloud(Exception):
        pass

    creation = vertexengine._creation

    def no_cloud(pending, c_target, cloud):
        if cloud:
            raise Cloud(pending, c_target)
        return creation(pending, c_target, cloud)

    _cold_tables(monkeypatch)
    creation.cache_clear()
    monkeypatch.setattr(vertexengine, "_creation", no_cloud)
    v = State.basis((2,), Fraction(1, 2))
    got = mode_apply(J, 2, v)
    assert str(got) == ("(8) h(-1)h(-1)h(-1)|1/2b> + (54√2) h(-2)h(-1)|1/2b>"
                        " + (-16) h(-3)|1/2b>")
    # a charged derivative-field product does build one
    with pytest.raises(Cloud):
        mode_apply(v, 1, State.basis((1,), Fraction(-1, 2)))


def test_placements_cache_is_bounded():
    # one or two pending orders with no cloud at creation degrees up to
    # 3 above their sum: more keys than the bound holds, each checked
    # against the oracle
    cache = vertexengine._creation
    cap = cache.cache_info().maxsize
    assert cap
    keys = [(pend, sum(pend) + r) for b in range(1, 51)
            for pend in [(b,)] + [(a, b) for a in range(1, b + 1)]
            for r in range(4)]
    assert len(keys) > cap
    for key in keys:
        table = cache(*key, False)
        assert all(not s for s, _, _ in table)
        assert _flat(table) == {k: c for k, c in _tuple_creation(*key).items()
                                if not k[1]}, key
    assert cache.cache_info().currsize <= cap


def test_packed_key_width_guard():
    top = (1,) * MAX_DEGREE
    for degs, q8 in ((top, 0), (top, 127), ((MAX_DEGREE,), -127), ((), 0),
                     ((5, 3, 3, 1), 8)):
        assert _unpack(_pack(degs, q8)) == (degs, q8)
    h = State.basis((1,))
    v63 = State.basis(top)
    v62 = State.basis(top[1:])
    assert mode_apply(h, 1, v63) == v62 * sc(MAX_DEGREE)
    assert mode_apply(h, -1, v62) == v63
    v64 = State.basis((1,) * (MAX_DEGREE + 1))
    with pytest.raises(KeyWidthError):
        mode_apply(h, 1, v64)
    with pytest.raises(KeyWidthError):
        virasoro_mode(1, v64)
    with pytest.raises(KeyWidthError):
        charge_chain([(4, sc(1))], v64)
    # outputs that would reach degree 64 raise too, not just inputs
    with pytest.raises(KeyWidthError):
        mode_apply(h, -1, v63)
    with pytest.raises(KeyWidthError):
        virasoro_mode(-1, v63)
    with pytest.raises(KeyWidthError):
        mode_apply(State.basis((), 1), -2, v63)
    # u is never packed: a degree-64 u is computed while its output
    # fits, and refused when its output would not
    h64 = State.basis((MAX_DEGREE + 1,))
    assert mode_apply(h64, MAX_DEGREE + 1, h) == State.basis(()) * sc(-64)
    with pytest.raises(KeyWidthError):
        mode_apply(h64, -1, State.basis(()))
    # a part 0 has no count field, in v or in u
    with pytest.raises(KeyWidthError):
        mode_apply(h, 1, State.basis((2, 0)))
    with pytest.raises(KeyWidthError):
        mode_apply(State.basis((1, 0)), 1, h)
    # and so do charges |q8| >= 128, in the input and in the output
    with pytest.raises(KeyWidthError):
        mode_apply(h, 0, State.basis((), 16))
    with pytest.raises(KeyWidthError):
        mode_apply(State.basis((), 1), -121, State.basis((), 15))
    assert mode_apply(State.basis((), 1), -113, State.basis((), 14)) \
        == State.basis((), 15)


def test_state_arithmetic_beyond_the_key_width_raises():
    # State arithmetic runs on the packed planes only, so a State beyond
    # the key width takes none, as the engine takes none as v; it is
    # still built, read and used as u (`test_packed_key_width_guard`)
    wide = State.basis((MAX_DEGREE + 1,))
    assert wide and str(wide) == "h(-64)|0>"
    with pytest.raises(KeyWidthError):
        wide + wide
    with pytest.raises(KeyWidthError):
        wide * sc(2)
    with pytest.raises(KeyWidthError):
        -wide
    # the involutions and the charge parts run on the planes too
    for transform in (theta, tau1, lambda v: lattice_component(v, 0)):
        with pytest.raises(KeyWidthError):
            transform(wide)
    with pytest.raises(KeyWidthError):
        wide == State.basis((1,))
    # a State hashes by its planes, so it is no cache key either
    with pytest.raises(KeyWidthError):
        hash(wide)
