"""Mode actions: untwisted, theta-even shortcut, zero modes, twisted shifts."""

import random
from fractions import Fraction

import pytest

from voalab.exactfield import I, ZERO, exp_two_pi_i, sc, sixth_root, sqrt2_power
from voalab.fockspace import (
    State, graded_states, mono_weight, named_vector, partitions,
)
from voalab.vertexengine import (
    ModeIndex, ModeLegalityError, RationalPowerSeries, _pair_modes,
    _rational_roots, _root_bound, apply_word, delta_apply, mode_apply,
    mode_apply_theta_even, twisted_mode_apply, twisted_weight, virasoro_mode,
    zero_mode_decompose, zero_mode_exp,
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
    b = RationalPowerSeries([(Fraction(0), ONE_V)], bound=Fraction(2))
    assert s != b
    with pytest.raises(ValueError):
        RationalPowerSeries([(Fraction(0), ONE_V), (Fraction(0), E)])
    with pytest.raises(ValueError):
        b.coefficient(Fraction(5, 2))


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


def test_twisted_weight_eigenvector():
    hp = named_vector("hprime")
    y1 = named_vector("y1")
    assert twisted_weight(y1, hp) == y1 * sc(Fraction(49, 36))
    with pytest.raises(ModeLegalityError):
        twisted_mode_apply(E, Fraction(1, 5), ONE_V, hp)


def per_contribution(u, n, v):
    """mode_apply by the per-contribution route: each pair amplitude is
    promoted to a Scalar by mul_rat_sqrt2 and summed as Scalars.

    Returns (state, number of legal pairs, output monomials touched).
    """
    out = {}
    legal = 0
    for (udegs, a8), cu in u.terms.items():
        for (vdegs, q8), cv in v.terms.items():
            pair = _pair_modes(udegs, a8, vdegs, q8, ModeIndex(n))
            if pair is None:
                continue
            legal += 1
            den, even, odd = pair
            cc = cu * cv
            for e, amps in ((0, even), (1, odd)):
                for key, amp in amps.items():
                    out[key] = out.get(key, ZERO) + cc.mul_rat_sqrt2(Fraction(amp, den), e)
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
