"""Invariant form, primaries, vacuum module words, and the stripped
weight-16 generator."""

from fractions import Fraction

import pytest

from voalab import linalg, structure
from voalab.exactfield import I, ONE, SQRT2, SQRT3, SQRT6, ZERO, as_rational, sc
from voalab.fockspace import State, graded_states, named_vector, theta, tau1
from voalab.linalg import fixed_vectors
from voalab.structure import (
    build_u16, c_functional, decompose_over, gram_rational, is_primary,
    pair, vacuum_words, word_states, zlam,
)
from voalab.vertexengine import virasoro_mode

ONE_V = named_vector("one")
OMEGA = named_vector("omega")
E = named_vector("E")
J = named_vector("J")


def test_zlam_oscillator_norms():
    assert zlam(()) == 1
    assert zlam((1,)) == 1
    assert zlam((1, 1)) == 2
    assert zlam((2,)) == 2
    assert zlam((3, 2, 2, 1)) == 24
    for degs in [(1,), (2, 1), (3, 3), (4, 2, 1, 1)]:
        v = State.basis(degs)
        sign = -1 if len(degs) % 2 else 1
        assert pair(v, v) == sc(sign * zlam(degs))


def test_pair_values():
    assert pair(ONE_V, ONE_V) == ONE
    assert pair(OMEGA, OMEGA) == sc(Fraction(1, 2))
    assert pair(E, E) == sc(2)
    assert pair(J, J) == sc(54)
    assert pair(J, E) == ZERO
    assert pair(named_vector("u9"), named_vector("u9")) == sc(5400)
    assert pair(named_vector("W"), named_vector("W")) == sc(43200)


def test_pair_symmetry_and_weight_orthogonality():
    assert pair(E, J) == pair(J, E)
    assert pair(OMEGA, E) == ZERO
    assert pair(ONE_V, J) == ZERO


def test_pair_rejects_illegal_charge():
    u = State.basis((), Fraction(1, 8))
    v = State.basis((), Fraction(-1, 8))
    with pytest.raises(ValueError):
        pair(u, v)
    # same-sign charges never meet, so this stays defined
    assert pair(u, u) == ZERO


def _pair_per_term(u, v):
    """The form term by term in Scalar arithmetic: the reference route
    for the integer-coordinate `pair`."""
    acc = ZERO
    for (degs, q8), cu in u.terms.items():
        cv = v.terms.get((degs, -q8))
        if cv is None:
            continue
        if q8 % 4:
            raise ValueError("form undefined between charge-%s/8 sectors" % q8)
        sign = -1 if (len(degs) + q8 // 4) % 2 else 1
        acc = acc + cu * cv * (sign * zlam(degs))
    return acc


def test_pair_matches_per_term_route():
    states = [named_vector(n) for n in ("hprime", "y1", "y2", "x1", "W", "u9", "E2")]
    # mixtures, so that every product of two field coordinates occurs
    full = (ONE + SQRT2 + SQRT3 * 2 + SQRT6 * 3) * (ONE + I * 2)
    states += [states[1] + states[0] * I, states[5] * SQRT3 + states[4] * I,
               states[3] * full]
    values = []
    for u in states:
        for v in states:
            g = pair(u, v)
            assert g == _pair_per_term(u, v)
            values.append(g)
    assert any(g and not g.is_rational() for g in values)


def test_pair_matches_per_term_route_on_quarter_charges():
    basis = graded_states("V_L2+a/2", Fraction(9, 4))
    assert len(basis) == 6
    for u in basis:
        for v in basis:
            try:
                expected = _pair_per_term(u, v)
            except ValueError:
                with pytest.raises(ValueError):
                    pair(u, v)
            else:
                assert pair(u, v) == expected
    lo = State.basis((), Fraction(-3, 4))
    hi = State.basis((), Fraction(3, 4))
    with pytest.raises(ValueError):
        pair(lo, hi)
    assert pair(lo, lo) == ZERO


def test_gram_rational_matches_per_term_route():
    states = word_states(vacuum_words(12), ONE_V)
    expected = [[_pair_per_term(u, v).as_rational() for v in states] for u in states]
    assert gram_rational(states) == expected


def test_decompose_over_irrational_gram_falls_back(monkeypatch):
    calls = []
    express = structure.express_in_span

    def spy(vectors, target):
        calls.append(len(vectors))
        return express(vectors, target)

    monkeypatch.setattr(structure, "express_in_span", spy)
    vectors = [J + E * SQRT2, E]
    with pytest.raises(ArithmeticError):
        gram_rational(vectors)
    dec = decompose_over(J, vectors)
    assert calls == [2]
    assert dec.exact
    assert dec.coefficients == [ONE, -SQRT2]


def test_decompose_over_gram_divisible_by_lifting_prime_falls_back(monkeypatch):
    calls = []
    express = structure.express_in_span

    def spy(vectors, target):
        calls.append(len(vectors))
        return express(vectors, target)

    monkeypatch.setattr(structure, "express_in_span", spy)
    p = linalg._PRIME
    assert gram_rational([J * sc(p)]) == [[Fraction(54 * p * p)]]
    dec = decompose_over(J, [J * sc(p)])
    assert calls == [1]
    assert dec.exact
    assert dec.coefficients == [sc(Fraction(1, p))]


def test_is_primary():
    assert is_primary(E)
    assert is_primary(J)
    assert is_primary(named_vector("u9"))
    assert not is_primary(OMEGA)
    assert not is_primary(virasoro_mode(-1, J))


def test_virasoro_words():
    assert len(vacuum_words(4)) == 2
    assert len(vacuum_words(16)) == 55
    assert len(vacuum_words(20)) == 137
    assert len(vacuum_words(22)) == 210
    for w in vacuum_words(10):
        assert sum(w) == 10
        assert min(w) >= 2


def test_word_states():
    # each word against the one-letter chain of virasoro_mode
    for words, base in [(vacuum_words(4), ONE_V), (vacuum_words(12), ONE_V),
                        (vacuum_words(4, min_part=1), J)]:
        states = word_states(words, base)
        assert len(states) == len(words)
        for w, st in zip(words, states):
            direct = base
            for n in reversed(w):
                direct = virasoro_mode(-n, direct)
            assert st == direct


def test_decompose_over_exact():
    dec = decompose_over(J, [J, E])
    assert dec.exact
    assert dec.coefficients == [ONE, ZERO]
    combo = J * sc(3) + E * sc(Fraction(-1, 2))
    dec2 = decompose_over(combo, [J, E])
    assert dec2.exact
    assert dec2.coefficients == [sc(3), sc(Fraction(-1, 2))]


def test_decompose_over_residual():
    target = J + virasoro_mode(-2, OMEGA)
    dec = decompose_over(target, [J])
    assert not dec.exact
    assert dec.coefficients == [ONE]
    assert dec.residual == virasoro_mode(-2, OMEGA)


def test_gram_rational():
    g = gram_rational([J, E])
    assert g == [[Fraction(54), Fraction(0)], [Fraction(0), Fraction(2)]]


def test_build_u16():
    u16 = named_vector("u16")
    assert u16 == build_u16()
    assert u16.weight() == 16
    assert is_primary(u16)
    assert as_rational(pair(u16, u16)) == Fraction(17496, 5)
    assert gram_rational([u16]) == [[Fraction(17496, 5)]]
    for st in word_states(vacuum_words(16), ONE_V):
        assert pair(u16, st) == ZERO


def test_c_functional():
    assert c_functional(State.basis((1, 1, 1, 1))) == ONE
    v = ONE_V
    for k in range(1, 4):
        v2 = virasoro_mode(-2, v)
        v = v2
        assert c_functional(v) == sc(Fraction(1, 2 ** k))
    assert c_functional(State()) == ZERO


def test_fixed_subspace_weight4():
    states = graded_states("V_L2", 4)
    assert len(states) == 13
    fixed = fixed_vectors(states, [theta, tau1])
    assert len(fixed) == 4
    for st in fixed:
        assert theta(st) == st
        assert tau1(st) == st
