"""Invariant form, primaries, vacuum module words, and the stripped
weight-16 generator."""

import functools
import random
from fractions import Fraction

import pytest

from voalab import linalg, paperlab, structure
from voalab.exactfield import I, ONE, SQRT2, SQRT3, SQRT6, ZERO, as_rational, sc
from voalab.fockspace import (
    KeyWidthError, State, basis_monomials, graded_states, theta, tau1,
)
from voalab.linalg import fixed_vectors
from voalab.structure import (
    build_u16, c_functional, decompose_over, gram_rational, is_primary,
    named_vector, pair, vacuum_words, word_states,
)
from voalab.vertexengine import mode_apply, virasoro_mode

ONE_V = named_vector("one")
OMEGA = named_vector("omega")
E = named_vector("E")
J = named_vector("J")


def zlam(degs):
    """The partition normalization prod_d d^{mult_d} mult_d!.

    degs is sorted, so the k-th repeat of a part d contributes d * k.
    """
    out = 1
    run = 0
    prev = None
    for d in degs:
        run = run + 1 if d == prev else 1
        prev = d
        out *= d * run
    return out


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


def test_pair_refuses_states_beyond_the_key_width():
    # the form runs on the packed keys of the mode engine
    for big in (State.basis((64,)), State.basis((1,) * 64), State.basis((), 16)):
        for u, v in ((big, big), (big, ONE_V), (ONE_V, big)):
            with pytest.raises(KeyWidthError):
                pair(u, v)
    assert pair(State.basis((63,)), State.basis((63,))) == sc(-63)


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


def _seeded_states(seed):
    """Seeded states with irrational coordinates whose Gram is rational.

    Each group of states sits at its own weight, so two groups never
    pair, and is one of the factors 1, sqrt3, i times states with
    rational coordinates on monomials with an even part count and sqrt2
    times rational ones on monomials with an odd part count.  The
    charges are 0, +-b/2 and +-b.
    """
    rng = random.Random(seed)
    states = []
    for weight, factor in ((5, ONE), (6, SQRT3), (7, I)):
        monos = basis_monomials(weight, [0, Fraction(1, 2), Fraction(-1, 2), 1, -1])
        for _ in range(4):
            terms = {}
            for m in rng.sample(monos, 8):
                c = sc(Fraction(rng.choice([-5, -3, -1, 1, 2, 4]), rng.choice([1, 2, 3, 7])))
                terms[m] = c * factor * (SQRT2 if len(m[0]) % 2 else ONE)
            states.append(State(terms))
    return states


def test_gram_rational_matches_per_term_route():
    seeded = _seeded_states(20261019)
    for states in (word_states(vacuum_words(12), ONE_V), seeded):
        expected = [[_pair_per_term(u, v).as_rational() for v in states] for u in states]
        assert gram_rational(states) == expected
    # the seeded family: both parities on every charge, and a nonsingular
    # Gram, so its own combinations resolve on the integer Gram system
    assert {(len(degs) % 2, q8) for v in seeded for degs, q8 in v.terms} \
        == {(k, q8) for k in (0, 1) for q8 in (0, 4, -4, 8, -8)}
    coeffs = [sc(Fraction(k - 5, k % 3 + 1)) for k in range(len(seeded))]
    target = State()
    for c, v in zip(coeffs, seeded):
        target = target + v * c
    got, residual = decompose_over(target, seeded)
    assert not residual
    assert got == coeffs


def _shapovalov_gram(words, h):
    """The Gram matrix of the vectors L(-p_1)...L(-p_s) v_h, one per part
    tuple, from the Virasoro relations alone (Kac-Raina, Bombay
    Lectures, 1987): the route that never sees a Fock monomial.

    v_h is a highest-weight vector of weight h at c = 1 with
    (v_h, v_h) = 1, L(n) is adjoint to L(-n), and L(-1) v_h = 0 when
    h = 0 (L(-1) v_0 spans the radical of the form there).  A state is
    a dict {part tuple: Fraction}; part tuples need not be descending.
    """

    def create(m, word):
        return None if (h == 0 and m == 1 and not word) else (m,) + word

    @functools.cache
    def lower(n, word):
        """L(n) L(-word[0])...L(-word[-1]) v_h for n >= 0, as a tuple of
        (word, Fraction) pairs."""
        if n == 0:
            return ((word, Fraction(h + sum(word))),)
        if not word:
            return ()
        m, rest = word[0], word[1:]
        out = {}
        # L(n) L(-m) = L(-m) L(n) + (n + m) L(n - m) + (n^3 - n)/12 delta_{n,m}
        for w, x in lower(n, rest):
            w = create(m, w)
            if w is not None:
                out[w] = out.get(w, 0) + x
        if n >= m:
            for w, x in lower(n - m, rest):
                out[w] = out.get(w, 0) + (n + m) * x
        else:
            w = create(m - n, rest)
            if w is not None:
                out[w] = out.get(w, 0) + n + m
        if n == m:
            out[rest] = out.get(rest, 0) + Fraction(n ** 3 - n, 12)
        return tuple((w, x) for w, x in out.items() if x)

    def form(lam, mu):
        state = {mu: Fraction(1)}
        for p in lam:
            nxt = {}
            for w, x in state.items():
                for w2, y in lower(p, w):
                    nxt[w2] = nxt.get(w2, 0) + x * y
            state = nxt
        return state.get((), 0)

    return [[form(lam, mu) for mu in words] for lam in words]


def test_form_matches_the_shapovalov_gram():
    # the vacuum module, h = 0
    for n in (12, 16):
        words = vacuum_words(n)
        assert gram_rational(word_states(words, ONE_V)) == _shapovalov_gram(words, 0)
    # the module of the weight-16 primary: the printed degree-4 system,
    # and the Fock Gram at degree 6 over the norm kappa of u16
    u16 = named_vector("u16")
    words = vacuum_words(4, min_part=1)
    assert _shapovalov_gram(words, 16) == [list(row) for row in paperlab._GRAM_PRINTED]
    words = vacuum_words(6, min_part=1)
    fock = gram_rational(word_states(words, u16))
    assert [[x / paperlab._KAPPA for x in row] for row in fock] \
        == _shapovalov_gram(words, 16)


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
    coeffs, residual = decompose_over(J, vectors)
    assert calls == [2]
    assert not residual
    assert coeffs == [ONE, -SQRT2]


def test_symmetric_gram_fill_matches_the_full_fill():
    # `_products` of one list with itself fills j >= i and mirrors; a
    # copy of the list takes the full fill.  The last family has
    # irrational entries off the diagonal, such as <i E, J + sqrt2 E> =
    # 2 sqrt2 i and <sqrt3 J, J + sqrt2 E> = 54 sqrt3
    families = [word_states(vacuum_words(12), ONE_V),
                word_states(vacuum_words(16), ONE_V),
                [E * I, J + E * SQRT2, J * SQRT3, mode_apply(J, -2, E)]]
    for vectors in families:
        states = [v.packed for v in vectors]
        assert structure._products(states, states) \
            == structure._products(states, list(states))
    states = [v.packed for v in families[-1]]
    with pytest.raises(ArithmeticError, match="not rational"):
        structure._gram(states, states)


def test_decompose_over_gram_divisible_by_lifting_prime_falls_back(monkeypatch):
    calls = []
    express = structure.express_in_span

    def spy(vectors, target):
        calls.append(len(vectors))
        return express(vectors, target)

    monkeypatch.setattr(structure, "express_in_span", spy)
    p = linalg._PRIME
    assert gram_rational([J * sc(p)]) == [[Fraction(54 * p * p)]]
    coeffs, residual = decompose_over(J, [J * sc(p)])
    assert calls == [1]
    assert not residual
    assert coeffs == [sc(Fraction(1, p))]


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
    coeffs, residual = decompose_over(J, [J, E])
    assert not residual
    assert coeffs == [ONE, ZERO]
    combo = J * sc(3) + E * sc(Fraction(-1, 2))
    coeffs, residual = decompose_over(combo, [J, E])
    assert not residual
    assert coeffs == [sc(3), sc(Fraction(-1, 2))]


def test_decompose_over_residual():
    target = J + virasoro_mode(-2, OMEGA)
    coeffs, residual = decompose_over(target, [J])
    assert residual
    assert coeffs == [ONE]
    assert residual == virasoro_mode(-2, OMEGA)


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


def test_build_u16_certificates_fire(monkeypatch):
    # each certificate of `build_u16` on a stripped vector built to break
    # it alone: an empty one, the unstripped P (weight 16, its charge-2
    # tail right, not primary), a tail against a wrong E2, and P again
    # with the primary test forced, which meets the vacuum words
    P = structure._u16_seed(J, E)
    assert P.weight() == 16 and not is_primary(P)
    basic = structure.basic_vector
    cases = [
        ("unexpected weight for the stripped vector",
         {"decompose_over": lambda t, vs: (None, State())}),
        ("stripped vector is not primary",
         {"decompose_over": lambda t, vs: (None, P)}),
        ("unexpected charge-2 tail",
         {"basic_vector": lambda n: basic(n) * sc(2) if n == "E2" else basic(n)}),
        ("stripped vector is not orthogonal to the vacuum module",
         {"decompose_over": lambda t, vs: (None, P),
          "is_primary": lambda v: True}),
    ]
    for message, patches in cases:
        with monkeypatch.context() as m:
            for name, fake in patches.items():
                m.setattr(structure, name, fake)
            with pytest.raises(ArithmeticError, match="^%s$" % message):
                build_u16()


def test_decompose_over_raises_outside_the_span():
    # a singular Gram (two copies of E) sends the block to
    # `express_in_span`, and J is not in the span of E
    with pytest.raises(ValueError,
                       match="^target is not resolvable over this block$"):
        decompose_over(J, [E, E])


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
