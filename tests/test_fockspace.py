"""States, gradings, involutions, and the named vector table."""

import ast
import pathlib
from fractions import Fraction

import pytest

from voalab import fockspace
from voalab.exactfield import I, ONE, SQRT2, SQRT3, ZERO, sc, sqrt2_power
from voalab.fockspace import (
    State, _build_basic, basis_monomials, graded_monomials, graded_states,
    lattice_component, partitions, ratio, sector_charges, theta,
    theta_even_states, tau1,
)
from voalab.linalg import express_in_span, fixed_vectors, rank_of
from voalab.sectors import dim_full_lattice, graded_dim, sigma
from voalab.structure import _WORD_VECTORS, named_vector, pair
from voalab.vertexengine import (
    apply_word, charge_chain, mode_apply, mode_apply_theta_even,
    twisted_mode_apply,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "voalab"


def test_partitions_small():
    assert list(partitions(0)) == [()]
    assert len(list(partitions(5))) == 7
    assert len(list(partitions(10))) == 42
    assert all(sum(p) == 6 for p in partitions(6))
    assert len(list(partitions(6, max_part=2))) == 4


def test_basis_weight_and_charge():
    v = State.basis((3, 2, 1), 1)
    # charge beta contributes (beta, beta)/2 / 4 = 4 to the weight
    assert v.weight() == 10
    assert State.basis((), Fraction(1, 2)).weight() == 1
    assert State.basis((), Fraction(1, 4)).weight() == Fraction(1, 4)
    assert State.basis((1, 1)).weight() == 2


def test_state_linear_algebra():
    base = [State.basis(tuple(sorted(p, reverse=True))) for p in partitions(4)]
    a = base[0] * sc(3) + base[1] * sc(Fraction(-1, 2))
    b = base[1] * sc(Fraction(1, 2)) + base[2]
    assert a + b - a == b
    assert (a + b) * sc(2) == a * sc(2) + b * sc(2)
    assert not (a - a)
    assert a - a == State()
    assert -a == a * sc(-1)


def test_coefficient_lookup():
    v = State.basis((2, 1), 1) * sc(7)
    assert v.coefficient((2, 1), 1) == sc(7)
    assert v.coefficient((2, 1), 0) == ZERO
    assert v.coefficient((3,), 1) == ZERO


def test_theta_involution():
    E = named_vector("E")
    F = named_vector("F")
    J = named_vector("J")
    assert theta(E) == E
    assert theta(F) == F * sc(-1)
    assert theta(J) == J
    assert theta(theta(named_vector("u9"))) == named_vector("u9")
    # theta negates the oscillators and swaps the charge sign
    v = State.basis((1,), 1)
    assert theta(v) == State.basis((1,), -1) * sc(-1)


def test_tau1_charge_parity():
    # tau1 is +1 on charge multiples of beta and -1 on the odd alpha classes
    E = named_vector("E")
    assert tau1(E) == E
    half = State.basis((), Fraction(1, 2))
    assert tau1(half) == half * sc(-1)
    assert tau1(tau1(half)) == half


def test_graded_states_match_character():
    for w in range(0, 5):
        sts = graded_states("V_L2", w)
        assert len(sts) == dim_full_lattice(w)
        assert all(st.weight() == w for st in sts)
    for w in range(0, 7):
        assert len(basis_monomials(w, [0])) == graded_dim("M(1)", w)


def test_theta_even_states_dims():
    # regression: the two charge signs must collapse to a single invariant line
    for w in range(0, 9):
        sts = theta_even_states("V_Zb", w)
        assert len(sts) == graded_dim("V_Zb+", w)
        for st in sts:
            assert theta(st) == st
            assert st.weight() == w
    reps = {frozenset(st.terms) for st in theta_even_states("V_Zb", 4)}
    assert len(reps) == len(theta_even_states("V_Zb", 4))


def test_lattice_component():
    E = named_vector("E")
    J = named_vector("J")
    assert lattice_component(E, 1) == E
    assert lattice_component(E, 0) == State()
    assert lattice_component(J, 0) == J
    u16 = named_vector("u16")
    tail = lattice_component(u16, 2)
    assert tail == named_vector("E2") * sc(27)


def test_named_vector_weights():
    expected = {
        "one": 0, "h": 1, "omega": 2, "J": 4, "E": 4, "F": 4, "X1": 4,
        "X2": 4, "E2": 16, "x1": 1, "x2": 1, "x3": 1, "y1": 1, "y2": 1,
        "hprime": 1, "w1": Fraction(1, 4), "w2": Fraction(1, 4),
        "u0": 4, "u1": 5, "u2": 6, "u3": 7, "v2": 6, "v3": 7, "v4": 6,
        "v5": 7, "u9": 9, "W": 9, "u16": 16,
    }
    for name, wt in expected.items():
        v = named_vector(name)
        assert v.weight() == wt, name
    assert set(expected) == set(_build_basic()) | set(_WORD_VECTORS) | {"W", "u16"}


def test_named_vector_unknown():
    with pytest.raises(KeyError):
        named_vector("nonsense")


def test_scalar_multiple_display():
    v = State.basis((1, 1)) * sqrt2_power(1)
    s = str(v)
    assert "h(-1)h(-1)|0>" in s


def test_ratio():
    v = State.basis((2,)) + State.basis((1, 1), 0, Fraction(-3, 2))
    lam = ONE + SQRT3 * I
    assert not lam.is_rational()
    assert ratio(v * lam, v) == lam
    assert ratio(v, v) == ONE
    assert ratio(State(), v) == ZERO
    # agrees with lam v on v's first term only
    first = next(iter(v.terms))
    w = State({m: (d * lam if m == first else d) for m, d in v.terms.items()})
    assert ratio(w, v) is None
    # a term outside v's support
    assert ratio(v * lam + State.basis((3,)), v) is None
    assert ratio(State.basis((3,)), v) is None
    with pytest.raises(ValueError):
        ratio(v, State())


def _packed_family():
    """Engine outputs of every kind, each a packed State: mode products
    with sqrt2, sqrt3 and i in their coefficients, a zero product, a
    Virasoro word, an exponential chain and a twisted mode; the last is
    (1 - sqrt2) h(-1)|0>, on two planes."""
    J, E, u9 = named_vector("J"), named_vector("E"), named_vector("u9")
    w1, w2 = named_vector("w1"), named_vector("w2")
    return [mode_apply(J, -2, E), mode_apply(E, 8, E), mode_apply(E, 7, E),
            mode_apply(u9, 12, u9), mode_apply(w1, Fraction(-1, 2), w2),
            apply_word([-2, -1], J), apply_word([], E),
            charge_chain([(-4, sc(Fraction(-1, 2))), (4, ONE)], J + E),
            twisted_mode_apply(E, Fraction(1, 3), named_vector("y1"),
                               named_vector("hprime")),
            mode_apply(named_vector("h"), -1, State.basis((), 0, ONE - SQRT2))]


# Arithmetic on plain {monomial: Scalar} dicts: the reference oracle of
# State's arithmetic, which runs on the packed planes only.

def _terms_add(a, b):
    out = dict(a)
    for m, c in b.items():
        acc = out.get(m)
        acc = c if acc is None else acc + c
        if acc:
            out[m] = acc
        elif m in out:
            del out[m]
    return out


def _terms_neg(a):
    return {m: -c for m, c in a.items()}


def _terms_scale(a, s):
    return {m: c * s for m, c in a.items()} if s else {}


def _assert_holds(got, want):
    """got is the State with the terms want, in both of its views."""
    assert got.terms == want
    ref = State(dict(want))
    assert got == ref and ref == got
    assert got.packed == ref.packed
    assert bool(got) == bool(want)
    assert str(got) == str(ref)


def test_packed_state_agrees_with_its_terms():
    family = _packed_family()
    assert not family[1] and all(family[:1] + family[2:])
    for p in family:
        assert p._packed is not None and p._terms is None
        rebuild = lambda: State(dict(p.terms))
        fresh = lambda: State(packed=p.packed)
        # each view is built on its first read
        assert rebuild()._packed is None and fresh()._terms is None
        assert fresh() == rebuild() and rebuild() == fresh() and rebuild() == p
        assert bool(fresh()) == bool(rebuild())
        assert str(fresh()) == str(rebuild())
        assert hash(fresh()) == hash(rebuild()) == hash(p)
        assert {fresh(): 1}[rebuild()] == 1
        assert fresh().weight() == rebuild().weight()
        # the terms pack to the engine's trimmed planes, and a State
        # keeps the view it builds
        t = rebuild()
        assert t.packed == p.packed and t.packed is t.packed
        assert p.terms is p.terms


def test_equal_states_hash_equal():
    # a State is a value: the same vector built from terms, by the
    # engine and by a round trip through theta hashes alike and is one
    # dict key, whichever view each holds
    for name in ("E", "J", "u9", "hprime"):
        v = named_vector(name)
        made = State(dict(v.terms))
        packed = State(packed=v.packed)
        back = theta(theta(v))
        assert made._packed is None and packed._terms is None
        assert made == packed == back
        assert hash(made) == hash(packed) == hash(back)
        cache = {made: name}
        assert cache[packed] == cache[back] == name
        assert len({made, packed, back}) == 1
    # the hash reads every plane entry and the denominator
    E, J = named_vector("E"), named_vector("J")
    assert len({hash(v) for v in (E, J, E + J, E * sc(2), E * I, State())}) == 6


def test_packed_arithmetic_agrees_with_terms_arithmetic():
    family = _packed_family()
    # 1 + sqrt2 times 1 - sqrt2 is -1: the product leaves one plane empty
    last = family[-1]
    assert len(last.packed[1]) == 2
    assert len((last * (ONE + SQRT2)).packed[1]) == 1
    scalars = [sc(3), sc(Fraction(-2, 9)), SQRT2, ONE + SQRT2, SQRT3 * I, ZERO]
    for p in family:
        terms = dict(p.terms)
        for a in (p, State(dict(terms))):
            _assert_holds(-a, _terms_neg(terms))
            _assert_holds(a - a, {})
            for x in scalars:
                _assert_holds(a * x, _terms_scale(terms, x))
                _assert_holds(a.scale(x), _terms_scale(terms, x))
            for q in family:
                other = dict(q.terms)
                for b in (q, State(dict(other))):
                    _assert_holds(a + b, _terms_add(terms, other))
                    _assert_holds(a - b, _terms_add(terms, _terms_neg(other)))
                    assert (a == b) == (terms == other)


def test_a_term_built_state_packs_once(monkeypatch):
    # a fresh u9, built from its terms as the catalog builds it
    u9 = _build_basic.__wrapped__()["u9"]
    assert u9._packed is None
    calls = []
    pack = fockspace._pack_terms
    monkeypatch.setattr(fockspace, "_pack_terms",
                        lambda terms: calls.append(terms) or pack(terms))
    h, omega = named_vector("h"), named_vector("omega")
    outs = [mode_apply(h, n, u9) for n in (1, 0, -1)]
    assert mode_apply(omega, 1, u9) == u9 * sc(9)
    assert pair(u9, u9) == sc(5400)
    assert pair(u9, mode_apply(omega, 1, u9)) == sc(9 * 5400)
    # the adjoint of h(-1) is -h(1)
    assert pair(outs[2], outs[2]) == -pair(u9, mode_apply(h, 1, outs[2]))
    assert len(calls) == 1 and calls[0] is u9.terms
    assert u9.packed is u9.packed


def test_zero_product_is_falsy_before_its_terms_are_built():
    z = mode_apply(named_vector("E"), 8, named_vector("E"))
    assert not z
    assert z._terms is None
    assert z == State() and str(z) == "0"


def test_field_element_times_state():
    # a field element on the left reaches State.__rmul__
    for v in (named_vector("E"), named_vector("u9")):
        assert SQRT2 * v == v * SQRT2
        assert I * v == v * I
    with pytest.raises(TypeError, match="State"):
        SQRT2 + named_vector("E")
    with pytest.raises(TypeError, match="cannot coerce"):
        sc(named_vector("E"))


def test_state_plus_non_state_raises_type_error():
    E = named_vector("E")
    for op in (lambda: E + SQRT2, lambda: E - SQRT2, lambda: E + 1):
        with pytest.raises(TypeError):
            op()


def test_graded_monomials_cache_is_bounded():
    # four sectors at more weights than the bound holds; a weight k/7
    # with k not a multiple of 7 is off every grid and lists nothing
    cache = graded_monomials
    cap = cache.cache_info().maxsize
    assert cap
    names = ("V_Zb", "V_L2", "V_L2+a/2", "V_Zb+1/8")
    keys = [(name, Fraction(k, 7)) for name in names for k in range(1, cap)]
    assert len(keys) > cap
    for name, w in keys:
        assert cache(name, w) == tuple(basis_monomials(w, sector_charges(name, w)))
    assert cache.cache_info().currsize <= cap


def test_transforms_stay_on_the_planes(monkeypatch):
    # on states held only as planes, no transform unpacks a State's terms
    calls = []
    unpack = fockspace._unpack_planes
    monkeypatch.setattr(fockspace, "_unpack_planes",
                        lambda den, planes: calls.append(planes)
                        or unpack(den, planes))
    E, J, u9 = (State(packed=named_vector(name).packed)
                for name in ("E", "J", "u9"))
    basis = [State(packed=b.packed) for b in graded_states("V_L2", 4)]
    transforms = [
        lambda: sigma(sigma(sigma(E + J))), lambda: theta(u9),
        lambda: tau1(E + J), lambda: lattice_component(u9, 1),
        lambda: rank_of(basis),
        lambda: express_in_span(basis, basis[0] - basis[3]),
        lambda: fixed_vectors(basis, [theta, tau1]),
    ]
    for transform in transforms:
        assert transform()
        assert not calls
    # a mode reads its operator's terms, here those of u's positive half,
    # and no input is unpacked
    q = mode_apply_theta_even(E, -9, E)
    assert len(calls) == 1 and E._terms is None
    assert q == mode_apply(E, -9, E)


# --------------------------------------------------------------------------
# A packed State builds its terms once and shares them: no code may write
# into a State's terms after it is made, and no source code builds a State
# from another State's terms (maps between States run on the planes).

_MUTATORS = {"clear", "pop", "popitem", "setdefault", "update",
             "__setitem__", "__delitem__", "__ior__"}


def terms_writes(source):
    """Line numbers where source stores into, deletes from, updates in
    place or calls a mutating dict method on some `<expr>.terms`, or
    calls State(...) on an argument that reads some `<expr>.terms` or
    is a dict(...) copy of anything but a dict display (a snapshot of
    some State's terms, such as a cache key, rebuilt as a State)."""
    def is_terms(node):
        return isinstance(node, ast.Attribute) and node.attr == "terms"

    def is_copy(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "dict" \
            and any(not isinstance(a, ast.Dict) for a in node.args)
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and is_terms(node.value) \
                and isinstance(node.ctx, (ast.Store, ast.Del)):
            hits.append(node.lineno)
        elif isinstance(node, ast.AugAssign) and is_terms(node.target):
            hits.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATORS and is_terms(node.func.value):
            hits.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "State":
            args = node.args + [k.value for k in node.keywords]
            if any(is_terms(n) for a in args for n in ast.walk(a)) \
                    or any(map(is_copy, args)):
                hits.append(node.lineno)
    return sorted(hits)


def test_no_source_writes_into_state_terms():
    probe = ("v.terms[m] = c\ndel w.terms[m]\nv.terms[m] += c\n"
             "v.terms |= d\nv.terms.update(d)\nf(v).terms.pop(m)\n"
             "State({m: -c for m, c in v.terms.items()})\n"
             "State(terms={k: c for k, c in f(v).terms.items() if k})\n"
             "x = v.terms[m]\nv.terms.get(m)\nState({m: ONE})\n"
             "State(packed=v.packed)\nState(dict(hkey))\n"
             "State(terms=dict(zip(ms, cs)))\nState(dict({m: ONE}))\n")
    assert terms_writes(probe) == [1, 2, 3, 4, 5, 6, 7, 8, 13, 14]
    files = sorted(SRC.glob("*.py"))
    assert files
    hits = ["%s:%d" % (path.name, line) for path in files
            for line in terms_writes(path.read_text(encoding="utf-8"))]
    assert not hits, hits
