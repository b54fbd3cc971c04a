"""Characters, traces, eigenspace gradings, sector tops, and the module
catalog."""

import random
import re
from fractions import Fraction

import pytest

from voalab import paperlab, sectors, vertexengine
from voalab.exactfield import I, ONE, SQRT3, ZERO, sc, sixth_root
from voalab.fockspace import (
    KeyWidthError, State, _charge, _conjugate, _pack, _split,
    basis_monomials, graded_monomials, graded_states, partitions, ratio,
    sector_charges, theta, theta_even_states,
)
from voalab.linalg import Echelon, express_in_span, rank_of
from voalab.structure import is_primary, named_vector
from voalab.sectors import (
    brute_fixed_dims, char_L1, char_series,
    decompose_quarter_module, dim_full_lattice, eigenspace_char, graded_dim,
    klein_fixed_dim, module_catalog, partition_count,
    partition_count_even_length, quarter_cube_is_minus_one, sector_top,
    shifted_weight, sigma, sigma_eigendims, sigma_trace, sigma_trace_brute, theta_trace,
    top_level_eigenvalue, twisted_sector,
)
from voalab.vertexengine import (
    ModeLegalityError, charge_chain, delta_apply, hprime_eigenvector,
    mode_apply, zero_mode_decompose, zero_mode_exp,
)


def test_partition_counts():
    assert [partition_count(n) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert partition_count(10) == 42
    # partitions of 6 with no part 1: 6, 4+2, 3+3, 2+2+2
    assert partition_count(6) - partition_count(5) == 4
    for n in range(41):
        brute = sum(1 for p in partitions(n) if len(p) % 2 == 0)
        assert partition_count_even_length(n) == brute, n
    assert partition_count_even_length(-1) == 0


def test_graded_dims():
    # M(1)+ keeps the even-length partitions, M(1)- the odd ones
    for w in range(10):
        assert graded_dim("M(1)", w) == partition_count(w)
        assert graded_dim("M(1)+", w) + graded_dim("M(1)-", w) == partition_count(w)
        assert graded_dim("M(1)+", w) == partition_count_even_length(w)
    assert [graded_dim("V_Zb+", w) for w in range(9)] == [1, 0, 1, 1, 4, 4, 8, 10, 17]
    # the lattice sectors count partitions per charge; the oracle lists them
    for name in ("V_Zb", "V_L2", "V_L2+a/2", "V_Zb+1/8", "V_Zb+6/8"):
        for w in [Fraction(k, 16) for k in range(-16, 129)]:
            want = len(basis_monomials(w, sector_charges(name, w)))
            assert graded_dim(name, w) == want, (name, w)


def test_char_series_consistency():
    vzb = char_series("V_Zb+", 8)
    for w in range(9):
        assert vzb[w] == graded_dim("V_Zb+", w)


def test_char_L1_rows():
    # L(1, n^2) dimensions: p(t - n^2) - p(t - (n+1)^2)
    row0 = char_L1(0, 10)
    for t in range(11):
        assert row0[t] == partition_count(t) - (partition_count(t - 1) if t >= 1 else 0)
    row2 = char_L1(2, 10)
    assert row2[4] == 1
    assert row2[3] == 0
    # n is a nonnegative integer: a negative n has no module
    for n in (-1, -2):
        with pytest.raises(ValueError):
            char_L1(n, 6)


def test_brute_fixed_dims_match_eigenspace_character():
    dims = brute_fixed_dims(6)
    fixed_char = eigenspace_char(0, 6)
    for w, d in dims.items():
        assert d == fixed_char[w]
    assert dims[0] == 1
    total = char_series("V_Zb+", 6)
    other = eigenspace_char(1, 6)
    for w in range(7):
        assert fixed_char[w] + 2 * other[w] == total[w]


def test_traces():
    assert dim_full_lattice(0) == 1
    assert dim_full_lattice(1) == 3
    assert dim_full_lattice(4) == 13
    assert theta_trace(0) == 1
    assert klein_fixed_dim(4) == 4
    for w in range(5):
        assert sigma_trace_brute(w) == sigma_trace(w)


def test_sigma_eigendims_small():
    # the weight 4 charged pair splits into the two nontrivial eigenlines
    dims = sigma_eigendims([named_vector("J"), named_vector("E")])
    assert dims == {0: 0, 1: 1, 2: 1}
    assert sigma_eigendims([named_vector("omega")]) == {0: 1, 1: 0, 2: 0}
    assert sigma(named_vector("X1")) == named_vector("X1") * sixth_root(2)
    assert sigma(named_vector("X2")) == named_vector("X2") * sixth_root(4)
    assert sigma(named_vector("omega")) == named_vector("omega")


def test_sigma_fixes_u16_by_the_weight_four_action():
    # A second route for eq-4.2-u16-sigma, with no weight-16 work.  sigma
    # is an automorphism (the exponential of a weight-1 zero mode), so
    # sigma(x(-9)y) = sigma(x)(-9)sigma(y).  With M the matrix whose
    # columns are the (J, E) coordinates of sigma J and sigma E, and
    # D = diag(1, 27), sigma sends P = J(-9)J + 27 E(-9)E to
    # sum_ab (M D M^T)_ab x_a(-9)x_b, which is P exactly when
    # M D M^T = D.  u16 is P minus its component along the Virasoro words
    # on the vacuum, and sigma fixes each of those when it fixes omega
    # and |0>; so sigma(u16) = u16.
    J, E = named_vector("J"), named_vector("E")
    basis = [J, E]
    cols = [express_in_span(basis, sigma(x)) for x in basis]
    assert cols == [[sc(Fraction(-1, 2)), sc(Fraction(9, 2))],
                    [sc(Fraction(-1, 6)), sc(Fraction(-1, 2))]]
    m = [[cols[j][i] for j in range(2)] for i in range(2)]
    d = [sc(1), sc(27)]
    mdmt = [[sum((m[a][k] * d[k] * m[b][k] for k in range(2)), ZERO)
             for b in range(2)] for a in range(2)]
    assert mdmt == [[d[0], ZERO], [ZERO, d[1]]]
    for name in ("omega", "one"):
        assert sigma(named_vector(name)) == named_vector(name)


def test_sigma_is_an_automorphism():
    # sigma(a_(n) b) = sigma(a)_(n) sigma(b) (FHL 1993), the property that
    # makes sigma a symmetry of the algebra; the catalog pins its values
    # at a few points.  A wrong constant in sigma's factors still gives
    # an automorphism, so this does not pin the constants: those rows do.
    left = [named_vector(x) for x in ("J", "E", "u9")]
    right = [named_vector(x) for x in ("J", "E", "X1")]
    cases = nonzero = 0
    for a in left:
        sa = sigma(a)
        for b in right:
            sb = sigma(b)
            for n in range(-2, 8):
                image = sigma(mode_apply(a, n, b))
                assert image == mode_apply(sa, n, sb), (a, n, b)
                cases += 1
                nonzero += bool(image)
    assert (cases, nonzero) == (90, 78)
    # seeded random pairs on V_Zb, weights 0..5, n = -3..5
    rng = random.Random(2012)
    nonzero = 0
    for _ in range(20):
        a = paperlab._random_state(rng, "V_Zb", rng.randint(0, 5))
        b = paperlab._random_state(rng, "V_Zb", rng.randint(0, 5))
        n = rng.randint(-3, 5)
        image = sigma(mode_apply(a, n, b))
        assert image == mode_apply(sigma(a), n, sigma(b)), (a, n, b)
        nonzero += bool(image)
    assert nonzero == 13


def test_sigma_matches_krylov_route():
    # the closed-form exponentials against the Krylov split of h'(0)
    hprime = named_vector("hprime")
    states = [b for w in range(6) for b in graded_states("V_L2", w)]
    for w in (Fraction(1, 4), Fraction(5, 4), Fraction(9, 4), Fraction(13, 4)):
        states += graded_states("V_L2+a/2", w)
    states += [named_vector(n) for n in ("J", "E", "X1", "X2", "w1", "w2", "u9")]
    for v in states:
        assert sigma(v) == zero_mode_exp(hprime, v), v


def _mode_apply_series(u, x, v):
    """exp(x u(0)) v as the series sum_k (x/k) u(0) applied through
    mode_apply and summed on States."""
    acc = term = v
    k = 0
    while term:
        k += 1
        term = mode_apply(u, 0, term) * (x * sc(Fraction(1, k)))
        acc = acc + term
    return acc


def test_exp_charge_mode_matches_mode_apply_series():
    states = [b for w in range(7) for b in graded_states("V_L2", w)]
    for w in (Fraction(1, 4), Fraction(5, 4), Fraction(9, 4), Fraction(13, 4)):
        states += graded_states("V_L2+a/2", w)
    # coefficients that already carry sqrt2 and i
    rich = sigma(State.basis((3,), Fraction(1, 2)))
    assert {1, 4, 5} <= {k for c in rich.terms.values()
                         for k, x in enumerate(c.num) if x}
    states.append(rich)
    for a8 in (4, -4):
        u = State.basis((), Fraction(a8, 8))
        for x in (ONE, I, vertexengine._U, vertexengine._C):
            for v in states:
                got = charge_chain([(a8, x)], v)
                assert got == _mode_apply_series(u, x, v), (a8, x, v)
    with pytest.raises(ModeLegalityError):
        charge_chain([(4, ONE)], State.basis((), Fraction(1, 8)))


def _t_power_by_scalars(k):
    """t^k for t = (1+i)/2 through Scalar powers, and 1/t = 1-i."""
    return ((ONE + I) * sc(Fraction(1, 2))) ** k if k >= 0 else (ONE - I) ** -k


def _sigma_by_states(v):
    """sigma as exp(e), then t^H on States, then exp(i f): the Gauss
    order exp(i f) t^H exp(e), with t^H in the middle, in three separate
    steps, each unpacked back to a State.  It is the second route that
    tests sectors.sigma, which runs t^H exp(-f/2) exp(e) instead."""
    v = charge_chain([(4, ONE)], v)
    v = State({m: c * _t_power_by_scalars(m[1] // 2)
               for m, c in v.terms.items()})
    return charge_chain([(-4, I)], v)


def test_sigma_chain_matches_state_route():
    states = [b for w in range(7) for b in graded_states("V_L2", w)]
    for w in (Fraction(1, 4), Fraction(5, 4), Fraction(9, 4), Fraction(13, 4)):
        states += graded_states("V_L2+a/2", w)
    # sqrt2 and i coefficients, and negative charges
    rich = sigma(State.basis((3,), Fraction(1, 2)))
    assert {1, 4, 5} <= {k for c in rich.terms.values()
                         for k, x in enumerate(c.num) if x}
    assert min(q8 for _, q8 in rich.terms) < 0
    states.append(rich)
    # sqrt3 and i coefficients in V_L2+a/2, where q8/2 is odd and t^H
    # lands each coordinate on two planes: w1, w2 and frame images
    half = [named_vector("w1"), named_vector("w2")]
    half += [hprime_eigenvector(b)[1] for w in (Fraction(1, 4), Fraction(5, 4))
             for b in graded_states("V_L2+a/2", w)]
    assert all(q8 % 4 == 2 for v in half for _, q8 in v.terms)
    assert {2, 4, 6} <= {k for v in half for c in v.terms.values()
                         for k, x in enumerate(c.num) if x}
    states += half
    # and the same coefficients on V_L2
    states += [named_vector("y1"), hprime_eigenvector(State.basis((1,), 1))[1]]
    for v in states:
        assert sigma(v) == _sigma_by_states(v), v


def test_t_power_scale_matches_scalar_powers():
    for k in range(-4, 5):
        assert sectors._t_power(2 * k) == _t_power_by_scalars(k), k


def test_sigma_gauss_factorization():
    # exp(i f) t^H exp(e) in the 2-dimensional representation is
    # [[1, 0], [i, 1]] diag(t, 1/t) [[1, 1], [0, 1]] = (1 + iM)/2, and
    # t^-H f t^H = (i/2) f turns it into t^H exp(-f/2) exp(e), the order
    # sectors.sigma runs
    def mul(a, b):
        return [[a[r][0] * b[0][c] + a[r][1] * b[1][c] for c in range(2)]
                for r in range(2)]
    half = sc(Fraction(1, 2))
    t = (ONE + I) * half
    assert t * (ONE - I) == ONE
    m = [[ONE, ONE - I], [ONE + I, -ONE]]
    assert mul(m, m) == [[sc(3), ZERO], [ZERO, sc(3)]]
    identity = [[ONE, ZERO], [ZERO, ONE]]
    sigma2 = [[(identity[r][c] + I * m[r][c]) * half for c in range(2)]
              for r in range(2)]
    t_h, t_minus_h = [[t, ZERO], [ZERO, ONE - I]], [[ONE - I, ZERO], [ZERO, t]]
    exp_e = [[ONE, ONE], [ZERO, ONE]]
    ldu = mul(mul([[ONE, ZERO], [I, ONE]], t_h), exp_e)
    assert ldu == sigma2
    f = [[ZERO, ZERO], [ONE, ZERO]]
    assert mul(mul(t_minus_h, f), t_h) == [[x * I * half for x in row] for row in f]
    assert mul(mul(t_h, [[ONE, ZERO], [-half, ONE]]), exp_e) == sigma2


def test_sigma_rejects_odd_eighth_charges():
    odd = State.basis((), Fraction(1, 8))
    for v, q in ((odd, "1/8"), (State.basis((1, 1)) + odd, "1/8"),
                 (State.basis((2,), Fraction(-3, 8)), "-3/8")):
        with pytest.raises(ModeLegalityError,
                           match="^exponentiated mode is not defined on"
                                 " charge %s$" % q):
            sigma(v)


def test_sigma_sweep_expands_each_conjugate_pair_once(monkeypatch):
    # sigma, sigma^2 and sigma^3 on the reflection-even states of V_Zb up
    # to weight 8 expand 138 pairs cold, all of positive charge: each
    # e^{-a}(0) expansion is read off its conjugate e^{a}(0) one (276
    # cold expansions when both signs were computed).  Cold means no
    # stored expansion and no monomial image of sigma either.
    calls = []
    pair_modes = vertexengine._pair_modes

    def counting(*args):
        calls.append(args)
        return pair_modes(*args)

    # The sweep builds 58 images, 12 of them of negative charge and read
    # off their conjugates, so it runs the chain 46 times.
    chains = []
    chain = sectors._sigma_chain

    def counting_chain(v):
        chains.append(v)
        return chain(v)

    monkeypatch.setattr(vertexengine, "_tables", {})
    monkeypatch.setattr(vertexengine, "_stored", 0)
    vertexengine._creation.cache_clear()
    sectors._image.cache_clear()
    monkeypatch.setattr(vertexengine, "_pair_modes", counting)
    monkeypatch.setattr(sectors, "_sigma_chain", counting_chain)
    for w in range(9):
        for b in theta_even_states("V_Zb", w):
            assert sigma(sigma(sigma(b))) == b
    assert len(calls) == 138
    assert all(a8 > 0 for _, a8, _, _ in calls)
    assert sectors._image.cache_info().misses == 58
    assert len(chains) == 46
    assert all(_charge(key) >= 0 for v in chains for key in _keys(v))


def _image_reads():
    """How often sigma has read a monomial image, cached or built."""
    info = sectors._image.cache_info()
    return info.hits + info.misses


def _basis_element(key):
    """The state of the parity-basis element of a packed key."""
    return State(packed=(1, {0: {key: 1}}))


def _keys(v):
    """The packed keys of a state."""
    return {key for plane in v.packed[1].values() for key in plane}


# the weight spaces sigma maps through images, and the next one of each
# module, where it runs the chain
_SMALL = [("V_L2", w) for w in range(9)] + [
    ("V_L2+a/2", Fraction(1, 4) + w) for w in range(8)]
_ABOVE = [("V_L2", 9), ("V_L2+a/2", Fraction(33, 4))]


def _spaces_up_to(bound):
    """The packed keys of the weight spaces of V_L2 and V_L2+a/2 of at
    most bound monomials, read off `graded_monomials` from the bottom
    up: the definition the weight bound of `sectors._image_keys`
    replaced."""
    keys = []
    for module, w in (("V_L2", Fraction(0)), ("V_L2+a/2", Fraction(1, 4))):
        monos = graded_monomials(module, w)
        while len(monos) <= bound:
            keys += [_pack(*m) for m in monos]
            w += 1
            monos = graded_monomials(module, w)
    return frozenset(keys)


def test_image_route_admits_the_small_weight_spaces():
    # the largest admitted spaces and the next ones
    assert len(graded_monomials("V_L2", 8)) == 62
    assert len(graded_monomials("V_L2+a/2", Fraction(29, 4))) == 46
    assert [len(graded_monomials(*s)) for s in _ABOVE] == [90, 70]
    # the weight bound admits the spaces of at most 64 monomials
    assert sectors._image_keys() == _spaces_up_to(64)
    assert sectors._image_keys() == {_pack(*m) for s in _SMALL
                                     for m in graded_monomials(*s)}
    assert len(sectors._image_keys()) == 313
    assert all(map(sectors._admitted, sectors._image_keys()))
    for s in _ABOVE + [("V_Zb+1/8", Fraction(1, 64))]:
        assert not any(sectors._admitted(_pack(*m))
                       for m in graded_monomials(*s)), s


def test_sigma_images_match_the_chain():
    # the route through cached monomial images against the chain on the
    # whole state, on inputs that take the images; each case counts its
    # image reads, so an input that fell back to the chain is caught.
    # sigma reads one image per key, and building the image of a key of
    # negative charge reads the image of its conjugate once more.  The
    # cache holds every image this test builds, so `built` tracks it.
    chain = sectors._sigma_chain
    sectors._image.cache_clear()
    built = set()

    def by_images(v):
        keys = _keys(v)
        fresh = {key for key in keys if _charge(key) < 0} - built
        before = _image_reads()
        got = sigma(v)
        assert _image_reads() - before == len(keys) + len(fresh), v
        built.update(keys, map(_conjugate, fresh))
        return got

    # every monomial of both modules up to the bound (an odd number of
    # parts puts its coordinate on the sqrt2 plane), and the image itself
    # one weight above it
    for s in _SMALL:
        for m in graded_monomials(*s):
            b = State({m: ONE})
            assert by_images(b) == chain(b), m
    for s in _ABOVE:
        for m in graded_monomials(*s):
            key = _pack(*m)
            assert sectors._image(key) == chain(_basis_element(key)).packed, m
    # the reflection-even states of the sigma sweep, and their sigma
    # and sigma^2
    for w in range(9):
        for b in theta_even_states("V_Zb", w):
            s1 = chain(b)
            s2 = chain(s1)
            for v in (b, s1, s2):
                assert by_images(v) == chain(v), v
    # seeded multi-term states on several planes, within one weight
    # space and across both modules
    rng = random.Random(41)
    coeffs = [ONE, SQRT3, I, SQRT3 * I, sc(Fraction(-2, 7)),
              sixth_root(1), sixth_root(2) * SQRT3]
    for _ in range(40):
        spaces = rng.sample(_SMALL, rng.randint(1, 2))
        monos = {m for s in spaces for m in graded_monomials(*s)}
        picked = rng.sample(sorted(monos), min(len(monos), rng.randint(1, 8)))
        v = State({m: rng.choice(coeffs) * sc(rng.randint(1, 9))
                   for m in picked})
        assert by_images(v) == chain(v), v
    # the named vectors of weight one and one quarter
    for name in ("y1", "y2", "w1", "w2"):
        v = named_vector(name)
        assert by_images(v) == chain(v), name
    # keys on both sides of the bound: the whole state runs the chain
    v = State.basis((8,)) * SQRT3 + State.basis((9,), 0) * I \
        + State.basis((), Fraction(1, 4))
    before = _image_reads()
    assert sigma(v) == chain(v)
    assert _image_reads() == before


def _tau(v):
    """v with its charge (q8/8) b part scaled by (-i)^(q8/2), on the
    terms of a State (q8 even)."""
    out = State()
    for q8, part in _split(v, _charge).items():
        x = ONE
        for _ in range(q8 // 2 % 4):
            x = x * -I
        out = out + part * x
    return out


def test_sigma_conjugates_by_theta_to_a_charge_scaling():
    # the relation the images of negative charge are read by,
    # sigma(theta v) = theta sigma(tau v), on the chain alone: on every
    # key of the image spaces and on seeded states on several planes of
    # both modules, across charges and weights
    chain = sectors._sigma_chain
    for key in sectors._image_keys():
        v = _basis_element(key)
        assert chain(theta(v)) == theta(chain(_tau(v))), key
    rng = random.Random(4242)
    coeffs = [ONE, SQRT3, I, SQRT3 * I, sc(Fraction(-5, 3)),
              sixth_root(1), sixth_root(5) * SQRT3]
    for module in ("V_L2", "V_L2+a/2"):
        for _ in range(12):
            w = rng.randint(1, 6) + (0 if module == "V_L2" else Fraction(1, 4))
            monos = graded_monomials(module, w)
            picked = rng.sample(monos, min(len(monos), rng.randint(2, 6)))
            v = State({m: rng.choice(coeffs) * sc(rng.randint(1, 9))
                       for m in picked}) + State({picked[0]: SQRT3 * I})
            assert len(v.packed[1]) > 1, v
            assert chain(theta(v)) == theta(chain(_tau(v))), v


def test_images_of_negative_charge_read_first_match_the_chain():
    # cold, the keys of negative charge first: each builds the image of
    # its conjugate on demand and is read off it; then the rest
    sectors._image.cache_clear()
    keys = sorted(sectors._image_keys(), key=_charge)
    assert _charge(keys[0]) < 0
    for key in keys:
        assert sectors._image(key) == \
            sectors._sigma_chain(_basis_element(key)).packed, key
    # each key of negative charge built its conjugate's image too, which
    # the later read of that conjugate hits
    info = sectors._image.cache_info()
    assert (info.misses, info.currsize) == (313, 313)
    assert info.hits == sum(_charge(key) < 0 for key in keys) == 123


def test_sigma_images_are_left_unchanged_by_use():
    # sigma only reads the images it sums: after two sweeps over states
    # on several planes, every image they used still equals a fresh chain
    sectors._image.cache_clear()
    states = [v * x for w in range(9) for v in theta_even_states("V_Zb", w)
              for x in (SQRT3 * I, sc(Fraction(3, 5)))]
    states += [named_vector(n) * I for n in ("y1", "w1")]
    for _ in range(2):
        for v in states:
            sigma(sigma(v))
    used = {key for v in states for key in _keys(v) | _keys(sigma(v))}
    misses = sectors._image.cache_info().misses
    for key in used:
        assert sectors._image(key) == \
            sectors._sigma_chain(_basis_element(key)).packed, key
    assert sectors._image.cache_info().misses == misses


def test_sigma_image_cache_is_bounded():
    # more distinct seeded monomials than the bound holds, each image
    # equal to the chain
    cache = sectors._image
    cap = cache.cache_info().maxsize
    assert cap
    keys = [_pack(*m) for s in _SMALL + _ABOVE + [("V_L2", 10)]
            for m in graded_monomials(*s)]
    random.Random(12).shuffle(keys)
    assert len(keys) > cap
    for key in keys:
        assert cache(key) == sectors._sigma_chain(_basis_element(key)).packed
    assert cache.cache_info().currsize <= cap


def test_sigma_builds_no_image_above_the_bound():
    # u16 (weight 16) and a weight-10 product run the chain: there, cold,
    # images take 20 times as long on u16 and 3 to 7 times as long on a
    # dense weight-10 state
    J, E = named_vector("J"), named_vector("E")
    product = mode_apply(J, -3, E)
    assert product.weight() == 10 and product
    before = _image_reads()
    for v in (named_vector("u16"), product):
        assert sigma(v)
    assert _image_reads() == before


def test_sigma_errors_match_the_chain(monkeypatch):
    # e^{a}(0) takes the first state beyond the charge width and the
    # second beyond the degree width, each before any expansion is made
    edge = State.basis((63,), Fraction(31, 2))
    deep = State.basis((61,), -1)
    for v in (edge, deep, edge + deep, deep + edge):
        with pytest.raises(KeyWidthError) as want:
            sectors._sigma_chain(v)
        message = "^%s$" % re.escape(str(want.value))
        with pytest.raises(KeyWidthError, match=message):
            sigma(v)
        # where building an image raises, the chain runs on the whole
        # state and names the charge or degree it names
        keys = frozenset(_keys(v))
        monkeypatch.setattr(sectors, "_image_keys", lambda: keys)
        with pytest.raises(KeyWidthError, match=message):
            sigma(v)
        monkeypatch.undo()


# Primary multiplets of square lowest weight.

_EMINUS_ALPHA = State.basis((), Fraction(-1, 2))


def _lower(v):
    return mode_apply(_EMINUS_ALPHA, 0, v)


def primary_space_basis(n):
    """A basis of the primary vectors of weight n^2 in the theta-fixed
    lattice algebra, built by lowering the extremal charge vector."""
    if n == 0:
        return [State.basis(())]
    out = []
    v = State.basis((), Fraction(n, 2))
    for j in range(n + 1):
        if j == n:
            sign = ONE if n % 2 == 0 else -ONE
            if theta(v) != v * sign:
                raise ArithmeticError("unexpected reflection sign on the middle vector")
            if n % 2 == 0:
                out.append(v)
        elif j % 2 == n % 2:
            out.append(v + theta(v))
        if j < n:
            v = _lower(v)
    for st in out:
        if st.weight() != n * n or not is_primary(st):
            raise ArithmeticError("multiplet member is not primary of weight %d" % (n * n))
    return out


def primary_multiplicity(n):
    """dim of the weight n^2 primary space: floor(n/2) plus one if n is even."""
    return n // 2 + (1 if n % 2 == 0 else 0)


def test_primary_multiplets():
    assert primary_multiplicity(0) == 1
    assert primary_multiplicity(2) == 2
    assert primary_multiplicity(3) == 1
    basis2 = primary_space_basis(2)
    assert len(basis2) == 2
    assert all(st.weight() == 4 for st in basis2)
    for n, dims in [(2, {0: 0, 1: 1, 2: 1}), (3, {0: 1, 1: 0, 2: 0})]:
        basis = primary_space_basis(n)
        assert len(basis) == primary_multiplicity(n)
        assert sigma_eigendims(basis) == dims


def test_sector_tops():
    u = sector_top("V_b/4")
    assert u.weight() == Fraction(1, 4)
    J = named_vector("J")
    E = named_vector("E")
    assert top_level_eigenvalue(J, "V-") == sc(-6)
    assert top_level_eigenvalue(J, "V_b/2+") == sc(3)
    assert top_level_eigenvalue(E, "V_b/2+") == sc(1)
    assert top_level_eigenvalue(E, "V_b/2-") == sc(-1)
    assert top_level_eigenvalue(J, "V_b/8") == sc(Fraction(-3, 64))
    assert top_level_eigenvalue(E, "V_b/8") == sc(0)
    with pytest.raises(ValueError):
        sector_top("V_nowhere")


def test_twisted_sector_lowest():
    t11 = twisted_sector(1, 1, bound=Fraction(37, 36))
    grades = sorted(t11["graded"])
    assert grades[0] == Fraction(1, 36)
    assert len(t11["graded"][Fraction(1, 36)]) == 1
    t21 = twisted_sector(2, 1, bound=Fraction(10, 9))
    assert sorted(t21["graded"])[0] == Fraction(1, 9)


def _krylov_eigenspaces(basis, key=lambda lam: lam):
    """The per-vector Krylov route: split each vector by the zero mode of
    h' and sum the pieces whose eigenvalues share a key, then keep an
    independent spanning set per key."""
    hprime = named_vector("hprime")
    buckets = {}
    for v in basis:
        comps = {}
        for lam, piece in zero_mode_decompose(hprime, v).items():
            k = key(lam)
            comps[k] = comps[k] + piece if k in comps else piece
        for k, piece in comps.items():
            buckets.setdefault(k, []).append(piece)
    out = {}
    for lam, pieces in buckets.items():
        ech = Echelon()
        out[lam] = [p for p in pieces if ech.insert(p) is None]
    return out


def _same_span(a, b):
    return rank_of(a) == rank_of(b) == rank_of(a + b)


def _against_krylov(basis):
    """Assert equal eigenvalues and spans on the two routes; return the
    Krylov eigenspaces."""
    old = _krylov_eigenspaces(basis)
    new = sectors._hprime_eigenspaces(basis)
    assert set(new) == set(old)
    for lam in old:
        assert _same_span(new[lam], old[lam]), lam
    return old


def test_sigma_eigendims_match_krylov():
    # the projector route against the Krylov split, eigenvalues of h'(0)
    # bucketed by lam mod 1: sigma = exp(2 pi i h'(0)) acts on the bucket
    # of lam by exp(2 pi i lam)
    cases = [theta_even_states("V_Zb", w) for w in range(7)]
    for basis in cases + [[named_vector("J"), named_vector("E")]]:
        krylov = _krylov_eigenspaces(basis, key=lambda lam: lam % 1)
        assert set(krylov) <= {Fraction(j, 3) for j in range(3)}
        want = {j: len(krylov.get(Fraction(j, 3), [])) for j in range(3)}
        assert sigma_eigendims(basis) == want
    # sigma^3 = -1 on the charge-1/4 states, so no eigenvalue is a cube root of 1
    with pytest.raises(ArithmeticError):
        sigma_eigendims(graded_states("V_L2+a/2", Fraction(1, 4)))


def _sector_weights(i, bound):
    """The weights of module i that twisted_sector visits up to bound."""
    w = Fraction(0) if i == 1 else Fraction(1, 4)
    out = []
    while w + Fraction(1, 36) - sectors._lambda_bound(i, w) <= bound:
        out.append(w)
        w += 1
    return out


def test_hprime_eigenspaces_match_krylov_route():
    # the sl2 conjugation against the Krylov split, on every weight space
    # that twisted_sector (default bound) and decompose_quarter_module visit
    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
        ts = twisted_sector(i, j)
        module, d = ts["module"], ts["sign"]
        expected = {}
        for w in _sector_weights(i, ts["bound"]):
            old = _against_krylov(graded_states(module, w))
            for lam in old:
                g = w + d * lam + Fraction(1, 36)
                if g <= ts["bound"]:
                    expected.setdefault(g, []).extend(old[lam])
        assert set(ts["graded"]) == set(expected), (i, j)
        for g, sts in expected.items():
            assert _same_span(ts["graded"][g], sts), (i, j, g)
    for w in (Fraction(1, 4), Fraction(9, 4)):
        _against_krylov(graded_states("V_L2+a/2", w))


def test_hprime_certificate_fires(monkeypatch):
    monkeypatch.setattr(vertexengine, "_U", -vertexengine._U)
    # frame images are cached once certified: drop them so the broken
    # frame is computed, and again after, so none of its images outlives
    # the test
    hprime_eigenvector.cache_clear()
    with pytest.raises(ArithmeticError):
        sectors._hprime_eigenspaces(graded_states("V_L2", 1))
    with pytest.raises(ArithmeticError):
        twisted_sector(1, 1)
    # an input no earlier call has put in the shift cache
    with pytest.raises(ArithmeticError, match="eigenvector"):
        delta_apply(named_vector("hprime"), named_vector("E") * sc(Fraction(5, 7)))
    hprime_eigenvector.cache_clear()


def test_frame_image_cache_is_bounded():
    # more distinct basis states than the bound holds: multiples of the
    # vacuum and of |b/4>, each equal to an uncached frame image
    cache = hprime_eigenvector
    cap = cache.cache_info().maxsize
    assert cap
    basis = [State.basis((), q, k) for k in range(1, cap)
             for q in (0, Fraction(1, 4))]
    assert len(basis) > cap
    for b in basis:
        assert cache(b) == cache.__wrapped__(b)
    assert cache.cache_info().currsize <= cap


def test_shifted_weight(monkeypatch):
    hp = named_vector("hprime")
    one, y1, y2 = named_vector("one"), named_vector("y1"), named_vector("y2")
    assert shifted_weight(one, hp) == Fraction(1, 36)
    assert shifted_weight(y2, hp) == Fraction(25, 36)
    assert shifted_weight(y1, hp) == Fraction(49, 36)
    assert shifted_weight(y1 + y2, hp) is None
    # off the (1/4)Z b grid the h' shift is refused, not answered with
    # the partial sum that drops the shifted omega's e^{+-a} terms
    eighth = State.basis((), Fraction(1, 8))
    for v in (eighth, State.basis((), Fraction(1, 4)) + eighth):
        with pytest.raises(ModeLegalityError, match="charge 1/8b"):
            shifted_weight(v, hp)
    # a shift by h takes every charge: 1/16 + 1/2 + h(0) = 9/16 + sqrt2/4
    with pytest.raises(ArithmeticError, match="rational"):
        shifted_weight(eighth, named_vector("h"))
    # an irrational eigenvalue of the shifted L(0) is refused
    monkeypatch.setattr(sectors, "twisted_weight", lambda v, h: v * (SQRT3 * I))
    with pytest.raises(ArithmeticError, match="rational"):
        shifted_weight(one, hp)


def test_quarter_charge_tops_are_frame_images():
    # fockspace hard-codes w1 and w2; the frame g builds the same lines
    # from |+-b/4>, so a change to either copy of the constant shows here
    for q, top, lam in ((Fraction(1, 4), "w1", Fraction(1, 6)),
                        (Fraction(-1, 4), "w2", Fraction(-1, 6))):
        got, gb = hprime_eigenvector(State.basis((), q))
        assert got == lam
        assert ratio(gb, named_vector(top))


def test_twisted_sector_mirror_dims():
    assert twisted_sector(1, 2)["dims"] == twisted_sector(1, 1)["dims"]
    assert twisted_sector(2, 2)["dims"] == twisted_sector(2, 1)["dims"]


def test_quarter_module():
    q = decompose_quarter_module()
    assert q["weight_quarter"].weight() == Fraction(1, 4)
    assert set(q["spectrum"]) == {Fraction(1, 6), Fraction(-1, 6),
                                  Fraction(1, 2), Fraction(-1, 2)}
    assert quarter_cube_is_minus_one(samples=[q["weight_quarter"]])


def test_module_catalog():
    rows = module_catalog()
    assert len(rows) == 27
    names = [r["name"] for r in rows]
    assert len(set(names)) == 27
    aliases = [r for r in rows if r["alias_of"]]
    assert len(aliases) == 6
    by_name = {r["name"]: r for r in rows}
    assert by_name["(V+)^0"]["lowest_weight"] == 0
    assert by_name["W^(1,T1,1)"]["lowest_weight"] == Fraction(1, 36)
    assert by_name["V_b/8"]["lowest_weight"] == Fraction(1, 16)
    assert by_name["V_b/2+"]["alias_of"] == "V-"
    assert by_name["V^(T1,+)"]["alias_of"] == "V_b/8"
