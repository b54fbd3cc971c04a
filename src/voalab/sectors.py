"""Graded dimensions, characters, and module-level bookkeeping.

Includes the order-3 symmetry and its eigenspaces, the shifted
(twisted) sector enumeration, and the catalog of the twenty-one
irreducible modules of the fixed-point algebra.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .exactfield import (
    BASIS_MUL, HALF, I, ONE, SQRT6, ZERO, Scalar, rat, sc, sixth_root,
    sqrt2_power,
)
from .fockspace import (
    KeyWidthError, State, _charge, _conjugate, _odd, _pack, _parts,
    _scale_planes, _trim, graded_monomials, graded_states, partitions,
    ratio, sector_charges, theta, theta_even_states,
)
from .linalg import Echelon, express_in_span, rank_of
from .structure import is_primary, named_vector
from .vertexengine import (
    ModeLegalityError, charge_chain, hprime_eigenvector, mode_apply,
    twisted_weight, virasoro_mode,
)

# --------------------------------------------------------------------------
# Partition counts and graded dimensions.

_P = [1]


def _extend_partitions(n):
    """Grow the partition table to cover n."""
    while len(_P) <= n:
        m = len(_P)
        # p(m) via the pentagonal recurrence.
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            s = 1 if k % 2 else -1
            if g1 <= m:
                total += s * _P[m - g1]
            if g2 <= m:
                total += s * _P[m - g2]
            k += 1
        _P.append(total)


def partition_count(n):
    if n < 0:
        return 0
    _extend_partitions(n)
    return _P[n]


def partition_count_even_length(n):
    """Partitions of n with an even number of parts.

    prod 1/(1 + q^k) = prod (1 - q^k) prod 1/(1 - q^{2k}) counts even
    minus odd lengths, so by Euler's pentagonal theorem the difference
    is t(n) = sum_j (-1)^j p((n - j(3j - 1)/2) / 2), over the j in Z
    with n - j(3j - 1)/2 even and nonnegative; the count is (p + t)/2.
    """
    if n < 0:
        return 0
    t = 0
    k = 0
    while k * (3 * k - 1) // 2 <= n:
        for j in {k, -k}:
            g = j * (3 * j - 1) // 2
            if g <= n and not (n - g) % 2:
                t += (-1) ** k * partition_count((n - g) // 2)
        k += 1
    return (partition_count(n) + t) // 2


def _charge_sum(w, c):
    """sum_{k >= 1, k^2 <= w} c(k) p(w - k^2): the charged part of a
    trace whose scalar c(k) on the charges +-k depends only on k."""
    return sum(c(k) * partition_count(w - k * k)
               for k in range(1, math.isqrt(max(w, 0)) + 1))


def graded_dim(name, w):
    """The dimension of the weight-w piece of a named graded space."""
    wf = rat(w)
    if name in ("M(1)", "M(1)+", "M(1)-", "V_Zb+", "V_Zb-"):
        if wf.denominator != 1 or wf < 0:
            return 0
        n = int(wf)
        if name == "M(1)":
            return partition_count(n)
        if name == "M(1)+":
            return partition_count_even_length(n)
        if name == "M(1)-":
            return partition_count(n) - partition_count_even_length(n)
        # the charges m b, of weight 4m^2 = (2m)^2, one reflection pair each
        charged = _charge_sum(n, lambda k: 1 - k % 2)
        if name == "V_Zb+":
            return partition_count_even_length(n) + charged
        return partition_count(n) - partition_count_even_length(n) + charged
    # the charge q carries 4 q^2 of the weight, and a partition the rest
    rems = [wf - 4 * q * q for q in sector_charges(name, wf)]
    return sum(partition_count(int(r)) for r in rems if r.denominator == 1)


def char_series(name, n_max):
    """The list of graded dimensions of a named space at weights
    0..n_max; ValueError for an unknown name."""
    return [graded_dim(name, n) for n in range(n_max + 1)]


def char_L1(n, n_max):
    """The list of graded dimensions at weights 0..n_max of the
    irreducible c=1 module with lowest weight n^2 (n a nonnegative
    integer); ValueError for n < 0."""
    if n < 0:
        raise ValueError("char_L1 needs n >= 0, got %s" % n)
    lo = n * n
    hi = (n + 1) * (n + 1)
    return [partition_count(t - lo) - partition_count(t - hi)
            for t in range(n_max + 1)]


# --------------------------------------------------------------------------
# Exact traces of the finite symmetries on the rank-one lattice algebra.
#
# The ambient weight-w space is a sum of Fock spaces over the charges
# q8 = 4k, so any operator that is diagonal on charges with a scalar
# depending only on the charge has trace sum_k c(k) p(w - k^2).  The
# reflection pairs opposite charges, so only charge zero contributes to
# its trace, with the length parity of the partition as sign.


def dim_full_lattice(w):
    """dim of the weight-w piece of the full rank-one lattice algebra."""
    return partition_count(w) + _charge_sum(w, lambda k: 2)


def theta_trace(w):
    """Trace of the reflection: even- minus odd-length partitions of w."""
    return 2 * partition_count_even_length(w) - partition_count(w)


def tau1_trace(w):
    """Trace of the charge-parity involution (sign (-1)^k on charge 4k)."""
    return partition_count(w) + _charge_sum(w, lambda k: 2 * (-1) ** k)


def sigma_trace(w):
    """Trace of any order-3 element of the symmetry group on the full
    weight-w lattice space.

    All eight order-3 elements are conjugate to the charge rotation with
    scalar exp(2 pi i k / 3) on charge 4k, whose trace is real, so one
    integer covers them all.  sigma_trace_brute certifies this at low
    weight against the actual symmetry.
    """
    return partition_count(w) + _charge_sum(
        w, lambda k: 2 if k % 3 == 0 else -1)


def klein_fixed_dim(w):
    """dim of the weight-w fixed points of the Klein four-group generated
    by the reflection and the charge-parity involution, by averaging the
    four traces."""
    total = dim_full_lattice(w) + tau1_trace(w) + 2 * theta_trace(w)
    if total % 4:
        raise ArithmeticError("Klein trace average is not integral at weight %d" % w)
    return total // 4


# sigma = exp(2 pi i h'(0)) in closed form.
#
# h'(0) = (sqrt3/18) M in the weight-one sl2 with basis H = sqrt2 h(0),
# e = e^{a}(0), f = e^{-a}(0) (see the sl2 frame in `vertexengine`).
# In the 2-dimensional representation M = [[1, 1-i], [1+i, -1]] has
# M^2 = 3, so exp(2 pi i h'(0)) = exp(i (pi/3) M/sqrt3) = (1 + iM)/2
# = [[(1+i)/2, (1+i)/2], [(i-1)/2, (1-i)/2]], whose Gauss (LDU) factors
# [[1, 0], [i, 1]] diag(t, 1/t) [[1, 1], [0, 1]] with t = (1+i)/2 are
# exp(i f) t^H exp(e).  Since t^-H f t^H = t^2 f and t^2 = i/2, moving
# t^H to the left gives exp(i f) t^H = t^H exp(-f/2), so
# sigma = t^H exp(-f/2) exp(e): both exponentials have rational
# coefficients.  Each weight space of V_L2 + V_L2+a/2 is a
# finite-dimensional sl2 module, where an identity in SL2 holds as well,
# so the product gives sigma there.  Each exponential is a finite sum
# because e and f move the charge by +-a at fixed weight (a8 = 4 for e,
# -4 for f); the two run as one `charge_chain` on integer coordinate
# planes.  H is the integer q8/2 on charge (q8/8) b, so t^H then scales
# each coordinate of charge q8 by t^(q8/2), and 1/t = 1-i (`_t_power`).
# That route, `_sigma_chain`, is the chain.
#
# sigma is linear, and its callers (the order-3 checks, the brute
# eigendimensions, the sweep) apply it again and again inside a few small
# weight spaces.  There sigma sums the cached image of each monomial of
# its input (`_image`).  Building an image runs the chain on one
# monomial, whose output fills its weight space, so images pay only when
# reused and lose on large spaces.  Measured cold (Python 3.11, 2 cores),
# images took 20 times as long as the chain on u16 (6 s against 0.3 s,
# weight 16) and 3 to 10 times as long on one dense 40-term state of
# weight 8, 10 or 12; with images on spaces of up to 256 monomials the
# automorphism test, whose products reach weights 9 to 14, took twice as
# long, and with spaces of up to 64 no longer.  Those are the weights
# <= 8 of V_L2 (62 monomials at weight 8, the next weight 90) and, since
# the weights of V_L2+a/2 lie in 1/4 + Z, its weights <= 29/4 (46, the
# next 70): one bound on the weight, where every caller that repeats
# sigma stays.
#
# The images of negative charge need no chain.  The Klein group {1,
# theta, tau1, theta tau1} is normal in the alternating group that sigma
# and it generate, and conjugating sigma by theta gives sigma(theta v) =
# theta sigma(tau v), where tau scales charge (q8/8) b by (-i)^(q8/2)
# (tau1 on V_L2).  theta sends the parity-basis element of a key k' to
# (-1)^odd(k') times that of its conjugate, so a key k of charge q8 < 0
# has the image (-1)^odd(k') (-i)^(-q8/2) theta(image(k')), k' the
# conjugate key.
_IMAGE_WEIGHT = 8


def _t_power(q8):
    """t^H on charge (q8/8) b: t^k for k = q8/2, t = (1+i)/2, as the
    Gaussian integer (1+i)^k over 2^k for k >= 0 and (1-i)^-k for k < 0."""
    k = q8 // 2
    s = 1 if k >= 0 else -1
    a, b = 1, 0
    for _ in range(abs(k)):
        a, b = a - s * b, b + s * a
    return Scalar((a, 0, 0, 0, b, 0, 0, 0), 1 << max(k, 0))


def _sigma_chain(v):
    """sigma(v) by the chain: exp(-f/2) exp(e) as one `charge_chain`,
    then t^H, t = (1+i)/2, as one pass over the planes of its output.
    Each coordinate is routed through `BASIS_MUL` times the t^(q8/2) of
    its key's charge (`_t_power`, read once per charge), over the
    largest denominator of those powers, all powers of two; one `_trim`
    ends the pass."""
    den, planes = charge_chain([(-4, -HALF), (4, ONE)], v).packed
    powers = {q8: _t_power(q8) for q8 in
              {_charge(key) for plane in planes.values() for key in plane}}
    top = max((x.den for x in powers.values()), default=1)
    out = {}
    for p, plane in planes.items():
        row = BASIS_MUL[p]
        # per charge: the planes its coordinates land on, and the factors
        routes = {q8: [(out.setdefault(row[j][0], {}),
                        row[j][1] * xj * (top // x.den))
                       for j, xj in enumerate(x.num) if xj]
                  for q8, x in powers.items()}
        for key, c in plane.items():
            for into, f in routes[_charge(key)]:
                into[key] = into.get(key, 0) + f * c
    return State(packed=_trim(den * top, out))


def _admitted(key):
    """True when the packed key has an even charge q8 and a weight
    sum(parts) + q8^2/16 of at most _IMAGE_WEIGHT: a key of V_L2 or
    V_L2+a/2 whose image sigma caches."""
    q8 = _charge(key)
    return not q8 % 2 and (16 * sum(d * m for d, m in _parts(key)) + q8 * q8
                           <= 16 * _IMAGE_WEIGHT)


@functools.cache
def _image_keys():
    """The packed keys of the monomials of V_L2 and V_L2+a/2 of weight
    at most _IMAGE_WEIGHT: the even charges q8 with q8^2/16 within the
    bound, each with the partitions of the weight left over."""
    top = 16 * _IMAGE_WEIGHT
    r = math.isqrt(top)
    return frozenset(_pack(lam, q8) for q8 in range(-r + r % 2, r + 1, 2)
                     for n in range((top - q8 * q8) // 16 + 1)
                     for lam in partitions(n))


# The spaces `_image_keys` admits hold 313 monomials; a full catalog run
# builds the images of 119 of them.  The bound holds every image sigma
# can ask for and caps what direct callers can add.
@functools.lru_cache(maxsize=512)
def _image(key):
    """sigma of the parity-basis element of the packed key, as trimmed
    (den, planes).  Callers only read it.

    A key of charge q8 < 0 that `_admitted` admits is read off the image
    of its conjugate key k' (the relation above): theta of image(k'),
    scaled by the unit (-i)^n, n = -q8/2 + 2 odd(k').  Every other key
    runs the chain (`_sigma_chain`), so where the chain raises, so does
    its image.
    """
    q8 = _charge(key)
    if q8 >= 0 or not _admitted(key):
        return _sigma_chain(State(packed=(1, {0: {key: 1}}))).packed
    dual = _conjugate(key)
    unit = (ONE, -I, -ONE, I)[(2 * _odd(dual) - q8 // 2) % 4]
    return _scale_planes(unit, *theta(State(packed=_image(dual))).packed)


def sigma(v):
    """The order-3 symmetry exp(2 pi i h'(0)) of the lattice algebra.

    Defined on charges in (1/4)Z b, that is on V_L2 + V_L2+a/2: on a
    term of charge k/8 b with k odd the zero mode e is undefined, and the
    engine raises ModeLegalityError (a ValueError) naming the charge.  It
    is t^H exp(-f/2) exp(e) (the sl2 derivation is above).  A state all
    of whose monomials lie in V_L2 + V_L2+a/2 at weight at most
    _IMAGE_WEIGHT (`_image_keys`) is the sum of the cached images of its
    monomials (`_image`; the chain builds those of charge q8 >= 0, and
    each of charge q8 < 0 is read off its conjugate's by the relation
    sigma(theta v) = theta sigma(tau v) above): each coordinate c on the
    plane e_p of a key routes that key's image through `BASIS_MUL` times
    c, over the lcm of the image denominators, and one `_trim` ends the
    sum.  Any other state, an odd-eighth charge included, runs the chain
    (`_sigma_chain`) whole; so does a state where an image raises, so
    that the error names what the chain names.  The tests check the
    image routes against the chain, the relation on the chain alone,
    and sigma against the Krylov route
    zero_mode_exp(named_vector("hprime"), v) and against a route that
    scales each charge part as a State, in the Gauss order
    exp(i f) t^H exp(e).
    """
    den, planes = v.packed
    keys = {key for plane in planes.values() for key in plane}
    if not keys <= _image_keys():
        return _sigma_chain(v)
    try:
        images = {key: _image(key) for key in keys}
    except (KeyWidthError, ModeLegalityError):
        return _sigma_chain(v)
    top = math.lcm(*[d for d, _ in images.values()])
    out = {}
    for p, plane in planes.items():
        row = BASIS_MUL[p]
        for key, c in plane.items():
            d, image = images[key]
            c *= top // d
            for q, iplane in image.items():
                # e_p e_q = f e_m
                m, f = row[q]
                f *= c
                into = out.setdefault(m, {})
                get = into.get
                for k, x in iplane.items():
                    into[k] = get(k, 0) + f * x
    return State(packed=_trim(den * top, out))


def _hprime_eigenspaces(basis):
    """{lam: [g b]}: h'(0) eigenspaces on the span of a monomial basis,
    from the certified frame g (`hprime_eigenvector`), which is
    invertible."""
    out = {}
    for b in basis:
        lam, gb = hprime_eigenvector(b)
        out.setdefault(lam, []).append(gb)
    return out


def sigma_eigendims(states):
    """Dimensions of the three eigenspaces of the order-3 symmetry on
    the span of the given states, keyed by the eigenvalue exponent
    j in {0, 1, 2} (eigenvalue = exp(2 pi i j / 3)).

    Each state v is split by the projectors P_j v = (v + w^-j sigma v +
    w^-2j sigma^2 v) / 3, w = exp(2 pi i / 3), once sigma^3 v = v is
    certified (ArithmeticError if not); the rank of the vectors 3 P_j v
    is the dimension of eigenspace j.
    """
    echs = {0: Echelon(), 1: Echelon(), 2: Echelon()}
    for v in states:
        s1 = sigma(v)
        s2 = sigma(s1)
        if sigma(s2) != v:
            raise ArithmeticError("an eigenvalue of sigma is not a cube root of unity")
        for j, ech in echs.items():
            piece = v + s1 * sixth_root(-2 * j) + s2 * sixth_root(-4 * j)
            if piece:
                ech.insert(piece)
    dims = {j: ech.rank for j, ech in echs.items()}
    if sum(dims.values()) != rank_of(list(states)):
        raise ArithmeticError("eigenspace dimensions do not add up")
    return dims


def eigenspace_char(j, n_max):
    """The list of graded dimensions at weights 0..n_max of one
    eigenspace of the order-3 symmetry on the theta-fixed lattice
    algebra, from the exact trace formulas.

    The theta-fixed algebra is the Klein fixed-point algebra inside the
    full lattice algebra, and the order-3 symmetry extends the Klein
    group to the alternating group on four letters.  Averaging traces
    over that group picks out each eigenspace.
    """
    coeffs = []
    for w in range(n_max + 1):
        vp = klein_fixed_dim(w)
        ts = sigma_trace(w)
        num = vp + 2 * ts if j == 0 else vp - ts
        if num % 3:
            raise ArithmeticError("eigenspace trace average is not integral at weight %d" % w)
        coeffs.append(num // 3)
    return coeffs


def verify_fixed_algebra_decomposition(n_max=25):
    """Resolve the fixed-subalgebra character into irreducible c=1
    characters of square lowest weight and return the multiplicities:
    the eigenspace-0 column of `multiplet_spectrum_table`.

    Also certifies that the three eigenspace characters add up to the
    character of the whole theta-fixed lattice algebra.
    """
    chars = [eigenspace_char(j, n_max) for j in (0, 1, 2)]
    if [sum(ds) for ds in zip(*chars)] != char_series("V_Zb+", n_max):
        raise ArithmeticError("eigenspace characters do not add up to the full character")
    return {n: row[0] for n, row in multiplet_spectrum_table(n_max).items()}


def multiplet_spectrum_table(n_max=25):
    """Peel all three eigenspace characters into c=1 multiplicities.

    Returns {n: (m0, m1, m2)} where m_j is the multiplicity of the
    irreducible c=1 module of lowest weight n^2 inside eigenspace j.
    Certifies that every remainder vanishes and that no multiplicity
    goes negative.
    """
    rems = [eigenspace_char(j, n_max) for j in (0, 1, 2)]
    table = {}
    n = 0
    while n * n <= n_max:
        row = []
        for j in (0, 1, 2):
            a = rems[j][n * n]
            if a < 0:
                raise ArithmeticError("negative multiplicity at n=%d, j=%d" % (n, j))
            row.append(a)
            if a:
                rems[j] = [r - a * c for r, c in zip(rems[j], char_L1(n, n_max))]
        table[n] = tuple(row)
        n += 1
    for j in (0, 1, 2):
        if any(rems[j]):
            raise ArithmeticError("eigenspace %d has a non-square remainder" % j)
    return table


def sigma_trace_brute(w):
    """Trace of the actual order-3 symmetry on the full weight-w lattice
    space, summed monomial by monomial.  Must agree with sigma_trace."""
    states = graded_states("V_L2", w)
    acc = ZERO
    for b in states:
        (degs, q8), lead = next(iter(b.terms.items()))
        image = sigma(b)
        acc = acc + image.coefficient(degs, Fraction(q8, 8)) * lead.inv()
    tr = sc(sigma_trace(w))
    if acc != tr:
        raise ArithmeticError("symmetry trace mismatch at weight %d: %s vs %s" % (w, acc, tr))
    return sigma_trace(w)


def brute_fixed_dims(n_max):
    """Eigenspace-0 dimensions of the order-3 symmetry computed directly
    on a monomial basis, weight by weight (independent of the trace
    formulas)."""
    out = {}
    for n in range(n_max + 1):
        states = theta_even_states("V_Zb", n)
        if not states:
            out[n] = 0
            continue
        out[n] = sigma_eigendims(states).get(0, 0)
    return out


# --------------------------------------------------------------------------
# Top-level (lowest weight) eigenvalues in the untwisted sectors.

_TOPS = {
    "V+": ((), 0, 1),
    "V-": ((1,), 0, 1),
    "V_b/8": ((), Fraction(1, 8), 1),
    "V_b/4": ((), Fraction(1, 4), 1),
    "V_3b/8": ((), Fraction(3, 8), 1),
    "V_b/2+": ((), Fraction(1, 2), 1),
    "V_b/2-": ((), Fraction(1, 2), -1),
}


def sector_top(name):
    """The distinguished lowest weight vector of a named sector."""
    if name not in _TOPS:
        raise ValueError("unknown sector %r" % name)
    degs, q, s = _TOPS[name]
    v = State.basis(degs, q)
    if not q:
        return v
    return v + theta(v) if s > 0 else v - theta(v)


def top_level_eigenvalue(u, sector_name):
    """The scalar by which the top-degree mode of u acts on the lowest
    weight vector of the named sector."""
    top = sector_top(sector_name)
    wt = u.weight()
    if not isinstance(wt, int):
        raise ValueError("operator weight must be integral")
    lam = ratio(mode_apply(u, wt - 1, top), top)
    if lam is None:
        raise ArithmeticError("top vector is not an eigenvector")
    return lam


# --------------------------------------------------------------------------
# Shifted (twisted) sectors for the order-3 symmetry.


def _lambda_bound(i, w):
    """Largest possible magnitude of a zero-mode eigenvalue at weight w:
    2/3 of the largest charge of module i that carries weight <= w."""
    module = "V_L2" if i == 1 else "V_L2+a/2"
    return max(abs(q) for q in sector_charges(module, w)) * Fraction(2, 3)


def twisted_sector(i, j, bound=None):
    """Graded data of the shifted sector built from module i in {1, 2}
    with shift sign j in {1, 2}.

    Returns a dict with the shift vector, the grading as a map
    grade -> list of states, and the lowest grade.  Grades run up to
    bound (default: enough to see the first four graded pieces).  The
    states of grade w + d q8/12 + 1/36 are the h'(0) eigenvectors g b
    (`_hprime_eigenspaces`) of the weight-w monomials b of charge q8/8 b.
    """
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError("sector labels must be 1 or 2")
    d = 1 if j == 1 else -1
    hvec = named_vector("hprime") * sc(d)
    if bound is None:
        bound = Fraction(1, 36) + Fraction(5, 3) if i == 1 else Fraction(1, 9) + Fraction(5, 3)
    bound = rat(bound)
    module = "V_L2" if i == 1 else "V_L2+a/2"
    graded = {}
    w = Fraction(0) if i == 1 else Fraction(1, 4)
    while w + Fraction(1, 36) - _lambda_bound(i, w) <= bound:
        basis = [State({m: ONE}) for m in graded_monomials(module, w)
                 if w + d * Fraction(m[1], 12) + Fraction(1, 36) <= bound]
        for lam, sts in _hprime_eigenspaces(basis).items():
            graded.setdefault(w + d * lam + Fraction(1, 36), []).extend(sts)
        w += 1
    grades = sorted(graded)
    return {
        "module": module,
        "shift": hvec,
        "sign": d,
        "graded": {g: graded[g] for g in grades},
        "dims": {g: len(graded[g]) for g in grades},
        "lowest": grades[0] if grades else None,
        "bound": bound,
    }


def shifted_weight(v, hvec):
    """The rational g with twisted_weight(v, hvec) == g v, or None when
    the nonzero state v is not an eigenvector of the shifted L(0).
    Raises ArithmeticError when g is not rational."""
    g = ratio(twisted_weight(v, hvec), v)
    if g is None:
        return None
    if not g.is_rational():
        raise ArithmeticError("shifted weight is not rational")
    return g.as_rational()


# --------------------------------------------------------------------------
# The charge b/4 module and its three irreducible pieces.


def decompose_quarter_module():
    """Split the quarter-charge lattice module under the order-3 symmetry.

    The module is realized as the reflection-even half of the doubled
    charge grid.  The orbifold splits it into a piece with lowest weight
    1/4 and two pieces with lowest weight 9/4.  The zero mode of the
    weight-9 invariant preserves every irreducible piece, so its
    eigenlines on the 2-dimensional primary plane at weight 9/4 are
    exactly the lowest-weight vectors of the two non-trivial pieces.

    Returns the weight 1/4 generator, the two weight 9/4 generators
    normalized on their h(-2) component, the extremal coefficients, and
    the layer spectra of the symmetry generator h'(0) on the doubled
    grid at weights 1/4 and 9/4, both from `_hprime_eigenspaces`.
    """
    sqrt2 = sqrt2_power(1)
    w14 = theta_even_states("V_Zb+2/8", Fraction(1, 4))
    if len(w14) != 1:
        raise ArithmeticError("weight 1/4 reflection-even space is not a line")
    bottom = w14[0]
    null2 = virasoro_mode(-2, bottom) - virasoro_mode(-1, virasoro_mode(-1, bottom))
    if null2.terms:
        raise ArithmeticError("level-2 null vector does not vanish on the bottom line")

    # Layer spectra of the symmetry generator on the doubled grid.  The
    # exponentiated eigenvalues are sixth roots of unity: the symmetry
    # cubes to -1 on this coset.
    spectrum14 = {lam: len(sts) for lam, sts in _hprime_eigenspaces(
        graded_states("V_L2+a/2", Fraction(1, 4))).items()}
    if spectrum14 != {Fraction(1, 6): 1, Fraction(-1, 6): 1}:
        raise ArithmeticError("unexpected bottom spectrum %r" % spectrum14)
    basis = graded_states("V_L2+a/2", Fraction(9, 4))
    if len(basis) != 6:
        raise ArithmeticError("weight 9/4 space has unexpected dimension")
    eig = _hprime_eigenspaces(basis)
    spectrum = {lam: len(sts) for lam, sts in eig.items()}
    expected = {Fraction(1, 6): 2, Fraction(-1, 6): 2,
                Fraction(1, 2): 1, Fraction(-1, 2): 1}
    if spectrum != expected:
        raise ArithmeticError("unexpected zero-mode spectrum %r" % spectrum)

    # Primary plane of the even model at weight 9/4.
    even94 = theta_even_states("V_Zb+2/8", Fraction(9, 4))
    if len(even94) != 3:
        raise ArithmeticError("weight 9/4 reflection-even space has unexpected dimension")
    q = Fraction(1, 4)
    dvec = (State.basis((2,), q) - State.basis((2,), -q)
            - State.basis((1, 1), q) * sqrt2 - State.basis((1, 1), -q) * sqrt2)
    xvec = State.basis((), 3 * q) + State.basis((), -3 * q)
    for v in (dvec, xvec):
        if not is_primary(v):
            raise ArithmeticError("expected primary vector is not primary")
        if express_in_span(even94, v) is None:
            raise ArithmeticError("primary vector is outside the even model")
    W = named_vector("W")
    mu = ratio(mode_apply(W, 8, dvec), xvec)
    nu = ratio(mode_apply(W, 8, xvec), dvec)
    if not mu or not nu:
        raise ArithmeticError("the invariant zero mode does not swap the primary lines")
    a = SQRT6 * I
    if a * a * nu != mu:
        raise ArithmeticError("extremal coefficient squared is not -6")
    gens = {1: dvec + xvec * a, -1: dvec - xvec * a}
    for s, g in gens.items():
        if ratio(mode_apply(W, 8, g), g) != a * nu * sc(s):
            raise ArithmeticError("generator is not an invariant zero-mode eigenvector")

    # Cross-check with the symmetry eigenvectors: symmetrizing the two
    # non-degenerate weight 9/4 eigenvectors lands in the same primary
    # plane with the same leading shape (they mix the two pieces, since
    # the zero-mode generator does not commute with the fixed algebra).
    for lam in (Fraction(1, 2), Fraction(-1, 2)):
        (raw,) = eig[lam]
        g = raw + theta(raw)
        if theta(g) != g or not is_primary(g):
            raise ArithmeticError("symmetrized eigenvector is not even primary")
        coeffs = express_in_span([dvec, xvec], g)
        if coeffs is None or not coeffs[0] or not coeffs[1]:
            raise ArithmeticError("symmetrized eigenvector misses the primary plane")
    return {
        "weight_quarter": bottom,
        "generators": gens,
        "a_values": {1: a, -1: -a},
        "w8_matrix": (mu, nu),
        "spectrum": spectrum,
        "bottom_spectrum": spectrum14,
    }


def quarter_cube_is_minus_one(samples=None):
    """Check that the cube of the symmetry is -1 on the half-charge coset."""
    if samples is None:
        samples = graded_states("V_L2+a/2", Fraction(1, 4)) \
            + graded_states("V_L2+a/2", Fraction(9, 4))
    for v in samples:
        w = sigma(sigma(sigma(v)))
        if w != -v:
            return False
    return True


# --------------------------------------------------------------------------
# The catalog of the twenty-one irreducible modules.


def module_catalog():
    """The twenty-one irreducible modules of the fixed-point algebra:
    name, lowest weight, how this package realizes it, and which earlier
    entry it is isomorphic to (if any)."""
    rows = []

    def row(name, lw, realization, alias=None):
        rows.append({
            "name": name,
            "lowest_weight": Fraction(lw),
            "realization": realization,
            "alias_of": alias,
        })

    row("(V+)^0", 0, "eigenspace 0 of the symmetry on the reflection-even lattice algebra")
    row("(V+)^1", 4, "eigenspace 1 of the symmetry on the reflection-even lattice algebra")
    row("(V+)^2", 4, "eigenspace 2 of the symmetry on the reflection-even lattice algebra")
    row("V-", 1, "reflection-odd part of the integral lattice module")
    row("V_b/8", Fraction(1, 16), "charge b/8 coset module")
    row("V_3b/8", Fraction(9, 16), "charge 3b/8 coset module")
    for k, lw in enumerate((Fraction(1, 36), Fraction(25, 36), Fraction(49, 36)), 1):
        row("W^(1,T1,%d)" % k, lw, "shifted sector of the half-charge lattice module")
    for k, lw in enumerate((Fraction(1, 9), Fraction(4, 9), Fraction(16, 9)), 1):
        row("W^(2,T1,%d)" % k, lw, "shifted sector of the shifted-coset module")
    for k, lw in enumerate((Fraction(1, 36), Fraction(25, 36), Fraction(49, 36)), 1):
        row("W^(1,T2,%d)" % k, lw, "opposite-shift sector of the half-charge lattice module")
    for k, lw in enumerate((Fraction(1, 9), Fraction(4, 9), Fraction(16, 9)), 1):
        row("W^(2,T2,%d)" % k, lw, "opposite-shift sector of the shifted-coset module")
    row("(V_b/4)^0", Fraction(1, 4), "symmetry eigenspace of the charge b/4 module")
    row("(V_b/4)^1", Fraction(9, 4), "symmetry eigenspace of the charge b/4 module")
    row("(V_b/4)^2", Fraction(9, 4), "symmetry eigenspace of the charge b/4 module")

    aliases = {
        "V_b/2+": ("V-", Fraction(1), "reflection-even half-lattice coset"),
        "V_b/2-": ("V-", Fraction(1), "reflection-odd half-lattice coset"),
        "V^(T2,+)": ("V_b/8", Fraction(1, 16), "reflection-twisted module (not realized here)"),
        "V^(T1,+)": ("V_b/8", Fraction(1, 16), "reflection-twisted module (not realized here)"),
        "V^(T2,-)": ("V_3b/8", Fraction(9, 16), "reflection-twisted module (not realized here)"),
        "V^(T1,-)": ("V_3b/8", Fraction(9, 16), "reflection-twisted module (not realized here)"),
    }
    for name, (target, lw, realization) in aliases.items():
        row(name, lw, realization, alias=target)
    return rows
