"""Structure tools: invariant form, Virasoro words, decompositions, and
the catalog of the paper's named vectors (`named_vector`).

The invariant bilinear form is normalized by (1, 1) = 1 and pairs a
monomial h(-n_1)...h(-n_s) e^{qb} with h(-n_1)...h(-n_s) e^{-qb} to the
partition factor prod_d d^{m_d} m_d!, up to sign.  Since it is diagonal
in the Fock basis, every use of it (`pair`, `gram_rational`, the Gram
systems of `decompose_over`, the orthogonality check in `build_u16`)
runs on a State's own format: it reads each state's `packed` view,
its integer coordinate planes over one common denominator in the
parity basis (see `fockspace`), which a State builds at most once and
keeps, and the form sums w_key f x y over the entries x of one side on
plane p and y of the other on plane q at the conjugate key, straight
into the integer matrix of the field coordinate c with e_p e_q = f e_c.  The integer weight
w_key is read off the key's parts and charge.  Each value becomes one
field element at the end.  `decompose_over` hands the integer Gram
system to `solve_square` and sums its combination on the planes.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from fractions import Fraction
from math import factorial

from .exactfield import BASIS_MUL, ZERO, _norm, sc
from .fockspace import (
    State, _charge, _conjugate, _parts, _sum_planes, _trim, basic_vector,
    lattice_component, partitions,
)
from .linalg import express_in_span, solve_square
from .vertexengine import (
    apply_word, mode_apply, mode_apply_theta_even, virasoro_mode,
)


# --------------------------------------------------------------------------
# The form on the engine's coordinate planes.  It pairs the packed key of
# (degs, q8) only with its conjugate key, (degs, -q8), so both sides have
# the same part count k, and in the parity basis (see `fockspace`) a
# pair of odd-k coordinates carries sqrt2 sqrt2 = 2: the weight of a key
# is (-1)^(k + q8/4) prod_d d^{m_d} m_d! 2^(k & 1), an integer.


def _weight(key):
    """The form's integer weight on the packed key against its conjugate
    key, read off its parts [(d, m_d)] and its charge q8; ValueError
    where q8 % 4 != 0 and the form is undefined."""
    q8 = _charge(key)
    if q8 % 4:
        raise ValueError("form undefined between charge-%s/8 sectors" % q8)
    w, k = 1, 0
    for d, m in _parts(key):
        w *= d ** m * factorial(m)
        k += m
    w <<= k & 1
    return -w if (k + q8 // 4) & 1 else w


def _columns(states):
    """{packed key: {plane p: [(i, entry)]}} of the states (den, planes)."""
    cols = {}
    for i, (_, planes) in enumerate(states):
        for p, plane in planes.items():
            for key, x in plane.items():
                cols.setdefault(key, {}).setdefault(p, []).append((i, x))
    return cols


def _products(left, right):
    """{c: M} for two lists of states (den, planes): the integer matrices
    with sum_c M[i][j] e_c the form of left_i and right_j times both
    their denominators, e_c the field coordinates; a coordinate that no
    pair of entries reaches has no matrix.

    The column form of a sparse product: each key of the left states
    meets the entries of the right states at its conjugate key, and
    w_key f x y is added to the matrix of c for each pair of entries x
    on plane p and y on plane q, e_p e_q = f e_c (`BASIS_MUL`).  The
    form is symmetric, and so is each matrix of a Gram (left is right):
    that fill adds only the entries j >= i and mirrors them.
    """
    cols = _columns(right)
    sym = left is right
    coords = {}
    for key, col in (cols if sym else _columns(left)).items():
        dual = cols.get(_conjugate(key))
        if dual is None:
            continue
        w = _weight(key)
        for p, xs in col.items():
            mul = BASIS_MUL[p]
            for q, ys in dual.items():
                c, f = mul[q]
                rows = coords.get(c)
                if rows is None:
                    rows = coords[c] = [[0] * len(right) for _ in left]
                fw = f * w
                for i, x in xs:
                    row = rows[i]
                    x *= fw
                    # ys is ascending in j: a symmetric fill takes j >= i
                    for j, y in (ys[bisect_left(ys, (i,)):] if sym else ys):
                        row[j] += x * y
    if sym:
        for rows in coords.values():
            for i, row in enumerate(rows):
                for j in range(i):
                    row[j] = rows[j][i]
    return coords


def _entry(coords, i, j, den):
    """The field element sum_c coords[c][i][j] e_c / den."""
    return _norm(tuple(coords[c][i][j] if c in coords else 0 for c in range(8)), den)


def pair(u, v):
    """The invariant symmetric bilinear form, normalized by (1, 1) = 1.

    The adjoint of h(n) is -h(-n), so a matched pair of length-l
    monomials contributes (-1)^l prod_d d^{m_d} m_d!; a charge
    exponential pairs with its opposite and contributes the parity of
    its weight.  Computed on the engine's integer coordinate planes of u
    and v as one entry of `_products`, so both are packed and a state
    beyond the key width raises KeyWidthError, as `mode_apply` does.
    The value may be irrational, and ValueError is raised when a term
    with q8 % 4 != 0 meets its conjugate.
    """
    pu, pv = u.packed, v.packed
    return _entry(_products([pu], [pv]), 0, 0, pu[0] * pv[0])


def _gram(left, right):
    """The integer matrix N of two lists of states (den, planes): the
    form of left_i and right_j is N_ij / (d_i d_j), d the denominators.
    Raises ArithmeticError if any entry is irrational."""
    coords = _products(left, right)
    irrational = [(i, j) for c, m in coords.items() if c
                  for i, row in enumerate(m) for j, x in enumerate(row) if x]
    if irrational:
        i, j = irrational[0]
        value = _entry(coords, i, j, left[i][0] * right[j][0])
        raise ArithmeticError("form value %s is not rational" % value)
    return coords.get(0) or [[0] * len(right) for _ in left]


def gram_rational(vectors):
    """The Gram matrix as Fractions; raises ArithmeticError if any entry
    is irrational.  Each vector is read through its packed planes."""
    states = [v.packed for v in vectors]
    dens = [d for d, _ in states]
    return [[Fraction(x, di * dj) for x, dj in zip(row, dens)]
            for row, di in zip(_gram(states, states), dens)]


def is_primary(v):
    """True when L(1) v = L(2) v = 0 (and hence all L(n) v = 0, n > 0)."""
    return not virasoro_mode(1, v) and not virasoro_mode(2, v)


# --------------------------------------------------------------------------
# Virasoro words.


def vacuum_words(degree, min_part=2):
    """Virasoro words L(-p_1)...L(-p_s) of the given total degree, as
    their descending part tuples (p_1, ..., p_s), shortest first and in
    descending lexicographic order within one length.

    The default min_part 2 suits words applied to the vacuum, where a
    trailing L(-1) acts as zero.
    """
    return sorted(partitions(degree, min_part=min_part),
                  key=lambda lam: (len(lam), tuple(-p for p in lam)))


def word_states(words, base):
    """The states L(-p_1)...L(-p_s) base for a family of part tuples,
    each word applied as one `apply_word`."""
    return [apply_word([-p for p in parts], base) for parts in words]


# --------------------------------------------------------------------------
# Exact decomposition over a spanning family.


def decompose_over(target, vectors, blocks=None):
    """Resolve target against the given vectors, block by block.

    blocks is a list of index lists whose spans are mutually orthogonal
    (default: one block).  Within each block the component is found by
    solving the Gram system exactly on integers.  The target and the
    vectors are read through their packed planes, v_j held over d_j
    and the target over d_t; `_gram` gives the integer
    N_ij = d_i d_j <v_i, v_j> and R_i = d_i d_t <v_i, target>,
    `solve_square` solves N y = R and x_j = y_j d_j / d_t, and the
    block's combination is summed on the planes.  A block whose N or R
    has an irrational entry, or whose N is singular modulo the lifting
    prime (see `solve_square`), falls back to `express_in_span`, so the
    answer stays exact.  Returns (coefficients, residual): the residual
    is target minus the combination of the coefficients, so a zero
    residual certifies the answer independently of the orthogonality
    assumption.
    """
    if blocks is None:
        blocks = [list(range(len(vectors)))]
    coeffs = [ZERO] * len(vectors)
    combo = State()
    t = target.packed
    for block in blocks:
        vs = [vectors[i] for i in block]
        states = [v.packed for v in vs]
        try:
            num = _gram(states, states)
            rhs = [row[0] for row in _gram(states, [t])]
            sol = solve_square(num, [rhs])[0]
        except ArithmeticError:
            expr = express_in_span(vs, target)
            if expr is None:
                raise ValueError("target is not resolvable over this block")
            for i, c, v in zip(block, expr, vs):
                coeffs[i] = c
                if c:
                    combo = combo + v * c
            continue
        xs = [y * Fraction(d, t[0]) for (d, _), y in zip(states, sol)]
        for i, x in zip(block, xs):
            coeffs[i] = sc(x)
        combo = combo + State(packed=_trim(*_sum_planes(
            [(x / d, p) for x, (d, p) in zip(xs, states)])))
    return coeffs, target - combo


# --------------------------------------------------------------------------
# The weight-16 primary generator beyond the vacuum module.


def _u16_seed(J, E, apply_e=mode_apply_theta_even):
    """P = J(-9)J + 27 E(-9)E for the states J and E, the vector whose
    vacuum-module component `build_u16` strips.  E(-9)E runs through
    apply_e: by default the theta-even fast path, which needs E
    theta-fixed with no charge-zero part, as the named E is."""
    return mode_apply(J, -9, J) + apply_e(E, -9, E) * 27


def build_u16():
    """The weight-16 primary obtained by stripping the vacuum-module
    component from J_{-9} J + 27 E_{-9} E (`_u16_seed`)."""
    E2 = basic_vector("E2")
    P = _u16_seed(basic_vector("J"), basic_vector("E"))
    words = vacuum_words(16)
    states = word_states(words, State.basis(()))
    _, u16 = decompose_over(P, states)
    if u16.weight() != 16:
        raise ArithmeticError("unexpected weight for the stripped vector")
    if not is_primary(u16):
        raise ArithmeticError("stripped vector is not primary")
    if lattice_component(u16, 2) != E2 * 27:
        raise ArithmeticError("unexpected charge-2 tail")
    if any(_gram([u16.packed], [v.packed for v in states])[0]):
        raise ArithmeticError("stripped vector is not orthogonal to the vacuum module")
    return u16


# --------------------------------------------------------------------------
# The catalog of named vectors.  The Virasoro-word vectors are
# {name: (base, ((parts, coefficient), ...))}, each the sum of
# coefficient L(-p_1)...L(-p_s) base over its words.

_WORD_VECTORS = {
    "u0": ("one", (((4,), Fraction(-8, 3)), ((2, 2), Fraction(112, 9)))),
    "u1": ("one", (((5,), Fraction(-16, 9)), ((3, 2), Fraction(112, 9)))),
    "u2": ("one", (((6,), Fraction(-1856, 135)), ((4, 2), Fraction(-2384, 135)),
                   ((3, 3), Fraction(1316, 135)), ((2, 2, 2), Fraction(1088, 135)))),
    "u3": ("one", (((7,), Fraction(-464, 45)), ((5, 2), Fraction(-928, 45)),
                   ((4, 3), Fraction(40, 9)), ((3, 2, 2), Fraction(544, 45)))),
    "v2": ("J", (((2,), Fraction(28, 75)), ((1, 1), Fraction(23, 300)))),
    "v3": ("J", (((3,), Fraction(14, 75)), ((2, 1), Fraction(14, 75)),
                 ((1, 1, 1), Fraction(-1, 300)))),
    "v4": ("E", (((2,), Fraction(28, 75)), ((1, 1), Fraction(23, 300)))),
    "v5": ("E", (((3,), Fraction(14, 75)), ((2, 1), Fraction(14, 75)),
                 ((1, 1, 1), Fraction(-1, 300)))),
}


@functools.cache
def named_vector(name):
    """The cataloged state of the given name, built once: a Virasoro-word
    vector, W = J(-2)E - E(-2)J, u16 (`build_u16`), or else one of
    `fockspace.basic_vector`, which raises KeyError on an unknown name."""
    if name in _WORD_VECTORS:
        base, terms = _WORD_VECTORS[name]
        words, coeffs = zip(*terms)
        return sum((v * sc(c) for v, c in
                    zip(word_states(words, basic_vector(base)), coeffs)), State())
    if name == "W":
        J, E = basic_vector("J"), basic_vector("E")
        return mode_apply(J, -2, E) - mode_apply(E, -2, J)
    if name == "u16":
        return build_u16()
    return basic_vector(name)


def c_functional(v):
    """The coefficient of h(-1)^w |0> in v, w the weight of v."""
    w = v.weight()
    if w is None:
        return ZERO
    return v.coefficient((1,) * int(w))
