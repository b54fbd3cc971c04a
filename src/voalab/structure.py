"""Structure tools: invariant form, Virasoro words, decompositions.

The invariant bilinear form is normalized by (1, 1) = 1 and pairs a
monomial h(-n_1)...h(-n_s) e^{qb} with h(-n_1)...h(-n_s) e^{-qb} to the
partition factor prod_d d^{m_d} m_d!, up to sign.  Since it is diagonal
in the Fock basis, every use of it (`pair`, `gram_rational`, the Gram
systems of `decompose_over`, the orthogonality check in `build_u16`)
runs on integer Fock coordinates: a state is converted once to integer
rows, one per field coordinate, over one common denominator (the dual
side at the conjugate monomials, times the signed zlam), a pairing is a
plain-int dot product, and each value becomes one field element at the
end.  `decompose_over` hands the integer Gram system to `solve_square`
and sums its combination on the same rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .exactfield import ZERO, Scalar, basis_products, from_basis_products, sc
from .fockspace import State, named_vector, lattice_component, partitions
from .linalg import express_in_span, solve_square
from .vertexengine import apply_word, mode_apply, mode_apply_theta_even, virasoro_mode


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


# --------------------------------------------------------------------------
# The form on integer Fock coordinates: (degs, q8) meets only (degs, -q8),
# with weight (-1)^(len(degs) + q8/4) zlam(degs).


def _index(vectors):
    """Positions of the monomials of the vectors, and the signed weight of
    each position (None where q8 % 4 != 0 and the form is undefined)."""
    positions, weights = {}, []
    for v in vectors:
        for m in v.terms:
            if m not in positions:
                positions[m] = len(weights)
                degs, q8 = m
                if q8 % 4:
                    weights.append(None)
                else:
                    w = zlam(degs)
                    weights.append(-w if (len(degs) + q8 // 4) % 2 else w)
    return positions, weights


def _rows(v, index, dual):
    """(den, {coordinate: integer row over the index}) with v = row / den.

    The primal side places each term at its own monomial, which must be
    in the index.  The dual side places each term at its conjugate
    monomial, skips terms whose conjugate is not indexed, and raises
    ValueError where a q8 % 4 != 0 term meets its conjugate.
    """
    positions, weights = index
    den = lcm(*[c.den for c in v.terms.values()])
    n = len(weights)
    rows = {}
    for (degs, q8), c in v.terms.items():
        if dual:
            pos = positions.get((degs, -q8))
            if pos is None:
                continue
            f = weights[pos]
            if f is None:
                raise ValueError("form undefined between charge-%s/8 sectors" % -q8)
            f *= den // c.den
        else:
            pos = positions[degs, q8]
            f = den // c.den
        for p, x in enumerate(c.num):
            if x:
                row = rows.get(p)
                if row is None:
                    row = rows[p] = [0] * n
                row[pos] = x * f
    return den, rows


def _terms(pu, dv):
    """The (p, q, plain-int dot product) terms of a primal and a dual
    conversion over one index."""
    return [(p, q, sum(map(mul, a, b))) for p, a in pu[1].items() for q, b in dv[1].items()]


def _form(pu, dv):
    """The form of a primal and a dual conversion over one index."""
    return from_basis_products(_terms(pu, dv), pu[0] * dv[0])


def _int_form(pu, dv):
    """The form of a primal and a dual conversion times both their
    denominators, an integer; ArithmeticError where it is irrational."""
    terms = _terms(pu, dv)
    num = basis_products(terms)
    if any(num[1:]):
        raise ArithmeticError("form value %s is not rational"
                              % from_basis_products(terms, pu[0] * dv[0]))
    return num[0]


def _pairings(u, vectors):
    """[pair(u, v) for v in vectors], with u converted once."""
    index = _index([u])
    pu = _rows(u, index, False)
    return [_form(pu, _rows(v, index, True)) for v in vectors]


def pair(u, v):
    """The invariant symmetric bilinear form, normalized by (1, 1) = 1.

    The adjoint of h(n) is -h(-n), so a matched pair of length-l
    monomials contributes (-1)^l zlam; a charge exponential pairs with
    its opposite and contributes the parity of its weight.  Computed on
    integer Fock coordinates; the value may be irrational, and ValueError
    is raised only when a term with q8 % 4 != 0 meets its conjugate.
    """
    return _pairings(u, [v])[0]


def _gram(vectors):
    """(index, primal rows, N) for the vectors v_i = row_i / d_i: N is the
    integer matrix <row_i, row_j>, so the Gram matrix is N_ij / (d_i d_j).
    Raises ArithmeticError if any entry is irrational."""
    index = _index(vectors)
    prim = [_rows(v, index, False) for v in vectors]
    dual = [_rows(v, index, True) for v in vectors]
    n = len(vectors)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            out[i][j] = out[j][i] = _int_form(prim[i], dual[j])
    return index, prim, out


def gram_rational(vectors):
    """The Gram matrix as Fractions; raises ArithmeticError if any entry
    is irrational.  Each vector is converted to integer coordinates once."""
    _, prim, num = _gram(vectors)
    dens = [d for d, _ in prim]
    return [[Fraction(x, di * dj) for x, dj in zip(row, dens)]
            for row, di in zip(num, dens)]


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


class DecompositionResult:
    """Coefficients over a flat list of vectors plus an exact residual."""

    __slots__ = ("coefficients", "residual")

    def __init__(self, coefficients, residual):
        self.coefficients = coefficients
        self.residual = residual

    @property
    def exact(self):
        return not self.residual

    def __iter__(self):
        return iter((self.coefficients, self.residual))


def _combination(index, prim, coeffs):
    """sum_j x_j v_j for rational coefficients x_j and v_j = row_j / d_j
    given by their primal rows, summed on integers: one Scalar per
    monomial at the end."""
    scaled = [x / d for x, (d, _) in zip(coeffs, prim)]
    den = lcm(*[c.denominator for c in scaled])
    acc = {}
    for c, (_, rows) in zip(scaled, prim):
        k = c.numerator * (den // c.denominator)
        if k:
            for p, row in rows.items():
                a = acc.get(p)
                acc[p] = ([k * x for x in row] if a is None
                          else [s + k * x for s, x in zip(a, row)])
    terms = {}
    for m, pos in index[0].items():
        num = [acc[p][pos] if p in acc else 0 for p in range(8)]
        if any(num):
            terms[m] = Scalar(num, den)
    return State(terms)


def decompose_over(target, vectors, blocks=None):
    """Resolve target against the given vectors, block by block.

    blocks is a list of index lists whose spans are mutually orthogonal
    (default: one block).  Within each block the component is found by
    solving the Gram system exactly on integers.  Writing v_j = row_j / d_j
    and the target as t / d_t, N_ij = <row_i, row_j> and R_i = <row_i, t>
    are integers from `_gram`'s kernel; `solve_square` solves N y = R and
    x_j = y_j d_j / d_t, and the block's combination is summed on the same
    integer rows.  A block whose N or R has an irrational entry, or whose
    N is singular modulo the lifting prime (see `solve_square`), falls
    back to `express_in_span`, so the answer stays exact.  The returned
    residual is target minus the combination of the returned
    coefficients, so a zero residual certifies the answer independently
    of the orthogonality assumption.
    """
    if blocks is None:
        blocks = [list(range(len(vectors)))]
    coeffs = [ZERO] * len(vectors)
    combo = State()
    for block in blocks:
        vs = [vectors[i] for i in block]
        try:
            index, prim, num = _gram(vs)
            dt = _rows(target, index, True)
            sol = solve_square(num, [[_int_form(p, dt) for p in prim]])[0]
        except ArithmeticError:
            expr = express_in_span(vs, target)
            if expr is None:
                raise ValueError("target is not resolvable over this block")
            for i, c, v in zip(block, expr, vs):
                coeffs[i] = c
                if c:
                    combo = combo + v * c
            continue
        xs = [y * Fraction(p[0], dt[0]) for p, y in zip(prim, sol)]
        for i, x in zip(block, xs):
            coeffs[i] = sc(x)
        combo = combo + _combination(index, prim, xs)
    return DecompositionResult(coeffs, target - combo)


# --------------------------------------------------------------------------
# The weight-16 primary generator beyond the vacuum module.


def build_u16():
    """The weight-16 primary obtained by stripping the vacuum-module
    component from J_{-9} J + 27 E_{-9} E."""
    J = named_vector("J")
    E = named_vector("E")
    E2 = named_vector("E2")
    P = mode_apply(J, -9, J) + mode_apply_theta_even(E, -9, E) * 27
    words = vacuum_words(16)
    states = word_states(words, State.basis(()))
    dec = decompose_over(P, states)
    u16 = dec.residual
    if u16.weight() != 16:
        raise ArithmeticError("unexpected weight for the stripped vector")
    if not is_primary(u16):
        raise ArithmeticError("stripped vector is not primary")
    if lattice_component(u16, 2) != E2 * 27:
        raise ArithmeticError("unexpected charge-2 tail")
    if any(_pairings(u16, states)):
        raise ArithmeticError("stripped vector is not orthogonal to the vacuum module")
    return u16


def c_functional(v, weight=None):
    """The coefficient of h(-1)^w |0> in v, w the weight of v."""
    w = v.weight() if weight is None else weight
    if w is None:
        return ZERO
    w = int(w)
    return v.coefficient((1,) * w)
