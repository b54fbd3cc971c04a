"""Exact linear algebra over the scalar field and over the rationals.

Two workhorses live here: an incremental echelon form for states with
coefficients in Q(i, sqrt2, sqrt3), used for rank counts, dependency
detection and span membership, and a fraction-free (Bareiss) solver for
square rational systems, used for the larger Gram-matrix solves where
clearing denominators up front keeps the arithmetic in integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .exactfield import ONE, ZERO
from .fockspace import State


class SingularMatrixError(ArithmeticError):
    pass


def _mono_order(m):
    degs, q8 = m
    return (q8, degs)


class Echelon:
    """Incremental row echelon over the scalar field.

    Rows are states; each row remembers its expression in terms of the
    vectors inserted so far, which turns a detected dependency into an
    explicit linear combination.
    """

    def __init__(self):
        self.rows = []  # (pivot monomial, normalized state, expression dict)
        self.count = 0

    def _reduce(self, st, expr):
        for pm, rs, rexpr in self.rows:
            c = st.terms.get(pm)
            if c is None or not c:
                continue
            st = st - rs * c
            for i, x in rexpr.items():
                acc = expr.get(i, ZERO) - x * c
                if acc:
                    expr[i] = acc
                elif i in expr:
                    del expr[i]
        return st, expr

    def residual(self, st):
        """Reduce st against the rows; returns (residual, combination)."""
        st, expr = self._reduce(st, {})
        return st, {i: -x for i, x in expr.items()}

    def insert(self, st):
        """Insert a vector.  Returns None if independent, else the
        coefficients expressing it over previously inserted vectors."""
        idx = self.count
        self.count += 1
        st, expr = self._reduce(st, {idx: ONE})
        if not st:
            return {i: -x for i, x in expr.items() if i != idx}
        pm = max(st.terms, key=_mono_order)
        inv = st.terms[pm].inv()
        st = st * inv
        expr = {i: x * inv for i, x in expr.items()}
        self.rows.append((pm, st, expr))
        return None

    @property
    def rank(self):
        return len(self.rows)


def rank_of(vectors):
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech.rank


def express_in_span(vectors, target):
    """Coefficients x with target = sum x_i vectors[i], or None."""
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    res, combo = ech.residual(target)
    if res:
        return None
    out = [ZERO] * len(vectors)
    for i, c in combo.items():
        out[i] = c
    return out


def rref_kernel(matrix, ncols):
    """Kernel basis of a matrix with Scalar entries.

    matrix: list of rows, each a list of ncols Scalars.  Returns a list
    of kernel vectors (lists of Scalars).
    """
    rows = [list(r) for r in matrix]
    pivots = {}
    r = 0
    for c in range(ncols):
        src = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - b * f for a, b in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
        if r == len(rows):
            break
    kernel = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for c, pr in pivots.items():
            vec[c] = -rows[pr][fc]
        kernel.append(vec)
    return kernel


def fixed_vectors(basis, ops):
    """Basis of the joint fixed space of the maps in ops within span(basis)."""
    monomials = {}
    columns = []
    for v in basis:
        deltas = [op(v) - v for op in ops]
        columns.append(deltas)
        for d in deltas:
            for m in d.terms:
                monomials.setdefault(m, len(monomials))
    nrows = len(monomials) * len(ops)
    matrix = [[ZERO] * len(basis) for _ in range(nrows)]
    for j, deltas in enumerate(columns):
        for k, d in enumerate(deltas):
            for m, c in d.terms.items():
                matrix[k * len(monomials) + monomials[m]][j] = c
    kernel = rref_kernel(matrix, len(basis))
    out = []
    for vec in kernel:
        acc = State()
        for c, v in zip(vec, basis):
            if c:
                acc = acc + v * c
        out.append(acc)
    return out


# --------------------------------------------------------------------------
# Exact rational solving via fraction-free elimination.


def _clear_row(row):
    """A row of Fractions as integers over their least common denominator."""
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row]


def solve_square(mat, rhs_cols):
    """Solve M x = b for each rhs column, exactly.

    mat: n x n with Fraction or int entries; rhs_cols: list of columns
    (each length n).  Returns a list of solution columns of Fractions.
    Raises SingularMatrixError when M is singular.
    """
    n = len(mat)
    m = len(rhs_cols)
    aug = []
    for i in range(n):
        row = [Fraction(x) for x in mat[i]] + [Fraction(col[i]) for col in rhs_cols]
        aug.append(_clear_row(row))
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if aug[i][k]), None)
        if piv is None:
            raise SingularMatrixError("singular at column %d" % k)
        if piv != k:
            aug[k], aug[piv] = aug[piv], aug[k]
        pk = aug[k][k]
        for i in range(k + 1, n):
            ri, rk = aug[i], aug[k]
            f = ri[k]
            for j in range(k + 1, n + m):
                ri[j] = (ri[j] * pk - f * rk[j]) // prev
            ri[k] = 0
        prev = pk
    sols = []
    for c in range(m):
        x = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            acc = Fraction(aug[i][n + c])
            for j in range(i + 1, n):
                acc -= aug[i][j] * x[j]
            x[i] = acc / aug[i][i]
        sols.append(x)
    return sols
