"""Exact linear algebra over the scalar field and over the rationals.

Two workhorses live here: an incremental echelon form for states with
coefficients in Q(i, sqrt2, sqrt3), used for rank counts, dependency
detection and span membership, and a solver for square rational
systems, used for the larger Gram-matrix solves: it clears each row to
integers, factors the matrix once modulo a prime below 2**30 and lifts
each solution p-adically (Dixon), returning it only after an exact
integer certificate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from operator import mul

from .exactfield import ONE, ZERO
from .fockspace import _coefficient


class SingularMatrixError(ArithmeticError):
    pass


class Echelon:
    """Incremental row echelon over the scalar field.

    Rows are states; each row remembers its expression in terms of the
    vectors inserted so far, which turns a detected dependency into an
    explicit linear combination.  A row's pivot is its largest packed key.
    """

    def __init__(self):
        self.rows = []  # (pivot key, normalized state, expression dict)
        self.count = 0

    def _reduce(self, st, expr):
        for pk, rs, rexpr in self.rows:
            c = _coefficient(*st.packed, pk)
            if not c:
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
        pk = max(max(plane) for plane in st.packed[1].values())
        inv = _coefficient(*st.packed, pk).inv()
        st = st * inv
        expr = {i: x * inv for i, x in expr.items()}
        self.rows.append((pk, st, expr))
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


def fixed_vectors(basis, ops):
    """Basis of the joint fixed space of the linear maps in ops within
    span(basis), for linearly independent basis vectors.

    One op at a time: insert op(b_i) - b_i for every current vector
    b_i; each dependency op(b_i) - b_i = sum_j c_j (op(b_j) - b_j) gives
    the fixed vector b_i - sum_j c_j b_j, and those vectors are the
    basis the next op runs on.
    """
    vecs = list(basis)
    for op in ops:
        ech = Echelon()
        fixed = []
        for b in vecs:
            dep = ech.insert(op(b) - b)
            if dep is not None:
                for j, c in dep.items():
                    b = b - vecs[j] * c
                fixed.append(b)
        vecs = fixed
    return vecs


# --------------------------------------------------------------------------
# Exact rational solving by p-adic lifting (Dixon 1982) with rational
# reconstruction (Wang 1981).

# The lifting prime, the largest below 2**30: a product of two residues
# fits in two 30-bit digits.
_PRIME = 2 ** 30 - 35


def _clear_row(row):
    """A row of ints or Fractions as integers over their least common
    denominator; a row of ints comes back unchanged."""
    den = lcm(*[x.denominator for x in row])
    return [x.numerator * (den // x.denominator) for x in row]


def _lu_mod(a):
    """LU factors of the integer matrix a modulo p = `_PRIME`, one
    (source row, L row, 1/U_kk, U row right of the diagonal times 1/U_kk
    and reversed) per pivot.  Raises SingularMatrixError when a is
    singular mod p.

    Each working row is packed into one integer, an entry per slot of
    `size` bytes, so that eliminating a column from a row is one
    big-integer multiply-add: row += (p - f) * pivot row.  The pivot row
    is reduced mod p and entries never go negative; a slot takes at most
    n such updates of less than p**2 each, so it never overflows into
    the next, and only the pivot row is unpacked and reduced.
    """
    p = _PRIME
    n = len(a)
    size = (2 * p.bit_length() + (n + 1).bit_length() + 7) // 8
    mask = (1 << 8 * size) - 1

    def pack(row):
        return int.from_bytes(b"".join([x.to_bytes(size, "little") for x in row]), "little")

    work = [[[], pack([x % p for x in row]), i] for i, row in enumerate(a)]
    factors = []
    for k in range(n):
        shift = 8 * size * k
        piv = next((i for i in range(k, n) if (work[i][1] >> shift & mask) % p), None)
        if piv is None:
            raise SingularMatrixError("singular modulo %d at column %d" % (p, k))
        work[k], work[piv] = work[piv], work[k]
        lrow, packed, src = work[k]
        raw = (packed >> shift).to_bytes(size * (n - k), "little")
        urow = [int.from_bytes(raw[j:j + size], "little") % p
                for j in range(0, len(raw), size)]
        inv = pow(urow[0], -1, p)
        pk = pack(urow) << shift
        for w in work[k + 1:]:
            f = (w[1] >> shift & mask) * inv % p
            w[0].append(f)
            if f:
                w[1] += (p - f) * pk
        factors.append((src, lrow, inv, [x * inv % p for x in reversed(urow[1:])]))
    return factors


def _solve_mod(factors, r):
    """The x with A x = r (mod `_PRIME`), from the factors `_lu_mod` gave
    for A."""
    p = _PRIME
    y = []
    for src, lrow, _, _ in factors:
        y.append((r[src] - sum(map(mul, lrow, y))) % p)
    xrev = []
    for (_, _, inv, urev), yk in zip(reversed(factors), reversed(y)):
        xrev.append((yk * inv - sum(map(mul, urev, xrev))) % p)
    xrev.reverse()
    return xrev


def _ratrecon(u, m, bound):
    """(a, b) with a = b u (mod m), |a| <= bound and 0 < b <= bound, or
    None; unique when 2 bound**2 < m (Wang's extended-Euclid form)."""
    r0, r1, t0, t1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if t1 > bound or gcd(r1, t1) != 1:
        return None
    return r1, t1


def _reconstruct(x, m):
    """(den, nums) with x_j = nums_j / den (mod m) for each entry, or None.

    Each entry is reconstructed times the denominator found so far, so
    past the first few entries most are small integers read off their
    symmetric residue without running Euclid."""
    bound = isqrt((m - 1) // 2)
    den = 1
    parts = []
    for u in x:
        v = u * den % m
        if v > m // 2:
            v -= m
        if -bound <= v <= bound:
            a, b = v, 1
        else:
            ab = _ratrecon(v, m, bound)
            if ab is None:
                return None
            a, b = ab
        parts.append((a, den * b))
        den *= b
    return den, [a * (den // d) for a, d in parts]


def _lift(a, factors, b):
    """The certified rational solution of a x = b by p-adic lifting.

    x is lifted one base-p digit at a time (x_k = A^-1 r mod p, then
    r <- (r - A x_k) / p) and rationally reconstructed at 1, 2, 4, ...
    digits.  A reconstruction is returned only when the integer
    certificate a * nums == den * b holds.  By Cramer's rule every
    numerator and the common denominator are at most the Hadamard bound
    H of [a | b]; once p**k > 2 H**2 reconstruction cannot fail, so a
    result still uncertified there raises ArithmeticError."""
    p = _PRIME
    cap = 2 * prod(sum(v * v for v in row) + bi * bi for row, bi in zip(a, b))
    x = [0] * len(a)
    r = list(b)
    m = 1
    k = 0
    check = 1
    while True:
        d = _solve_mod(factors, r)
        x = [xi + di * m for xi, di in zip(x, d)]
        r = [(ri - sum(map(mul, row, d))) // p for ri, row in zip(r, a)]
        m *= p
        k += 1
        if k < check and m <= cap:
            continue
        check *= 2
        sol = _reconstruct(x, m)
        if sol is not None:
            den, nums = sol
            if all(sum(map(mul, row, nums)) == den * bi for row, bi in zip(a, b)):
                return [Fraction(v, den) for v in nums]
        if m > cap:
            raise ArithmeticError("p-adic lifting left no certified solution "
                                  "within the Hadamard bound")


def solve_square(mat, rhs_cols):
    """Solve M x = b for each rhs column, exactly.

    mat: n x n with Fraction or int entries; rhs_cols: list of columns
    (each length n).  Returns a list of solution columns of Fractions.

    Each row of [M | b] is cleared to integers, M is LU-factored once
    modulo the fixed prime `_PRIME`, and each column is solved by p-adic
    lifting (`_lift`).  A column is returned only after the exact
    integer certificate A X = d b holds, so every result is the true
    solution; a lifting that fails to certify within the Hadamard bound
    raises ArithmeticError.

    SingularMatrixError means M is singular modulo `_PRIME`.  Every
    singular M is, but so is a nonsingular M whose determinant `_PRIME`
    divides: the error says only that this route has no answer, and a
    caller that needs one falls back to another exact route (as
    `structure.decompose_over` does with `express_in_span`).
    """
    n = len(mat)
    rows = [_clear_row(list(mat[i]) + [col[i] for col in rhs_cols]) for i in range(n)]
    a = [row[:n] for row in rows]
    factors = _lu_mod(a)
    return [_lift(a, factors, [row[n + c] for row in rows])
            for c in range(len(rhs_cols))]
