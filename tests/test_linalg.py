"""The exact square solver: p-adic lifting checked against fraction-free
(Bareiss) elimination, its certificate and its singular cases."""

import random
from fractions import Fraction
from math import lcm

import pytest

from voalab import linalg
from voalab.fockspace import State
from voalab.linalg import SingularMatrixError, solve_square
from voalab.structure import _gram, named_vector, vacuum_words, word_states
from voalab.vertexengine import mode_apply, mode_apply_theta_even


def _bareiss(mat, rhs_cols):
    """Fraction-free elimination with Fraction back-substitution: the
    oracle for `solve_square`."""
    n = len(mat)
    m = len(rhs_cols)
    aug = []
    for i in range(n):
        row = [Fraction(x) for x in mat[i]] + [Fraction(col[i]) for col in rhs_cols]
        den = lcm(*[x.denominator for x in row])
        aug.append([x.numerator * (den // x.denominator) for x in row])
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


def _entry(rng, bits, fractions):
    num = rng.randrange(-2 ** bits, 2 ** bits)
    return Fraction(num, rng.randrange(1, 2 ** bits)) if fractions else num


def test_random_systems_match_bareiss():
    rng = random.Random(20261018)
    solved = 0
    for n in range(13):
        for bits in (2, 20, 80):
            for fractions in (False, True):
                mat = [[_entry(rng, bits, fractions) for _ in range(n)] for _ in range(n)]
                cols = [[_entry(rng, bits, fractions) for _ in range(n)]
                        for _ in range(rng.randrange(1, 4))]
                try:
                    expected = _bareiss(mat, cols)
                except SingularMatrixError:
                    with pytest.raises(SingularMatrixError):
                        solve_square(mat, cols)
                    continue
                assert solve_square(mat, cols) == expected
                solved += 1
    assert solved >= 70


def test_large_solution_takes_many_lifting_steps(monkeypatch):
    calls = []
    solve_mod = linalg._solve_mod

    def spy(factors, r):
        calls.append(1)
        return solve_mod(factors, r)

    monkeypatch.setattr(linalg, "_solve_mod", spy)
    mat = [[3, 1, 0, 2], [1, 4, 1, 0], [0, 1, 5, 1], [2, 0, 1, 7]]
    big = 2 ** 200 + 12345
    rhs = [big, -3 * big, 7, Fraction(big, 11)]
    sol = solve_square(mat, [rhs])
    assert sol == _bareiss(mat, [rhs])
    assert max(abs(x.numerator) for x in sol[0]) > linalg._PRIME ** 2
    assert len(calls) >= 8


def test_weight16_gram_system_matches_bareiss():
    J = named_vector("J")
    E = named_vector("E")
    target = mode_apply(J, -9, J) + mode_apply_theta_even(E, -9, E) * 27
    states = [v.packed for v in word_states(vacuum_words(16), State.basis(()))]
    num = _gram(states, states)
    rhs = [row[0] for row in _gram(states, [target.packed])]
    assert len(num) == 55
    assert solve_square(num, [rhs]) == _bareiss(num, [rhs])


def test_rank_deficient_raises():
    mat = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    with pytest.raises(SingularMatrixError):
        solve_square(mat, [[1, 2, 3]])
    with pytest.raises(SingularMatrixError):
        solve_square([[Fraction(1, 3), 1], [1, 3]], [[1, 1]])


def test_wrong_lifted_digit_fails_the_certificate(monkeypatch):
    calls = []
    solve_mod = linalg._solve_mod

    def corrupt(factors, r):
        digits = solve_mod(factors, r)
        calls.append(1)
        if len(calls) == 2:
            digits[0] = (digits[0] + 1) % linalg._PRIME
        return digits

    mat = [[5, -2, 1], [3, 7, -4], [1, 1, 9]]
    rhs = [2 ** 90 + 1, -(2 ** 70), Fraction(2 ** 80, 3)]
    assert solve_square(mat, [rhs]) == _bareiss(mat, [rhs])
    monkeypatch.setattr(linalg, "_solve_mod", corrupt)
    with pytest.raises(ArithmeticError) as err:
        solve_square(mat, [rhs])
    assert not isinstance(err.value, SingularMatrixError)
    assert len(calls) > 2
