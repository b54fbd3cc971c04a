"""The small state and scalar expression language."""

from fractions import Fraction

import pytest

from voalab.exactfield import ONE, sc
from voalab.exprparse import ExprError, parse_scalar_expr, parse_state_expr
from voalab.fockspace import State
from voalab.structure import named_vector


def test_named_atoms():
    assert parse_state_expr("E") == named_vector("E")
    assert parse_state_expr("J") == named_vector("J")
    assert parse_state_expr("omega") == named_vector("omega")


def test_kets_and_oscillators():
    assert parse_state_expr("|0>") == State.basis(())
    assert parse_state_expr("|1b>") == State.basis((), 1)
    assert parse_state_expr("|1/2b>") == State.basis((), Fraction(1, 2))
    assert parse_state_expr("h(-3)h(-1)|0>") == State.basis((3, 1))


def test_scaling_and_sums():
    omega = parse_state_expr("h(-1)h(-1)|0> * (1/2)")
    assert omega == named_vector("omega")
    v = parse_state_expr("E + F")
    assert v == State.basis((), 1) * sc(2)
    assert parse_state_expr("E - E") == State()
    assert parse_state_expr("2*E") == named_vector("E") * sc(2)


def test_eigenvector_combination():
    x1 = parse_state_expr("J - 3*r3*i*E")
    assert x1 == named_vector("X1")
    x2 = parse_state_expr("J + 3*r3*i*E")
    assert x2 == named_vector("X2")


def test_scalar_expressions():
    assert parse_scalar_expr("1/2") == sc(Fraction(1, 2))
    assert parse_scalar_expr("r2*r2") == sc(2)
    assert parse_scalar_expr("r6*i * r6*i") == sc(-6)
    assert parse_scalar_expr("1 + 0") == ONE


def test_errors():
    for bad in ["h(-1", "|0", "E +", "(1/2", "unknownname", "h(0)|0>",
                "h(-0)|0>", "|1/3b>", "|xb>", "|1/0b>", "1/0"]:
        with pytest.raises(ExprError):
            parse_state_expr(bad)


def test_errors_name_the_end_of_the_expression():
    for bad in ["", "E +", "2*", "1/2/", "h(", "h(-1)h("]:
        with pytest.raises(ExprError, match="^unexpected end of expression$"):
            parse_state_expr(bad)
    with pytest.raises(ExprError, match="^expected \\), got end of expression$"):
        parse_state_expr("(E")
    with pytest.raises(ExprError, match="^unexpected token '\\*'$"):
        parse_state_expr("* E")
