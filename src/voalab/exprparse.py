"""A small expression language for states.

Grammar sketch:

    state   := sum of products
    product := factors joined by '*' or '/'
    factor  := integer | i | r2 | r3 | r6 | catalog name
             | h(-k)...h(-k) ket | ket | '(' state ')' | '-' factor
    ket     := |0>  or  |q b>   with q an integer or a fraction

Examples: "h(-3)h(-1)|0>", "|1/4b>", "J - r3*r3*r3*i*E",
"h(-1)h(-1)|0> * (1/2)".  A bare scalar s parses to s |0>.
"""

from __future__ import annotations

from fractions import Fraction

from .exactfield import I, SQRT2, SQRT3, SQRT6, Scalar, sc
from .fockspace import State
from .structure import named_vector

_CONSTS = {"i": I, "r2": SQRT2, "r3": SQRT3, "r6": SQRT6}


class ExprError(ValueError):
    pass


def _tokenize(text):
    out = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch in "+-*/()":
            out.append((ch, ch))
            pos += 1
            continue
        if ch == "|":
            end = text.find(">", pos)
            if end < 0:
                raise ExprError("unterminated ket at position %d" % pos)
            out.append(("ket", text[pos + 1: end]))
            pos = end + 1
            continue
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
                pos += 1
            out.append(("int", int(text[start:pos])))
            continue
        if ch.isalpha():
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            out.append(("name", text[start:pos]))
            continue
        raise ExprError("unexpected character %r at position %d" % (ch, pos))
    out.append(("end", None))
    return out


def _parse_ket(body):
    body = body.strip()
    if body == "0":
        return State.basis(())
    if not body.endswith("b"):
        raise ExprError("ket must be |0> or |q b>, got |%s>" % body)
    try:
        return State.basis((), Fraction(body[:-1].strip()))
    except (ValueError, ZeroDivisionError) as exc:
        raise ExprError("bad ket |%s>: %s" % (body, exc))


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            got = "end of expression" if t[0] == "end" else repr(t[1])
            raise ExprError("expected %s, got %s" % (kind, got))
        return t

    def parse(self):
        v = self.sum()
        if self.peek()[0] != "end":
            raise ExprError("trailing input from %r" % (self.peek()[1],))
        return v

    def sum(self):
        v = self.product()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            w = self.product()
            if op == "-":
                w = -w
            v = _add(v, w)
        return v

    def product(self):
        v = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            w = self.factor()
            v = _mul(v, w) if op == "*" else _div(v, w)
        return v

    def factor(self):
        kind, val = self.peek()
        if kind == "-":
            self.next()
            return -self.factor()
        if kind == "(":
            self.next()
            v = self.sum()
            self.expect(")")
            return v
        if kind == "int":
            self.next()
            return sc(val)
        if kind == "ket":
            self.next()
            return _parse_ket(val)
        if kind == "name":
            if val == "h" and self.toks[self.pos + 1][0] == "(":
                return self.monomial()
            self.next()
            if val in _CONSTS:
                return _CONSTS[val]
            try:
                return named_vector(val)
            except KeyError:
                raise ExprError("unknown name %r" % val)
        if kind == "end":
            raise ExprError("unexpected end of expression")
        raise ExprError("unexpected token %r" % (val,))

    def monomial(self):
        degs = []
        while self.peek()[0] == "name" and self.peek()[1] == "h" \
                and self.toks[self.pos + 1][0] == "(":
            self.next()
            self.expect("(")
            sign = self.next()[0]
            if sign == "end":
                raise ExprError("unexpected end of expression")
            k = self.expect("int")[1] if sign == "-" else 0
            if k < 1:
                raise ExprError("h modes in expressions must be creation modes"
                                " h(-k), k >= 1")
            degs.append(k)
            self.expect(")")
        t = self.next()
        if t[0] != "ket":
            raise ExprError("operator chain must end in a ket")
        base = _parse_ket(t[1])
        ((_, q8), coeff), = base.terms.items()
        return State.basis(tuple(sorted(degs, reverse=True)),
                           Fraction(q8, 8), coeff)


def _coerce_state(v):
    return State.basis((), 0, v) if isinstance(v, Scalar) else v


def _add(a, b):
    if isinstance(a, Scalar) and isinstance(b, Scalar):
        return a + b
    return _coerce_state(a) + _coerce_state(b)


def _mul(a, b):
    if isinstance(a, State) and isinstance(b, State):
        raise ExprError("cannot multiply two states")
    # a state scales by a field element on either side; State.__mul__
    # takes it directly, where Scalar.__mul__ would return NotImplemented
    return b * a if isinstance(b, State) else a * b


def _div(a, b):
    if not isinstance(b, Scalar):
        raise ExprError("can only divide by a scalar")
    if not b:
        raise ExprError("division by zero")
    return _mul(a, b.inv())


def parse_state_expr(text):
    """Parse an expression into a State (a bare scalar s gives s |0>)."""
    v = _Parser(_tokenize(text)).parse()
    return _coerce_state(v)


def parse_scalar_expr(text):
    """Parse an expression that must denote a scalar."""
    v = _Parser(_tokenize(text)).parse()
    if not isinstance(v, Scalar):
        raise ExprError("expression is not a scalar")
    return v
