"""Closed-form expressions of one variable ``s``, evaluated as order-3 jets.

Grammar (ASCII):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          right-associative
    atom    := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Precedence is ``^`` above unary minus above ``*``, ``/`` above ``+``, ``-``;
binary operators associate to the left, ``^`` to the right.  ``s`` is the
variable; any other bare identifier is a named parameter bound at evaluation
time.  Unary functions: sin, cos, tan, sinh, cosh, asinh, sqrt, exp, ln, neg.

Exponents that fold to an exact rational constant become closed-form power
nodes; everything else is rewritten to ``exp(g*ln(f))`` with the attendant
positivity restriction on the base.  Error offsets are 0-based byte offsets
into the source text.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

import numpy as np

from . import jets
from .jets import Jet3, JetDomainError


class ExpressionError(Exception):
    pass


class ParseError(ExpressionError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownFunctionError(ParseError):
    pass


class ArityError(ParseError):
    pass


class EvalError(ExpressionError):
    pass


class UnboundParameterError(EvalError):
    def __init__(self, name: str):
        super().__init__(f"unbound parameter '{name}'")
        self.name = name


class DomainEvalError(EvalError):
    """Evaluation left the real domain; carries the offending subexpression
    and, for a batch, the flat index of the first offending sample point."""

    def __init__(self, message: str, subexpression: str, index: int = 0):
        super().__init__(f"{message} in '{subexpression}'")
        self.subexpression = subexpression
        self.index = index


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    """The independent variable s."""


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Func:
    name: str
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: Fraction


Expr = Union[Num, Var, Param, Func, BinOp, Pow]

_NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = set("+-*/^(),")


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | op char | 'eof'
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos, n = 0, len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            tokens.append(_Token("num", m.group(), pos))
            pos = m.end()
            continue
        m = _IDENT_RE.match(text, pos)
        if m:
            tokens.append(_Token("ident", m.group(), pos))
            pos = m.end()
            continue
        if ch in _OPS:
            tokens.append(_Token(ch, ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what}", tok.offset)
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r}", tok.offset)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            return Func("neg", self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind != "^":
            return base
        caret = self.advance()
        # The exponent is parsed at unary level so '^' stays right-associative
        # and forms like s^-2 are accepted.
        exponent = self.unary()
        folded = _fold_rational(exponent)
        if folded is not None:
            return Pow(base, folded)
        # Non-constant exponent: general power via exp/ln.
        return Func("exp", BinOp("*", exponent, Func("ln", base)))

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "(":
                if tok.text not in jets.FUNCTIONS:
                    raise UnknownFunctionError(
                        f"unknown function '{tok.text}'", tok.offset
                    )
                self.advance()
                args = [self.expr()]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")", "')'")
                if len(args) != 1:
                    raise ArityError(
                        f"'{tok.text}' takes 1 argument, got {len(args)}", tok.offset
                    )
                return Func(tok.text, args[0])
            if tok.text in jets.FUNCTIONS:
                raise ParseError(
                    f"function '{tok.text}' used without arguments", tok.offset
                )
            if tok.text == "s":
                return Var()
            return Param(tok.text)
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "')'")
            return node
        raise ParseError("expected expression", tok.offset)


def _fold_rational(node: Expr) -> Optional[Fraction]:
    """Exact rational value of a constant subtree, or None."""
    if isinstance(node, Num):
        return Fraction(node.value)
    if isinstance(node, Func) and node.name == "neg":
        inner = _fold_rational(node.arg)
        return None if inner is None else -inner
    if isinstance(node, BinOp):
        lhs, rhs = _fold_rational(node.lhs), _fold_rational(node.rhs)
        if lhs is None or rhs is None:
            return None
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        if rhs == 0:
            return None  # constant 1/0: defer to evaluation-time error
        return lhs / rhs
    if isinstance(node, Pow) and node.exponent.denominator == 1:
        base = _fold_rational(node.base)
        if base is None:
            return None
        n = int(node.exponent)
        if base == 0 and n < 0:
            return None
        return base ** n
    return None


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree."""
    return _Parser(text).parse()


_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def eval_jet3(e: Expr, s, params: Optional[Mapping[str, float]] = None) -> Jet3:
    """Evaluate ``e`` and its first three s-derivatives at ``s``.

    ``s`` is a float or a 1-D array of sample points evaluated in one pass;
    every channel of a batch result is an array of the shape of ``s``, and
    a domain error reports its first offending element's index.
    """
    params = params or {}
    batch = np.ndim(s) > 0
    var = Jet3.variable(np.asarray(s, dtype=float) if batch else s)

    def apply(node: Expr, fn, *args) -> Jet3:
        try:
            return fn(*args)
        except JetDomainError as exc:
            raise DomainEvalError(str(exc), unparse(node), exc.index) from None

    def ev(node: Expr) -> Jet3:
        if isinstance(node, Num):
            return Jet3.constant(node.value)
        if isinstance(node, Var):
            return var
        if isinstance(node, Param):
            try:
                return Jet3.constant(params[node.name])
            except KeyError:
                raise UnboundParameterError(node.name) from None
        if isinstance(node, Func):
            return apply(node, jets.FUNCTIONS[node.name], ev(node.arg))
        if isinstance(node, BinOp):
            return apply(node, _BINOPS[node.op], ev(node.lhs), ev(node.rhs))
        if isinstance(node, Pow):
            return apply(node, jets.pow_rational, ev(node.base), node.exponent)
        raise TypeError(f"not an expression node: {node!r}")

    out = ev(e)
    if not batch:
        return out
    shape = var.v0.shape
    return Jet3(*(np.broadcast_to(c, shape) for c in (out.v0, out.v1, out.v2, out.v3)))


def eval_value(e: Expr, s: float, params: Optional[Mapping[str, float]] = None) -> float:
    return eval_jet3(e, s, params).v0


# Precedence levels for unparsing.
_ADD, _MUL, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5


def _fmt_exponent(p: Fraction) -> str:
    if p.denominator == 1 and p >= 0:
        return str(int(p))
    if Fraction(float(p)) == p:
        return f"({float(p)!r})"
    return f"({p.numerator}/{p.denominator})"


def unparse(e: Expr) -> str:
    """Render a parsed tree back to source; reparsing gives an equal tree."""

    def un(node: Expr, level: int) -> str:
        if isinstance(node, Num):
            return repr(node.value)
        if isinstance(node, Var):
            return "s"
        if isinstance(node, Param):
            return node.name
        if isinstance(node, Func):
            if node.name == "neg":
                text = "-" + un(node.arg, _NEG)
                return f"({text})" if level > _NEG else text
            return f"{node.name}({un(node.arg, 0)})"
        if isinstance(node, BinOp):
            mine = _ADD if node.op in "+-" else _MUL
            text = f"{un(node.lhs, mine)} {node.op} {un(node.rhs, mine + 1)}"
            return f"({text})" if level > mine else text
        if isinstance(node, Pow):
            text = f"{un(node.base, _ATOM)}^{_fmt_exponent(node.exponent)}"
            return f"({text})" if level > _POW else text
        raise TypeError(f"not an expression node: {node!r}")

    return un(e, 0)
