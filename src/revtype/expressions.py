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
positivity restriction on the base.  A folded exponent whose numerator or
denominator needs more than MAX_EXPONENT_BITS bits is a parse error, raised
before the fold computes any power that must exceed that bound.  A number
literal that is not finite, such as ``1e999``, and a tree or parse nested
past MAX_DEPTH are parse errors too.  Error offsets are 0-based character
offsets: indices into the source text as a ``str``, not into its bytes.
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

import numpy as np

from . import jets
from .jets import Jet3, JetDomainError


#: Bit length bound on a folded exponent's numerator and denominator, so the
#: fold's powers and `jets.pow_int`'s loop stay small whatever the text says.
MAX_EXPONENT_BITS = 64

#: Bound on the depth of a parsed tree and, two levels over it, on the
#: nesting of the parser's recursion, so parsing, evaluation, unparsing and
#: folding recurse at most a few hundred frames deep whatever the text says.
#: The two levels hold the parenthesis and minus sign that `unparse` writes
#: in an exponent, as in ``s^(-1.0)``: every parsed tree unparses to text
#: that parses again.
MAX_DEPTH = 100


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

#: One token per match: a number (``\d`` is any Unicode decimal digit, as
#: `float` reads), an identifier, an operator, a run of whitespace (``\s``
#: is exactly `str.isspace`), or any other character, which is an error.
_TOKEN_RE = re.compile(r"""
    (?P<num> (?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)? )
  | (?P<ident> [A-Za-z_][A-Za-z_0-9]* )
  | (?P<op> [-+*/^(),] )
  | \s+
  | (?P<bad> . )
""", re.VERBOSE | re.DOTALL)

#: Precedence of each binary operator, loosest first, read by the parser's
#: `binary` and by `unparse`; unary minus, ``^`` and atoms bind tighter.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
_TIGHTEST = max(_PRECEDENCE.values())
_NEG, _POW, _ATOM = _TIGHTEST + 1, _TIGHTEST + 2, _TIGHTEST + 3
_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

#: ``kind`` is 'num', 'ident', an operator's own character or 'eof'.
_Token = namedtuple("_Token", "kind text offset")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if kind is not None:
            tokens.append(_Token(m.group() if kind == "op" else kind, m.group(), m.start()))
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    """Recursive descent.  Each rule returns its tree with the tree's depth,
    a parse error past MAX_DEPTH, and ``nesting`` counts the `unary` calls
    open, through which every recursion passes, a parse error past
    MAX_DEPTH + 2.  `binary` levels 1 and 2 are the grammar's ``expr`` and
    ``term``; each rule calls the next directly: five frames a nesting level."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

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
        node, _ = self.binary()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r}", tok.offset)
        return node

    @staticmethod
    def deeper(offset: int, *depths: int) -> int:
        """Depth of a node over children of ``depths``, or a ParseError at
        ``offset`` past MAX_DEPTH."""
        depth = 1 + max(depths)
        if depth > MAX_DEPTH:
            raise ParseError("expression nested too deeply", offset)
        return depth

    def binary(self, level: int = 1) -> tuple[Expr, int]:
        """Left-associative operators of `_PRECEDENCE` ``level`` and tighter."""
        node, depth = self.binary(level + 1) if level < _TIGHTEST else self.unary()
        while _PRECEDENCE.get(self.peek().kind) == level:
            tok = self.advance()
            rhs, rhs_depth = self.binary(level + 1) if level < _TIGHTEST else self.unary()
            node, depth = BinOp(tok.kind, node, rhs), self.deeper(tok.offset, depth, rhs_depth)
        return node, depth

    def unary(self) -> tuple[Expr, int]:
        tok = self.peek()
        self.nesting += 1
        if self.nesting > MAX_DEPTH + 2:
            raise ParseError("expression nested too deeply", tok.offset)
        if tok.kind == "-":
            self.advance()
            arg, depth = self.unary()
            node, depth = Func("neg", arg), self.deeper(tok.offset, depth)
        else:
            node, depth = self.power()
        self.nesting -= 1
        return node, depth

    def power(self) -> tuple[Expr, int]:
        base, depth = self.atom()
        if self.peek().kind != "^":
            return base, depth
        self.advance()
        at = self.peek().offset
        # The exponent is parsed at unary level so '^' stays right-associative
        # and forms like s^-2 are accepted.
        exponent, exponent_depth = self.unary()
        folded = _fold_rational(exponent, at)
        if folded is not None:
            if _bits(folded) > MAX_EXPONENT_BITS:
                raise ParseError("exponent too large", at)
            return Pow(base, folded), self.deeper(at, depth)
        # Non-constant exponent: general power via exp/ln.
        return (Func("exp", BinOp("*", exponent, Func("ln", base))),
                self.deeper(at, exponent_depth + 1, depth + 2))

    def atom(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError("number out of range", tok.offset)
            return Num(value), 1
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "(":
                if tok.text not in jets.FUNCTIONS:
                    raise UnknownFunctionError(
                        f"unknown function '{tok.text}'", tok.offset
                    )
                self.advance()
                args = [self.binary()]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.binary())
                self.expect(")", "')'")
                if len(args) != 1:
                    raise ArityError(
                        f"'{tok.text}' takes 1 argument, got {len(args)}", tok.offset
                    )
                arg, depth = args[0]
                return Func(tok.text, arg), self.deeper(tok.offset, depth)
            if tok.text in jets.FUNCTIONS:
                raise ParseError(
                    f"function '{tok.text}' used without arguments", tok.offset
                )
            if tok.text == "s":
                return Var(), 1
            return Param(tok.text), 1
        if tok.kind == "(":
            self.advance()
            node = self.binary()
            self.expect(")", "')'")
            return node
        raise ParseError("expected expression", tok.offset)


def _bits(q: Fraction) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def _fold_rational(node: Expr, offset: int) -> Optional[Fraction]:
    """Exact rational value of a constant subtree, or None; ParseError at
    ``offset`` instead of a power over MAX_EXPONENT_BITS bits."""
    if isinstance(node, Num):
        return Fraction(node.value)
    if isinstance(node, Func) and node.name == "neg":
        inner = _fold_rational(node.arg, offset)
        return None if inner is None else -inner
    if isinstance(node, BinOp):
        lhs, rhs = _fold_rational(node.lhs, offset), _fold_rational(node.rhs, offset)
        if lhs is None or rhs is None:
            return None
        try:
            return _BINOPS[node.op](lhs, rhs)
        except ZeroDivisionError:
            return None  # constant x/0: defer to evaluation-time error
    if isinstance(node, Pow) and node.exponent.denominator == 1:
        base = _fold_rational(node.base, offset)
        if base is None:
            return None
        n = int(node.exponent)
        if base == 0 and n < 0:
            return None
        # |base ** n| >= 2 ** (|n| * (bits - 1)) whenever bits >= 2.
        if abs(n) * (_bits(base) - 1) >= MAX_EXPONENT_BITS:
            raise ParseError("exponent too large", offset)
        return base ** n
    return None


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree."""
    return _Parser(text).parse()


@np.errstate(all="ignore")
def _constant_value(fn, args) -> float:
    """The value of jet rule ``fn`` on constant operands.  Its unused
    derivative formulas may not fail it: they run on np.float64 with every
    floating-point flag off, so one that divides by an underflowed zero
    (1/x^2 in ln at x = 1e-200) gives inf rather than raising."""
    return float(fn(*(Jet3(np.float64(a)) if isinstance(a, float) else a for a in args)).v0)


def eval_jet3(e: Expr, s, params: Optional[Mapping[str, float]] = None) -> Jet3:
    """Evaluate ``e`` and its first three s-derivatives at ``s``.

    ``s`` is a 1-D array of sample points evaluated in one pass: every
    channel of the result is an array of the shape of ``s``, and a domain
    error reports its first offending element's index.  A float ``s`` is a
    one-point batch whose channels are element 0 of each array.

    A subtree without ``s`` evaluates to a float, which meets jets through
    the float paths of `Jet3`, so no constant's zero channels are carried.
    A constant ``neg``, ``+``, ``-`` or ``*`` is Python float arithmetic,
    which cannot trap; division, functions and powers, which can, take
    `_constant_value`.
    """
    if np.ndim(s) == 0:
        j = eval_jet3(e, np.array([s], dtype=float), params)
        return Jet3(j.v0[0], j.v1[0], j.v2[0], j.v3[0])
    params = params or {}
    var = Jet3.variable(np.asarray(s, dtype=float))

    def apply(node: Expr, fn, *args) -> Jet3 | float:
        try:
            # Operands are (arg,), (lhs, rhs) or (base, exponent): the ends hold every jet.
            if isinstance(args[0], Jet3) or isinstance(args[-1], Jet3):
                return fn(*args)
            return _constant_value(fn, args)
        except JetDomainError as exc:
            raise DomainEvalError(str(exc), unparse(node), exc.index) from None

    def ev(node: Expr) -> Jet3 | float:
        if isinstance(node, Num):
            return float(node.value)
        if isinstance(node, Var):
            return var
        if isinstance(node, Param):
            try:
                return float(params[node.name])
            except KeyError:
                raise UnboundParameterError(node.name) from None
        if isinstance(node, Func):
            arg = ev(node.arg)
            if node.name == "neg" and isinstance(arg, float):
                return -arg
            return apply(node, jets.FUNCTIONS[node.name], arg)
        if isinstance(node, BinOp):
            lhs, rhs = ev(node.lhs), ev(node.rhs)
            if node.op != "/" and isinstance(lhs, float) and isinstance(rhs, float):
                return _BINOPS[node.op](lhs, rhs)
            return apply(node, _BINOPS[node.op], lhs, rhs)
        if isinstance(node, Pow):
            return apply(node, jets.pow_rational, ev(node.base), node.exponent)
        raise TypeError(f"not an expression node: {node!r}")

    out = ev(e)
    if isinstance(out, float):
        out = Jet3(out)
    shape = var.v0.shape
    return Jet3(*(c if isinstance(c, np.ndarray) and c.shape == shape
                  else np.broadcast_to(c, shape) for c in (out.v0, out.v1, out.v2, out.v3)))


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
            mine = _PRECEDENCE[node.op]
            text = f"{un(node.lhs, mine)} {node.op} {un(node.rhs, mine + 1)}"
            return f"({text})" if level > mine else text
        if isinstance(node, Pow):
            text = f"{un(node.base, _ATOM)}^{_fmt_exponent(node.exponent)}"
            return f"({text})" if level > _POW else text
        raise TypeError(f"not an expression node: {node!r}")

    return un(e, 0)
