"""Shared test oracles: central finite differences, symbolic differentiation,
and a deterministic random-expression generator.

These stay independent of the jet-propagation code paths they check.
"""

from __future__ import annotations

import math

import sympy as sp

from revtype import eval_jet3, parse

_S = sp.Symbol("s")
SYMPY_LOCALS = {"s": _S, "ln": sp.log, "asinh": sp.asinh}


def fd_derivatives(fn, s: float) -> tuple[float, float, float]:
    """First three derivatives of fn at s by central differences.

    Step sizes balance truncation against roundoff per order.
    """
    h1 = 1e-5
    d1 = (fn(s + h1) - fn(s - h1)) / (2.0 * h1)
    h2 = 1e-4
    d2 = (fn(s + h2) - 2.0 * fn(s) + fn(s - h2)) / (h2 * h2)
    h3 = 1e-3
    d3 = (fn(s + 2 * h3) - 2.0 * fn(s + h3) + 2.0 * fn(s - h3) - fn(s - 2 * h3)) / (
        2.0 * h3 ** 3
    )
    return d1, d2, d3


def sympy_jet(text: str, s0: float, params: dict | None = None) -> tuple[float, ...]:
    """Value and first three derivatives via symbolic differentiation."""
    expr = sp.sympify(text.replace("^", "**"), locals=dict(SYMPY_LOCALS))
    if params:
        expr = expr.subs({sp.Symbol(k): v for k, v in params.items()})
    out = []
    for order in range(4):
        out.append(float(sp.diff(expr, _S, order).subs(_S, s0)))
    return tuple(out)


_UNARY = ("sin", "cos", "sinh", "asinh", "exp", "sqrt", "ln", "tan")
_BINOP = ("+", "-", "*", "/")


def random_expression(rng, depth: int = 4) -> str:
    """Random expression text over the full grammar.

    sqrt and ln get strictly positive arguments by construction so most
    draws evaluate; remaining domain trouble is rejection-sampled by the
    caller.
    """
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return "s"
        return repr(round(float(rng.uniform(0.1, 2.5)), 3))
    roll = rng.random()
    if roll < 0.45:
        name = _UNARY[rng.integers(len(_UNARY))]
        inner = random_expression(rng, depth - 1)
        if name in ("sqrt", "ln"):
            offset = repr(round(float(rng.uniform(0.5, 2.0)), 3))
            return f"{name}({offset} + ({inner})^2)"
        return f"{name}({inner})"
    if roll < 0.85:
        op = _BINOP[rng.integers(len(_BINOP))]
        lhs = random_expression(rng, depth - 1)
        rhs = random_expression(rng, depth - 1)
        if op == "/":
            rhs = f"(1.5 + ({rhs})^2)"
        return f"({lhs}) {op} ({rhs})"
    exponent = int(rng.integers(2, 4))
    return f"({random_expression(rng, depth - 1)})^{exponent}"


#: Offsets from s0 at which `fd_derivatives` evaluates its function.
FD_WINDOW = (-2e-3, -1e-3, -1e-4, -1e-5, 1e-5, 1e-4, 1e-3, 2e-3)


def sample_well_behaved(rng, max_mag: float = 20.0, span: float = 2.0):
    """Draw (text, s) pairs whose jets stay bounded and whose finite
    difference windows avoid domain errors."""
    while True:
        text = random_expression(rng)
        s0 = float(rng.uniform(-span, span))
        try:
            expr = parse(text)
            jet = eval_jet3(expr, s0)
            window = [eval_jet3(expr, s0 + ds).v0 for ds in FD_WINDOW]
        except Exception:
            continue
        values = (jet.v0, jet.v1, jet.v2, jet.v3)
        if all(math.isfinite(v) and abs(v) <= max_mag for v in values) and all(
            math.isfinite(w) and abs(w) <= 3 * max_mag for w in window
        ):
            return text, s0
