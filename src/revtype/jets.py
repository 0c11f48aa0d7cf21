"""Order-3 truncated Taylor jets.

A ``Jet3`` carries a value together with its first three derivatives with
respect to a single parameter.  Arithmetic propagates derivatives exactly
(Leibniz and Faa di Bruno rules), so the only error in any channel is
floating-point roundoff.  This is the differentiation currency used by the
rest of the package; finite differences exist only as a test oracle.

Channels hold floats or numpy arrays, so one evaluation carries a batch of
sample points; domain checks are masks that raise at the first offending one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

import numpy as np


class JetDomainError(ArithmeticError):
    """A jet operation left its real domain (sqrt of a negative, log of a
    non-positive, division by zero, overflow).  ``index`` is the flat
    position of the first offending element of a batch, 0 for scalars."""

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


def _check(bad, message: str) -> None:
    """Raise JetDomainError at the first element where ``bad`` holds."""
    if np.any(bad):
        raise JetDomainError(message, int(np.argmax(bad)))


def _coerce(x) -> "Jet3":
    if isinstance(x, Jet3):
        return x
    if isinstance(x, Real):
        return Jet3(float(x))
    raise TypeError(f"cannot mix Jet3 with {type(x).__name__}")


@dataclass(frozen=True)
class Jet3:
    """Value ``v0`` and derivatives ``v1``, ``v2``, ``v3``."""

    v0: float | np.ndarray
    v1: float | np.ndarray = 0.0
    v2: float | np.ndarray = 0.0
    v3: float | np.ndarray = 0.0

    @staticmethod
    def constant(c: float) -> "Jet3":
        return Jet3(float(c), 0.0, 0.0, 0.0)

    @staticmethod
    def variable(s: float | np.ndarray) -> "Jet3":
        """Seed jet for the independent variable: derivative one."""
        return Jet3(s if isinstance(s, np.ndarray) else float(s), 1.0, 0.0, 0.0)

    def __add__(self, other):
        o = _coerce(other)
        return Jet3(self.v0 + o.v0, self.v1 + o.v1, self.v2 + o.v2, self.v3 + o.v3)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        return Jet3(self.v0 - o.v0, self.v1 - o.v1, self.v2 - o.v2, self.v3 - o.v3)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __neg__(self):
        return Jet3(-self.v0, -self.v1, -self.v2, -self.v3)

    def __mul__(self, other):
        o = _coerce(other)
        return Jet3(
            self.v0 * o.v0,
            self.v1 * o.v0 + self.v0 * o.v1,
            self.v2 * o.v0 + 2.0 * self.v1 * o.v1 + self.v0 * o.v2,
            self.v3 * o.v0 + 3.0 * self.v2 * o.v1 + 3.0 * self.v1 * o.v2 + self.v0 * o.v3,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        _check(o.v0 == 0.0, "division by zero")
        # Leibniz applied to self = q * o, solved channel by channel.
        q0 = self.v0 / o.v0
        q1 = (self.v1 - q0 * o.v1) / o.v0
        q2 = (self.v2 - q0 * o.v2 - 2.0 * q1 * o.v1) / o.v0
        q3 = (self.v3 - q0 * o.v3 - 3.0 * q1 * o.v2 - 3.0 * q2 * o.v1) / o.v0
        return Jet3(q0, q1, q2, q3)

    def __rtruediv__(self, other):
        return _coerce(other).__truediv__(self)

    def __pow__(self, exponent):
        if isinstance(exponent, Fraction):
            return pow_rational(self, exponent)
        if isinstance(exponent, int):
            return pow_int(self, exponent)
        raise TypeError("jet exponent must be int or Fraction")


def compose(u: Jet3, d0, d1, d2, d3) -> Jet3:
    """Chain rule for F(u) given outer derivatives d0..d3 of F at u.v0."""
    return Jet3(
        d0,
        d1 * u.v1,
        d2 * u.v1 * u.v1 + d1 * u.v2,
        d3 * u.v1 * u.v1 * u.v1 + 3.0 * d2 * u.v1 * u.v2 + d1 * u.v3,
    )


def pow_int(u: Jet3, n: int) -> Jet3:
    """Integer power by square-and-multiply; exact at u.v0 = 0 for n >= 0."""
    if n == 0:
        return Jet3.constant(1.0)
    if n < 0:
        return Jet3.constant(1.0) / pow_int(u, -n)
    result = None
    base = u
    while n:
        if n & 1:
            result = base if result is None else result * base
        base = base * base
        n >>= 1
    return result


def pow_rational(u: Jet3, p: Fraction) -> Jet3:
    if p.denominator == 1:
        return pow_int(u, int(p))
    _check(u.v0 <= 0.0, "fractional power of a non-positive base")
    pf = float(p)
    with np.errstate(over="ignore"):
        d = [np.power(u.v0, pf - k) for k in range(4)]
    _check(np.isinf(d[0]) | np.isinf(d[3]), "fractional power overflow")
    return compose(
        u, d[0], pf * d[1], pf * (pf - 1.0) * d[2], pf * (pf - 1.0) * (pf - 2.0) * d[3]
    )


def sin(u: Jet3) -> Jet3:
    s, c = np.sin(u.v0), np.cos(u.v0)
    return compose(u, s, c, -s, -c)


def cos(u: Jet3) -> Jet3:
    s, c = np.sin(u.v0), np.cos(u.v0)
    return compose(u, c, -s, -c, s)


def tan(u: Jet3) -> Jet3:
    t = np.tan(u.v0)
    sec2 = 1.0 + t * t
    return compose(u, t, sec2, 2.0 * t * sec2, sec2 * (2.0 + 6.0 * t * t))


def sinh(u: Jet3) -> Jet3:
    with np.errstate(over="ignore"):
        sh, ch = np.sinh(u.v0), np.cosh(u.v0)
    _check(np.isinf(ch), "sinh overflow")
    return compose(u, sh, ch, sh, ch)


def cosh(u: Jet3) -> Jet3:
    with np.errstate(over="ignore"):
        sh, ch = np.sinh(u.v0), np.cosh(u.v0)
    _check(np.isinf(ch), "cosh overflow")
    return compose(u, ch, sh, ch, sh)


def asinh(u: Jet3) -> Jet3:
    w = 1.0 + u.v0 * u.v0
    return compose(
        u,
        np.arcsinh(u.v0),
        np.power(w, -0.5),
        -u.v0 * np.power(w, -1.5),
        (2.0 * u.v0 * u.v0 - 1.0) * np.power(w, -2.5),
    )


def sqrt(u: Jet3) -> Jet3:
    _check(u.v0 <= 0.0, "sqrt of a non-positive value")
    root = np.sqrt(u.v0)
    return compose(
        u,
        root,
        0.5 / root,
        -0.25 / (root * u.v0),
        0.375 / (root * u.v0 * u.v0),
    )


def exp(u: Jet3) -> Jet3:
    with np.errstate(over="ignore"):
        e = np.exp(u.v0)
    _check(np.isinf(e), "exp overflow")
    return compose(u, e, e, e, e)


def ln(u: Jet3) -> Jet3:
    _check(u.v0 <= 0.0, "ln of a non-positive value")
    x = u.v0
    return compose(u, np.log(x), 1.0 / x, -1.0 / (x * x), 2.0 / (x * x * x))


def neg(u: Jet3) -> Jet3:
    return -u


#: Unary functions available to the expression language.
FUNCTIONS = {
    "sin": sin,
    "cos": cos,
    "tan": tan,
    "sinh": sinh,
    "cosh": cosh,
    "asinh": asinh,
    "sqrt": sqrt,
    "exp": exp,
    "ln": ln,
    "neg": neg,
}
