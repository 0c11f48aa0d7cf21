"""Shared test oracles: central finite differences, symbolic differentiation,
a deterministic random-expression generator, an all-jet expression
evaluator and a per-point profile sampler, scalar surface points, tangents
and Gauss-map derivatives, a grid-materialising reference for the
coordinate fit, and a per-point reference for the contradiction scan.

These stay independent of the jet-propagation code paths they check.
"""

from __future__ import annotations

import math
import operator
import types
from dataclasses import dataclass

import numpy as np
import sympy as sp

from revtype import eval_jet3, jets, parse
from revtype.expressions import (
    BinOp,
    DomainEvalError,
    Func,
    Num,
    Param,
    Pow,
    UnboundParameterError,
    Var,
    unparse,
)
from revtype.beltrami import laplacian_profile_factors
from revtype.classify import (
    DEFAULT_TOL_FIT,
    DEFAULT_TOL_REJECT,
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT,
    VERDICT_NULL,
    VERDICT_SPHERE,
    quartic_coefficients,
)
from revtype.geometry import DEFAULT_TOL_PARAB, grid_rows, theta_circle

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


# Reference evaluator: every node, constants included, is a Jet3, so each
# operation runs the full Leibniz or chain rule and no scalar path of
# `Jet3` or `jets.compose` is taken.

def _reference_compose(u, d0, d1, d2, d3):
    """`jets.compose` without the shortcut for a linear inner jet."""
    return jets.Jet3(
        d0,
        d1 * u.v1,
        d2 * u.v1 * u.v1 + d1 * u.v2,
        d3 * u.v1 * u.v1 * u.v1 + 3.0 * d2 * u.v1 * u.v2 + d1 * u.v3,
    )


def _with_reference_compose(fn):
    """``fn`` of `revtype.jets`, calling `_reference_compose` for compose."""
    return types.FunctionType(fn.__code__, {**vars(jets), "compose": _reference_compose})


_REFERENCE_FUNCTIONS = {name: _with_reference_compose(fn) for name, fn in jets.FUNCTIONS.items()}
_REFERENCE_POW = _with_reference_compose(jets.pow_rational)
_REFERENCE_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                     "/": operator.truediv}


def reference_eval_jet3(e, s, params=None):
    """`revtype.eval_jet3` with every constant held as a `Jet3.constant`."""
    params = params or {}
    batch = np.ndim(s) > 0
    var = jets.Jet3.variable(np.asarray(s, dtype=float) if batch else s)

    def apply(node, fn, *args):
        try:
            return fn(*args)
        except jets.JetDomainError as exc:
            raise DomainEvalError(str(exc), unparse(node), exc.index) from None

    def ev(node):
        if isinstance(node, Num):
            return jets.Jet3.constant(node.value)
        if isinstance(node, Var):
            return var
        if isinstance(node, Param):
            try:
                return jets.Jet3.constant(params[node.name])
            except KeyError:
                raise UnboundParameterError(node.name) from None
        if isinstance(node, Func):
            return apply(node, _REFERENCE_FUNCTIONS[node.name], ev(node.arg))
        if isinstance(node, BinOp):
            return apply(node, _REFERENCE_BINOPS[node.op], ev(node.lhs), ev(node.rhs))
        if isinstance(node, Pow):
            return apply(node, _REFERENCE_POW, ev(node.base), node.exponent)
        raise TypeError(f"not an expression node: {node!r}")

    out = ev(e)
    if not batch:
        return out
    shape = var.v0.shape
    return jets.Jet3(*(np.broadcast_to(c, shape) for c in (out.v0, out.v1, out.v2, out.v3)))


def reference_sample_regular(curve, n: int) -> np.ndarray:
    """`revtype.geometry.sample_regular` computed one point at a time."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    intervals = curve.regular_intervals()
    if not intervals:
        raise ValueError("regular subdomain is empty")
    total = sum(hi - lo for lo, hi in intervals)
    samples = []
    for lo, hi in intervals:
        k = max(1, round(n * (hi - lo) / total))
        width = (hi - lo) / k
        samples.extend(lo + (i + 0.5) * width for i in range(k))
    return np.array(sorted(samples))


# Reference coordinate fit: one row of X and B per grid point, solved by
# lstsq over the whole grid.

@dataclass(frozen=True, eq=False)
class SurfacePoint:
    s: float
    theta: float
    position: np.ndarray
    normal: np.ndarray


def _fg(curve, s: float):
    params = curve.params_dict
    return eval_jet3(curve.f, s, params), eval_jet3(curve.g, s, params)


def point_at(curve, s: float, theta: float) -> SurfacePoint:
    """Position and unit normal of the revolution surface at (s, theta),
    with theta reduced to [0, 2 pi)."""
    fj, gj = _fg(curve, s)
    theta = theta % (2.0 * math.pi)
    ct, st = math.cos(theta), math.sin(theta)
    position = np.array([fj.v0 * ct, fj.v0 * st, gj.v0])
    # n = (-sin(phi) cos(theta), -sin(phi) sin(theta), cos(phi)) with
    # sin(phi) = g', cos(phi) = f' taken directly from the jets.
    normal = np.array([-gj.v1 * ct, -gj.v1 * st, fj.v1])
    return SurfacePoint(s, theta, position, normal)


def tangent_basis(curve, s: float, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate tangent vectors (x_s, x_theta) from jets."""
    fj, gj = _fg(curve, s)
    ct, st = math.cos(theta), math.sin(theta)
    x_s = np.array([fj.v1 * ct, fj.v1 * st, gj.v1])
    x_theta = np.array([-fj.v0 * st, fj.v0 * ct, 0.0])
    return x_s, x_theta


def normal_derivatives(curve, s: float, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Partial derivatives (n_s, n_theta) of the Gauss map, with
    phi' = f'g'' - g'f''."""
    fj, gj = _fg(curve, s)
    dphi = fj.v1 * gj.v2 - gj.v1 * fj.v2
    ct, st = math.cos(theta), math.sin(theta)
    n_s = np.array([-fj.v1 * dphi * ct, -fj.v1 * dphi * st, -gj.v1 * dphi])
    n_theta = np.array([gj.v1 * st, -gj.v1 * ct, 0.0])
    return n_s, n_theta


def reference_fit(
    p,
    n_s: int,
    n_theta: int,
    tol_parab: float = DEFAULT_TOL_PARAB,
    tol_fit: float = DEFAULT_TOL_FIT,
    tol_reject: float = DEFAULT_TOL_REJECT,
) -> dict:
    """The fit's verdict, rank, counts, matrix, residual and row norms from
    the materialised n_s*n_theta x 3 samples."""
    jets, excluded = grid_rows(p, n_s, tol_parab)
    thetas = np.array(theta_circle(n_theta))
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    X = np.empty((len(jets) * n_theta, 3))
    B = np.empty_like(X)
    if len(jets):
        rows = jets[:, None]
        radial, axial = laplacian_profile_factors(rows)
        for out, rad, ax in ((X, rows.f.v0, rows.g.v0), (B, radial, axial)):
            grid = out.reshape(len(jets), n_theta, 3)
            grid[:, :, 0] = rad * cos_t
            grid[:, :, 1] = rad * sin_t
            grid[:, :, 2] = ax
    n = X.shape[0]
    out = {
        "n_points": n,
        "rows_excluded": excluded,
        "rank": int(np.linalg.matrix_rank(X)) if n else 0,
        "sup_lap": float(np.max(np.linalg.norm(B, axis=1))) if n else None,
        "sup_position": float(np.max(np.linalg.norm(X, axis=1))) if n else None,
        "A": None,
        "rel_residual": None,
        "verdict": VERDICT_INCONCLUSIVE,
    }
    if n < 9 or out["rank"] < 3:
        return out
    At, *_ = np.linalg.lstsq(X, B, rcond=None)
    A = At.T
    res = float(np.sqrt(np.sum((B - X @ At) ** 2)))
    b_norm = float(np.sqrt(np.sum(B**2)))
    rel = res / b_norm if b_norm > 1e-14 else res
    if out["sup_lap"] <= tol_fit * out["sup_position"] and np.max(np.abs(A)) <= tol_fit:
        verdict = VERDICT_NULL
    elif np.max(np.abs(A - 2.0 * np.eye(3))) <= tol_fit and rel <= tol_fit:
        verdict = VERDICT_SPHERE
    elif rel >= tol_reject:
        verdict = VERDICT_NOT
    else:
        verdict = VERDICT_INCONCLUSIVE
    out.update(A=A, rel_residual=rel, verdict=verdict)
    return out


# Reference contradiction scan: a point-by-point lattice loop and a
# depth-first cell certifier over scalar intervals.  Each operation rounds
# to nearest, then moves each bound out by |bound| * 2**-52 + 5e-324.

def _out(lo: float, hi: float) -> tuple[float, float]:
    return lo - (abs(lo) * 2.0**-52 + 5e-324), hi + (abs(hi) * 2.0**-52 + 5e-324)


def _imul(a, b):
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return _out(min(products), max(products))


def _iadd(a, b):
    return _out(a[0] + b[0], a[1] + b[1])


def _isub(a, b):
    return _out(a[0] - b[1], a[1] - b[0])


def _isquare(a):
    lo, hi = abs(a[0]), abs(a[1])
    lower, upper = _out(min(lo, hi) ** 2, max(lo, hi) ** 2)
    return (0.0 if a[0] <= 0.0 <= a[1] else max(lower, 0.0)), upper


def _excludes_zero(a) -> bool:
    return a[0] > 0.0 or a[1] < 0.0


def _coeff_intervals(L, M, T):
    c4 = _imul(L, _isquare(T))
    q = _iadd(
        _isub(_imul(L, M), _isquare(L)),
        _iadd(_iadd(_imul(L, (5.0, 5.0)), M), (-2.0, -2.0)),
    )
    c2 = _imul(T, q)
    c0 = _imul(_iadd(L, M), _iadd(_isub(M, _imul(L, (3.0, 3.0))), (4.0, 4.0)))
    return c4, c2, c0


def reference_sides(L, M, gap: float) -> list:
    """The (c4, c2, c0) enclosures on each side of the strip
    |lam - mu| < gap that the box L x M reaches."""
    raw_lo, raw_hi = _isub(L, M)
    sides = []
    if raw_hi >= gap:
        sides.append((max(gap, raw_lo), raw_hi))
    if raw_lo <= -gap:
        sides.append((raw_lo, min(-gap, raw_hi)))
    return [_coeff_intervals(L, M, T) for T in sides]


def _certify_cell(L, M, gap: float, depth: int, max_depth: int) -> tuple[int, int]:
    """(cells examined, failures) for the box L x M minus |lam - mu| < gap,
    halving the longer side once per undecided side of the strip."""
    examined, failures = 1, 0
    for c4, c2, c0 in reference_sides(L, M, gap):
        if _excludes_zero(c4) or _excludes_zero(c2) or _excludes_zero(c0):
            continue
        if depth >= max_depth:
            failures += 1
            continue
        if L[1] - L[0] >= M[1] - M[0]:
            mid = 0.5 * (L[0] + L[1])
            halves = (((L[0], mid), M), ((mid, L[1]), M))
        else:
            mid = 0.5 * (M[0] + M[1])
            halves = ((L, (M[0], mid)), (L, (mid, M[1])))
        for hl, hm in halves:
            e, f = _certify_cell(hl, hm, gap, depth + 1, max_depth)
            examined += e
            failures += f
    return examined, failures


def _lattice(lo: float, hi: float, step: float) -> list[float]:
    """lo + i*step for every i up to (hi - lo)/step plus a millionth."""
    count = math.floor((hi - lo) / step + 1e-6)
    return [lo + i * step for i in range(count + 1)]


def _edges(lo: float, hi: float, step: float) -> list[float]:
    """lo, the lattice points lo + i*step more than a millionth of a step
    below hi, then hi (just lo when the range is one point)."""
    if hi == lo:
        return [lo]
    inner = []
    i = 1
    while i < (hi - lo) / step - 1e-6:
        if lo + i * step < hi:
            inner.append(lo + i * step)
        i += 1
    return [lo, *inner, hi]


def reference_scan(lam_range, mu_range, step: float, max_depth: int = 24) -> dict:
    """The scan certificate's counts, lattice minimum and verdict, one point
    and one cell at a time; the cells span lam_range x mu_range, and a box
    with no cells is not certified."""
    lams = _lattice(*lam_range, step)
    mus = _lattice(*mu_range, step)
    gap = 0.5 * step
    best = best_coeffs = None
    scanned = skipped = 0
    for lam in lams:
        for mu in mus:
            if abs(lam - mu) < gap:
                skipped += 1
                continue
            scanned += 1
            c4, c2, c0 = quartic_coefficients(lam, mu)
            m = max(abs(c4), abs(c2), abs(c0))
            if best is None or m < best[0]:
                best = (m, lam, mu)
                best_coeffs = (c4, c2, c0)
    examined = failures = 0
    if scanned:
        lam_edges, mu_edges = _edges(*lam_range, step), _edges(*mu_range, step)
        for i in range(len(lam_edges) - 1):
            for j in range(len(mu_edges) - 1):
                e, f = _certify_cell(
                    (lam_edges[i], lam_edges[i + 1]),
                    (mu_edges[j], mu_edges[j + 1]),
                    gap,
                    0,
                    max_depth,
                )
                examined += e
                failures += f
    return {
        "points_scanned": scanned,
        "points_skipped_diagonal": skipped,
        "min_max_coefficient": None if best is None else best[0],
        "argmin": None if best is None else (best[1], best[2]),
        "argmin_coefficients": best_coeffs,
        "cells_examined": examined,
        "cell_failures": failures,
        "cells_certified": examined > 0 and failures == 0,
    }
