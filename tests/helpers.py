"""Shared test oracles: central finite differences, symbolic differentiation,
a deterministic random-expression generator, a character-at-a-time
tokenizer, an all-jet expression
evaluator and a per-point profile sampler, the strict regular-point
evaluation (`require_regular`) that point tests use, scalar surface
points, tangents and Gauss-map derivatives, the torus's closed-form mean
and Gauss curvature, a grid-materialising reference
for the coordinate fit, a per-point reference for the contradiction scan's
lattice and the scan's blocked lattice pass without its cut,
an interval-subdivision certifier and a per-cell bound for its cells,
sympy checks of the closure algebra, the coordinate Laplacian, closure
coefficients and elimination check that only tests use,
the coordinate Laplacian's factors in the R = 2H/K form and a sympy check
that they equal the operator at arclength, a square-and-multiply power
that squares after its last bit, the three Beltrami operators pointwise
on a field's partials, SplitMix64 on Python integers, and the two
Beltrami checks computed one random pair at a time with those oracles and
that generator and with a stacked norm, a polar-cap profile on which every
draw is rejected,
and a catalog whose profiles are parsed from their texts on every call.

These stay independent of the jet-propagation code paths they check.
"""

from __future__ import annotations

import bisect
import math
import operator
import re
import types
from dataclasses import asdict, dataclass, replace

import numpy as np
import sympy as sp

from revtype import catalog, eval_jet3, jets, parse
from revtype.expressions import (
    BinOp,
    DomainEvalError,
    Func,
    Num,
    Param,
    ParseError,
    Pow,
    UnboundParameterError,
    Var,
    unparse,
)
from revtype.beltrami import (
    DRAW_MARGIN,
    laplacian_profile_factors,
    normal_profiles,
)
from revtype.classify import (
    _COFACTORS,
    _cell_bounds,
    DEFAULT_TOL_FIT,
    TOL_REJECT,
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT,
    VERDICT_NULL,
    VERDICT_SPHERE,
    quartic_coefficients,
)
from revtype.geometry import (
    DEFAULT_TOL_PARAB,
    ProfileError,
    RegularJets,
    _jets,
    grid_rows,
    profile_from_dict,
    profile_to_dict,
    radii_sum_jet,
    theta_circle,
)

_S = sp.Symbol("s")
SYMPY_LOCALS = {"s": _S, "ln": sp.log, "asinh": sp.asinh}


def eval_value(e, s: float, params=None) -> float:
    """The value of expression ``e`` at ``s``."""
    return eval_jet3(e, s, params).v0


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


#: Texts nested past `expressions.MAX_DEPTH`, keyed by their shape.  Without
#: the bound each overflowed the stack, in parsing or, for the flat sum, in
#: evaluation.
DEEP_TEXTS = {
    "parentheses": "(" * 197 + "s" + ")" * 197,
    "minus-signs": "-" * 983 + "s",
    "powers": "^".join(["s"] * 491),
    "flat-sum": " + ".join(["s"] * 986),
}


#: Offsets from s0 at which `fd_derivatives` evaluates its function.
_NUMBER_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = set("+-*/^(),")


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` tokens of ``text`` read one position at a
    time: a whitespace character (`str.isspace`), a number, an identifier or
    an operator, else ParseError ``unexpected character`` at that offset."""
    tokens = []
    pos, n = 0, len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            tokens.append(("num", m.group(), pos))
            pos = m.end()
            continue
        m = _IDENT_RE.match(text, pos)
        if m:
            tokens.append(("ident", m.group(), pos))
            pos = m.end()
            continue
        if ch in _OPS:
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("eof", "", n))
    return tokens


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


def _has_var(node) -> bool:
    """Whether expression ``node`` contains the variable ``s``."""
    if isinstance(node, Func):
        return _has_var(node.arg)
    if isinstance(node, BinOp):
        return _has_var(node.lhs) or _has_var(node.rhs)
    if isinstance(node, Pow):
        return _has_var(node.base)
    return isinstance(node, Var)


def reference_eval_jet3(e, s, params=None):
    """`revtype.eval_jet3` with every constant held as a `Jet3.constant`.

    A subtree without ``s`` keeps only its value, as in `eval_jet3`: its
    rules run with every floating-point flag off, and a rule whose
    derivative formula divides a Python float by zero reruns on np.float64.
    """
    params = params or {}
    batch = np.ndim(s) > 0
    var = jets.Jet3.variable(np.asarray(s, dtype=float) if batch else s)

    def apply(node, fn, *args):
        try:
            if _has_var(node):
                return fn(*args)
            with np.errstate(all="ignore"):
                try:
                    return fn(*args)
                except ZeroDivisionError:
                    wide = (jets.Jet3(np.float64(a.v0)) if isinstance(a, jets.Jet3) else a
                            for a in args)
                    return jets.Jet3.constant(fn(*wide).v0)
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


class ParabolicPointError(ProfileError):
    def __init__(self, s: float, dphi: float, sin_phi: float):
        super().__init__(
            f"parabolic point at s={s!r}: phi'={dphi:.3e}, sin(phi)={sin_phi:.3e}"
        )
        self.s = s
        self.dphi = dphi
        self.sin_phi = sin_phi


def require_regular(curve, s, tol_parab: float = DEFAULT_TOL_PARAB) -> RegularJets:
    """Jets at ``s``, a float or an array, from one evaluation pass,
    raising ParabolicPointError at the first point where III degenerates."""
    jets = _jets(curve, s)
    bad = ~(jets.margin > tol_parab)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ParabolicPointError(
            *(float(np.ravel(x)[i]) for x in (s, jets.dphi, jets.sin_phi))
        )
    return jets


def reference_sample_regular(curve, n: int) -> np.ndarray:
    """`revtype.geometry.sample_regular` computed one point at a time."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    intervals = curve.regular_intervals()
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


def torus_mean_curvature(s: float, major: float, minor: float) -> float:
    """H of torus(major, minor) at s, signed for the normal of `point_at`."""
    c = math.cos(s / minor)
    return (major + 2.0 * minor * c) / (2.0 * minor * (major + minor * c))


def torus_gauss_curvature(s: float, major: float, minor: float) -> float:
    return math.cos(s / minor) / (minor * (major + minor * math.cos(s / minor)))


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
) -> dict:
    """The fit's verdict, rank, counts, matrix, residual and row norms from
    the materialised n_s*n_theta x 3 samples."""
    jets, excluded = grid_rows(p, n_s, tol_parab)
    thetas = theta_circle(n_theta)
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
    elif rel >= TOL_REJECT:
        verdict = VERDICT_NOT
    else:
        verdict = VERDICT_INCONCLUSIVE
    out.update(A=A, rel_residual=rel, verdict=verdict)
    return out


# Reference contradiction scan: a point-by-point lattice loop, and a
# depth-first subdivision certifier of the cells over scalar intervals.
# Each interval operation rounds to nearest, then moves each bound out by
# |bound| * 2**-52 + 5e-324.

# Depth at which an undecided side of a subdivided cell counts as a failure.
SUBDIVISION_DEPTH = 24


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


def _sides(L, M, gap: float) -> list:
    """The (c4, c2, c0) enclosures on each side of the strip
    |lam - mu| < gap that the box L x M reaches."""
    raw_lo, raw_hi = _isub(L, M)
    sides = []
    if raw_hi >= gap:
        sides.append((max(gap, raw_lo), raw_hi))
    if raw_lo <= -gap:
        sides.append((raw_lo, min(-gap, raw_hi)))
    return [_coeff_intervals(L, M, T) for T in sides]


def _certify_cell(L, M, gap: float, depth: int) -> int:
    """Failures for the box L x M minus |lam - mu| < gap, halving the
    longer side once per undecided side of the strip."""
    failures = 0
    for c4, c2, c0 in _sides(L, M, gap):
        if _excludes_zero(c4) or _excludes_zero(c2) or _excludes_zero(c0):
            continue
        if depth >= SUBDIVISION_DEPTH:
            failures += 1
            continue
        if L[1] - L[0] >= M[1] - M[0]:
            mid = 0.5 * (L[0] + L[1])
            halves = (((L[0], mid), M), ((mid, L[1]), M))
        else:
            mid = 0.5 * (M[0] + M[1])
            halves = ((L, (M[0], mid)), (L, (mid, M[1])))
        for hl, hm in halves:
            failures += _certify_cell(hl, hm, gap, depth + 1)
    return failures


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


def reference_scan(lam_range, mu_range, step: float) -> dict:
    """The scan certificate's lattice fields, one point at a time, and its
    cell count: the cells span lam_range x mu_range and are counted only
    when some lattice point is off the diagonal."""
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
    cells = 0
    if scanned:
        cells = (len(_edges(*lam_range, step)) - 1) * (
            len(_edges(*mu_range, step)) - 1)
    return {
        "points_scanned": scanned,
        "points_skipped_diagonal": skipped,
        "min_max_coefficient": None if best is None else best[0],
        "argmin": None if best is None else (best[1], best[2]),
        "argmin_coefficients": best_coeffs,
        "cells_examined": cells,
    }


def reference_lattice_minimum(lams: np.ndarray, mus: np.ndarray, gap: float):
    """`classify._lattice_minimum` without its cut: every lattice point off
    the strip |lam - mu| < gap is evaluated, in blocks of whole lambda rows
    of about 4096 points.  (points scanned, best), best being
    (max-coefficient, argmin, coefficients) of the first minimum in
    row-major order, or None."""
    best = None
    scanned = 0
    per = max(1, 4096 // mus.size)
    for i in range(0, lams.size, per):
        lam, mu = np.broadcast_arrays(lams[i : i + per, None], mus)
        off = np.abs(lam - mu) >= gap
        lam, mu = lam[off], mu[off]
        if not lam.size:
            continue
        scanned += lam.size
        coeffs = quartic_coefficients(lam, mu)
        m = np.maximum(np.maximum(np.abs(coeffs[0]), np.abs(coeffs[1])), np.abs(coeffs[2]))
        k = int(np.argmin(m))
        if best is None or m[k] < best[0]:
            best = (float(m[k]), (float(lam[k]), float(mu[k])), tuple(float(c[k]) for c in coeffs))
    return scanned, best


def subdivision_certifies(lam_range, mu_range, step: float) -> bool:
    """Whether interval subdivision, down to SUBDIVISION_DEPTH, proves that
    (c4, c2, c0) has no common zero on any cell of the box minus the strip
    |lam - mu| < step/2; a box without cells or without an off-diagonal
    lattice point is not certified."""
    if not reference_scan(lam_range, mu_range, step)["cells_examined"]:
        return False
    lam_edges, mu_edges = _edges(*lam_range, step), _edges(*mu_range, step)
    return not any(
        _certify_cell(L, M, 0.5 * step, 0)
        for L in zip(lam_edges, lam_edges[1:])
        for M in zip(mu_edges, mu_edges[1:])
    )


def per_cell_bounds(lam_range, mu_range, step: float) -> tuple:
    """(cells, failures, least bound) from `_cell_bounds` on every cell of
    the box, each at its largest |lam| and |mu|, with the cells from
    `_edges`: a failure is a bound that is not positive and finite,
    and the least bound is None without cells.  The scan counts these
    cells only when some lattice point is off the diagonal."""
    l, m = (np.maximum(np.abs(e[:-1]), np.abs(e[1:]))
            for e in (np.array(_edges(*r, step)) for r in (lam_range, mu_range)))
    failures, lowest = 0, math.inf
    with np.errstate(over="raise", invalid="raise"):
        for i in range(0, l.size, 256):
            bounds = _cell_bounds(l[i : i + 256, None], m, 0.5 * step)
            failures += int(np.count_nonzero(~(np.isfinite(bounds) & (bounds > 0.0))))
            lowest = min(lowest, float(bounds.min(initial=math.inf)))
    return l.size * m.size, failures, lowest if math.isfinite(lowest) else None


# The closure algebra in sympy: the lex Groebner basis of the ideal of
# (c4, c2, c0), and the cofactor identity a c4 + b c2 + c c0 = lam - mu
# expanded from `revtype.classify._COFACTORS`.

_LAM, _MU = sp.symbols("lam mu")


def _symbolic_coefficients() -> list:
    return [sp.nsimplify(sp.expand(c)) for c in quartic_coefficients(_LAM, _MU)]


def closure_groebner_basis() -> list:
    """The lex (lam > mu) Groebner basis of (c4, c2, c0) as strings."""
    basis = sp.groebner(_symbolic_coefficients(), _LAM, _MU, order="lex")
    return [str(g) for g in basis.exprs]


def cofactor_identity_remainder(cofactors=_COFACTORS):
    """a c4 + b c2 + c c0 - (lam - mu), expanded, for the cofactors table
    ``cofactors`` (monomial exponents, then 300 a, 300 b, 300 c)."""
    coefficients = _symbolic_coefficients()
    total = -(_LAM - _MU)
    for (i, j), row in cofactors:
        monomial = _LAM**i * _MU**j
        for coefficient, c in zip(row, coefficients):
            total += sp.Rational(coefficient, 300) * monomial * c
    return sp.expand(total)


# Test-only closure algebra and coordinate fields: the closure system's
# coefficients at one point, the elimination check D sin(phi) cos(phi) = mu Q
# behind the quartic, and the coordinate functions of the position vector.

@dataclass(frozen=True)
class ClosureCoefficients:
    """Coefficients of the closure system for distinct eigenvalues.

    coeff_f and coeff_g multiply f and g in the first closure relation;
    coeff_f_deriv and coeff_g_deriv multiply f/sin(phi) and g/cos(phi) in
    its s-derivative.  c4, c2, c0 are the quartic-in-sin(phi) coefficients
    left after eliminating f and g.
    """

    coeff_f: float
    coeff_g: float
    coeff_f_deriv: float
    coeff_g_deriv: float
    c4: float
    c2: float
    c0: float

    def to_dict(self) -> dict:
        return asdict(self)


def closure_coefficients(lam: float, mu: float, sin_phi: float) -> ClosureCoefficients:
    if lam == mu:
        raise ValueError("closure system requires distinct eigenvalues")
    if not 0.0 < sin_phi < 1.0:
        raise ValueError("sin_phi must lie strictly between 0 and 1")
    cos_phi = math.sqrt(1.0 - sin_phi * sin_phi)
    d = lam - mu
    t = sin_phi * sin_phi
    coeff_f = lam * sin_phi + (lam + mu) / (d * sin_phi)
    coeff_g = 2.0 * mu / (d * cos_phi) - mu * cos_phi
    coeff_f_deriv = (
        lam * d * d * t * t
        + d * (lam * mu - lam * lam + 3.0 * lam + mu) * t
        - (lam + mu) * (3.0 * lam - mu)
    )
    coeff_g_deriv = mu * (d * d * t * t + d * (mu - lam + 4.0) * t - 2.0 * (lam + mu))
    c4, c2, c0 = quartic_coefficients(lam, mu)
    return ClosureCoefficients(
        coeff_f=coeff_f,
        coeff_g=coeff_g,
        coeff_f_deriv=coeff_f_deriv,
        coeff_g_deriv=coeff_g_deriv,
        c4=c4,
        c2=c2,
        c0=c0,
    )


@dataclass(frozen=True)
class EliminationReport:
    """Consistency of eliminating f and g from the paired closure relations.

    D is the 2x2 elimination determinant; Q the quartic polynomial.  The
    derived identity is D * sin(phi) * cos(phi) = mu * Q, i.e. the dropped
    overall factor is mu / (sin(phi) cos(phi)).
    """

    max_factor_defect: float
    zero_set_mismatches: int
    n_samples: int
    proportionality_factor: float

    def to_dict(self) -> dict:
        return asdict(self)


def elimination_consistency(
    lam: float, mu: float, n_phi: int = 100, zero_tol: float = 1e-9
) -> EliminationReport:
    if lam == mu:
        raise ValueError("elimination requires distinct eigenvalues")
    worst = 0.0
    mismatches = 0
    for j in range(n_phi):
        phi = 0.5 * math.pi * (j + 0.5) / n_phi
        sin_phi, cos_phi = math.sin(phi), math.cos(phi)
        co = closure_coefficients(lam, mu, sin_phi)
        D = co.coeff_f * co.coeff_g_deriv / cos_phi - co.coeff_g * co.coeff_f_deriv / sin_phi
        t = sin_phi * sin_phi
        Q = co.c4 * t * t + co.c2 * t + co.c0
        lhs = D * sin_phi * cos_phi
        rhs = mu * Q
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
        scale_d = abs(co.coeff_f * co.coeff_g_deriv) + abs(co.coeff_g * co.coeff_f_deriv)
        scale_q = abs(co.c4) + abs(co.c2) + abs(co.c0)
        d_zero = abs(D) <= zero_tol * (1.0 + scale_d)
        q_zero = abs(Q) <= zero_tol * (1.0 + scale_q)
        if d_zero != q_zero:
            mismatches += 1
    return EliminationReport(
        max_factor_defect=worst,
        zero_set_mismatches=mismatches,
        n_samples=n_phi,
        proportionality_factor=mu,
    )


@dataclass(frozen=True, eq=False)
class CoordinateLaplacian:
    radial: float
    axial: float
    vector: np.ndarray


def reference_profile_factors(jets) -> tuple:
    """The factors (radial, axial) of the coordinate Laplacian in the form
    that R = 2H/K = 1/phi' + f/sin(phi) and its derivative give at
    arclength:

        radial = R sin(phi) - (cos(phi)/phi') R'
        axial  = -R cos(phi) - (sin(phi)/phi') R'
    """
    R, dR = radii_sum_jet(jets)
    sin_phi, cos_phi, dphi = jets.sin_phi, jets.cos_phi, jets.dphi
    return R * sin_phi - (cos_phi / dphi) * dR, -R * cos_phi - (sin_phi / dphi) * dR


def symbolic_coordinate_laplacian_defects() -> tuple:
    """``L_1 f`` and ``L_0 g`` minus the R-form of `reference_profile_factors`,
    simplified in sympy, where ``L_k a`` is the profile formula of
    `beltrami.second_beltrami`.  The symbols are f, g, phi, phi' and phi''
    at one point of an arclength profile, so f' = cos(phi),
    f'' = -sin(phi) phi', g' = sin(phi) and g'' = cos(phi) phi'; R' is
    d/ds of 1/phi' + f/sin(phi) by the chain rule."""
    f, g, phi = sp.symbols("f g phi")
    dphi, ddphi = sp.symbols("dphi ddphi", nonzero=True)
    sin, cos = sp.sin(phi), sp.cos(phi)

    def laplacian(a, da, dda, k):
        return -dda / dphi**2 + (ddphi / dphi**2 - cos / sin) * da / dphi + k**2 * a / sin**2

    R = 1 / dphi + f / sin
    dR = -ddphi / dphi**2 + (cos * sin - f * cos * dphi) / sin**2
    radial = R * sin - (cos / dphi) * dR
    axial = -R * cos - (sin / dphi) * dR
    return (sp.simplify(laplacian(f, cos, -sin * dphi, 1) - radial),
            sp.simplify(laplacian(g, sin, cos * dphi, 0) - axial))


def coordinate_laplacian(jets, theta: float) -> CoordinateLaplacian:
    """Laplacian of the three coordinate functions at (s, theta), s the
    point of ``jets``."""
    radial, axial = laplacian_profile_factors(jets)
    vec = np.array([radial * math.cos(theta), radial * math.sin(theta), axial])
    return CoordinateLaplacian(radial=radial, axial=axial, vector=vec)


def reference_pow_int(u, n: int):
    """`jets.pow_int` squaring ``base`` once more after the last bit of n."""
    if n == 0:
        return jets.Jet3.constant(1.0)
    if n < 0:
        return jets.Jet3.constant(1.0) / reference_pow_int(u, -n)
    result = None
    base = u
    while n:
        if n & 1:
            result = base if result is None else result * base
        base = base * base
        n >>= 1
    return result


# Reference Beltrami checks: the operators pointwise on one field's
# partials at a time, each with its own cos or sin branch, and the position
# residual as the norm of stacked (rows, n_theta, 3) differences.

_TAU = 2.0 * math.pi


@dataclass(frozen=True)
class FieldPartials:
    value: float
    d_s: float
    d_ss: float
    d_theta: float
    d_thetatheta: float


def reference_partials(a, k: int, trig: str, theta) -> FieldPartials:
    """The partials of the field a(s) trig(k theta) from its profile jets
    ``a`` = (a, a', a'') or (a, a'), the last giving no ``d_ss``."""
    if trig == "cos":
        t = np.cos(k * theta)
        dt = -k * np.sin(k * theta)
    else:
        t = np.sin(k * theta)
        dt = k * np.cos(k * theta)
    ddt = -k * k * t
    return FieldPartials(
        value=a[0] * t,
        d_s=a[1] * t,
        d_ss=a[2] * t if len(a) > 2 else None,
        d_theta=a[0] * dt,
        d_thetatheta=a[0] * ddt,
    )


def reference_first_beltrami(jets, pu: FieldPartials, pw: FieldPartials):
    """Inverse-third-form pairing of two gradients at each point:
    u_s w_s / phi'^2 + u_theta w_theta / sin^2(phi)."""
    dphi, sin_phi = jets.dphi, jets.sin_phi
    return pu.d_s * pw.d_s / (dphi * dphi) + pu.d_theta * pw.d_theta / (sin_phi * sin_phi)


def reference_second_beltrami(jets, pu: FieldPartials):
    """Revolution-specialized third-form Laplacian at each point:
    -u_ss/phi'^2 + (phi''/phi'^2 - cos(phi)/sin(phi)) u_s/phi'
    - u_thetatheta/sin^2(phi)."""
    dphi, sin_phi = jets.dphi, jets.sin_phi
    return (
        -pu.d_ss / (dphi * dphi)
        + (jets.ddphi / (dphi * dphi) - jets.cos_phi / sin_phi) * pu.d_s / dphi
        - pu.d_thetatheta / (sin_phi * sin_phi)
    )


def reference_second_beltrami_divergence(jets, pu: FieldPartials):
    """The third-form Laplacian at each point from the divergence form
    -(1/sqrt(e)) d_i(sqrt(e) e^{ij} u_j), e the determinant of the form."""
    dphi, sin_phi = jets.dphi, jets.sin_phi
    e11 = (dphi * dphi, 2.0 * dphi * jets.ddphi)
    e22 = (sin_phi * sin_phi, 2.0 * sin_phi * jets.dsin_phi)
    det = (e11[0] * e22[0], e11[0] * e22[1] + e11[1] * e22[0])
    w0 = np.sqrt(det[0])
    w1 = det[1] / (2.0 * w0)
    cs0 = w0 / e11[0]
    cs1 = (w1 * e11[0] - w0 * e11[1]) / (e11[0] * e11[0])
    ct0 = w0 / e22[0]
    return -(cs1 * pu.d_s + cs0 * pu.d_ss + ct0 * pu.d_thetatheta) / w0


def reference_position_sides(jets, thetas):
    """Both sides of the position identity at every point of the rows
    ``jets`` times the angles ``thetas``, as two (rows, len(thetas), 3)
    arrays: `reference_second_beltrami` of each coordinate field
    f cos(theta), f sin(theta) and g, and `reference_first_beltrami` of
    R = 2H/K against each part of the normal minus R times it, one field at
    a time with its own cos or sin branch."""
    rows = jets[:, None]
    R, dR = radii_sum_jet(rows)
    pr = reference_partials((R, dR), 0, "cos", thetas)
    f, g = (rows.f.v0, rows.f.v1, rows.f.v2), (rows.g.v0, rows.g.v1, rows.g.v2)
    n_radial, n_axial = normal_profiles(rows)
    fields = (("cos", f, n_radial, 1), ("sin", f, n_radial, 1), ("cos", g, n_axial, 0))
    lhs, rhs = [], []
    for trig, coordinate, normal, k in fields:
        lhs.append(reference_second_beltrami(rows, reference_partials(coordinate, k, trig, thetas)))
        pn = reference_partials(normal, k, trig, thetas)
        rhs.append(reference_first_beltrami(rows, pr, pn) - R * pn.value)
    return (np.stack(np.broadcast_arrays(*lhs), axis=-1),
            np.stack(np.broadcast_arrays(*rhs), axis=-1))


def reference_position_identity_residual(jets, n_theta: int, rows_excluded: int):
    """`beltrami.position_identity_residual` from `reference_position_sides`
    at theta = 0, the residual of a row taken by `np.linalg.norm` over the
    stacked differences of its three coordinates; the CSV columns turn each
    row's vectors at theta = 0 by every angle of the circle."""
    details = {"max_residual": None, "at_s": None, "at_theta": None, "points_used": 0,
               "rows_excluded": rows_excluded}
    if not len(jets):
        return None, details, {}
    thetas = theta_circle(n_theta)
    lhs, rhs = reference_position_sides(jets, np.zeros(1))
    residual = np.linalg.norm(lhs - rhs, axis=-1)
    i = int(np.argmax(residual[:, 0]))
    worst = float(residual[i, 0])
    details.update(max_residual=worst, at_s=float(jets.s[i]), at_theta=0.0,
                   points_used=len(jets) * n_theta)
    shape = (len(jets), n_theta)
    columns = {"s": np.broadcast_to(jets.s[:, None], shape),
               "theta": np.broadcast_to(thetas, shape)}
    for name, side in (("lhs", lhs), ("rhs", rhs)):
        columns.update({f"{name}1": side[:, :, 0] * np.cos(thetas),
                        f"{name}2": side[:, :, 0] * np.sin(thetas),
                        f"{name}3": np.broadcast_to(side[:, :, 2], shape)})
    columns["residual"] = np.broadcast_to(residual, shape)
    return worst, details, columns


_MASK64 = 2**64 - 1

# A polar cap, as a profile document: it passes validation, but operator
# equivalence rejects every draw at every scale, since its margin
# min(|phi' f|, |sin(phi)|) is sin(s), under the draw margin.
POLAR_CAP = {"name": "polar-cap", "f": "sin(s)", "g": "0 - cos(s)", "s_min": 0.01,
             "s_max": 0.04}


def reference_splitmix64(seed: int):
    """SplitMix64 as Steele, Lea and Flood state it, on Python integers: the
    outputs of the stream seeded with ``seed``, one after another."""
    state = seed
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def reference_operator_equivalence_residual(
    p, n_pairs: int = 1000, seed: int = 0, tol_parab: float = DEFAULT_TOL_PARAB, jets=None,
):
    """`beltrami.operator_equivalence_residual` from a walk over the
    candidates one at a time, each drawn as the next six words of a
    sequential integer SplitMix64 stream and screened in chunks of 256 of
    its own, and both operators taken from the pointwise oracles one pair
    at a time: each on the partials of the pair's field a(s) cos(k theta)
    at theta = 0, where the operator gives the profile that multiplies the
    trig at every angle, then times the pair's own cos or sin branch.
    ``jets``, a joint pass's jets at the first candidates, are not read."""
    words = reference_splitmix64(seed)
    intervals = p.regular_intervals()
    starts = [lo for lo, _ in intervals]
    widths = [hi - lo for lo, hi in intervals]
    cdf = np.cumsum(np.array(widths) / sum(widths))
    cdf = (cdf / cdf[-1]).tolist()
    picks = []
    walked = 0
    while len(picks) < n_pairs and walked < 50 * n_pairs:
        chunk = []
        for _ in range(min(256, 50 * n_pairs - walked)):
            w = [next(words) for _ in range(6)]
            u = [(word >> 11) * 2.0**-53 for word in w]
            k = bisect.bisect_right(cdf, u[0])
            chunk.append((starts[k] + widths[k] * u[1], u, w[3]))
        screened = _jets(p, np.array([c[0] for c in chunk]))
        for i, (s, u, word) in enumerate(chunk):
            if len(picks) == n_pairs:
                break
            dphi, sin_phi = float(screened.dphi[i]), float(screened.sin_phi[i])
            # Written as what a usable point clears, so a NaN clears nothing.
            if (abs(dphi) > tol_parab and abs(sin_phi) > tol_parab
                    and abs(dphi * float(screened.f.v0[i])) >= DRAW_MARGIN
                    and abs(sin_phi) >= DRAW_MARGIN):
                picks.append((screened[i], u, word))
        walked += len(chunk)
    done = len(picks)
    details = {"max_rel_diff": None, "pairs": done, "at_s": None, "at_theta": None}
    if not done:
        return None, details, {}
    s, theta, harmonics = np.empty(done), np.empty(done), np.empty(done, dtype=np.int64)
    jet = np.empty((3, done))
    a, b = np.empty(done), np.empty(done)
    trigs = []
    for i, (point, u, word) in enumerate(picks):
        dphi = float(point.dphi)
        k = word & 3
        trig = "cos" if k == 0 or not word & 4 else "sin"
        s[i], theta[i], harmonics[i] = point.s, _TAU * u[2], k
        jet[:, i] = (4.0 * u[3] - 2.0, (4.0 * u[4] - 2.0) * abs(dphi),
                     (4.0 * u[5] - 2.0) * (dphi * dphi))
        pu = reference_partials(jet[:, i], k, "cos", 0.0)
        t = (np.cos if trig == "cos" else np.sin)(k * theta[i])
        a[i] = reference_second_beltrami(point, pu) * t
        b[i] = reference_second_beltrami_divergence(point, pu) * t
        trigs.append(trig)
    rel = np.abs(a - b) / (1.0 + np.abs(b))
    i = int(np.argmax(rel))
    columns = {
        "s": s, "theta": theta, "a": jet[0], "da": jet[1], "dda": jet[2],
        "harmonic": harmonics, "trig": np.array(trigs),
        "specialized": a, "divergence_form": b, "rel_diff": rel,
    }
    worst = float(rel[i])
    details.update(max_rel_diff=worst, at_s=float(s[i]), at_theta=float(theta[i]))
    return worst, details, columns


_catalog_make = catalog.make


def reference_catalog_make(name: str, params=None):
    """`catalog.make` with the entry's curve rebuilt from its profile
    document, so its f and g are parsed from their texts on every call
    rather than shared from the catalog's parsed trees."""
    entry = _catalog_make(name, params)
    return replace(entry, curve=profile_from_dict(profile_to_dict(entry.curve)))
