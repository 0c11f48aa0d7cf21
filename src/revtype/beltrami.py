"""First and second Beltrami operators with respect to the third form.

Scalar fields on a revolution surface are restricted to the separable family
``a(s) * {1, cos(k theta), sin(k theta)}``; every field the operators are
applied to has this shape, and theta-derivatives are then exact.  The sign
convention makes the flat-model Laplacian ``-d2/dx2 - d2/dy2``.

Two independent evaluation paths exist for the second operator: the
revolution-specialized formula (`second_beltrami`, the production path) and
the raw divergence form of the operator (`second_beltrami_divergence`),
retained purely for cross-verification.

Operators and fields take ``s`` and ``theta`` as floats or as broadcasting
arrays: a column of rows against a row of angles is a whole grid in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .expressions import eval_jet3, parse
from .geometry import (
    DEFAULT_TOL_PARAB,
    ProfileCurve,
    _ddphi,
    _dphi,
    _fg,
    _parabolic,
    _radii_sum,
    grid_rows,
    radii_sum_jet,
    require_regular,
    theta_circle,
)

_TAU = 2.0 * math.pi


@dataclass(frozen=True)
class FieldPartials:
    value: float
    d_s: float
    d_ss: Optional[float]
    d_theta: float
    d_thetatheta: float


@dataclass(frozen=True)
class ScalarField:
    """Separable field a(s) * trig(k theta).

    ``profile_jets(s)`` returns (a, a') or (a, a', a''); fields lacking the
    second derivative support the first operator but not the second.
    """

    label: str
    profile_jets: Callable[[float], Sequence[float]]
    harmonic: int = 0
    trig: str = "cos"

    def __post_init__(self):
        if self.trig not in ("cos", "sin"):
            raise ValueError("trig must be 'cos' or 'sin'")
        if self.harmonic < 0:
            raise ValueError("harmonic must be non-negative")
        if self.harmonic == 0 and self.trig == "sin":
            raise ValueError("harmonic 0 with sin is identically zero")

    def partials(self, s, theta) -> FieldPartials:
        a = tuple(self.profile_jets(s))
        k = self.harmonic
        if self.trig == "cos":
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

    def value(self, s, theta):
        return self.partials(s, theta).value


def expression_field(
    text_or_expr,
    params: Optional[dict] = None,
    harmonic: int = 0,
    trig: str = "cos",
    label: Optional[str] = None,
) -> ScalarField:
    """Field whose s-profile is a closed-form expression."""
    expr = parse(text_or_expr) if isinstance(text_or_expr, str) else text_or_expr
    bound = dict(params or {})

    def profile(s):
        j = eval_jet3(expr, s, bound)
        return (j.v0, j.v1, j.v2, j.v3)

    if label is None:
        label = text_or_expr if isinstance(text_or_expr, str) else "expr"
    return ScalarField(label=label, profile_jets=profile, harmonic=harmonic, trig=trig)


def coordinate_fields(p: ProfileCurve) -> tuple[ScalarField, ScalarField, ScalarField]:
    """The three coordinate functions of the position vector as fields."""

    def f_profile(s):
        fj, _ = _fg(p, s)
        return (fj.v0, fj.v1, fj.v2)

    def g_profile(s):
        _, gj = _fg(p, s)
        return (gj.v0, gj.v1, gj.v2)

    return (
        ScalarField("x1", f_profile, harmonic=1, trig="cos"),
        ScalarField("x2", f_profile, harmonic=1, trig="sin"),
        ScalarField("x3", g_profile, harmonic=0, trig="cos"),
    )


def radii_sum_field(p: ProfileCurve, tol_parab: float = DEFAULT_TOL_PARAB) -> ScalarField:
    """R = 2H/K as a theta-independent field (first derivative only)."""

    def profile(s):
        return radii_sum_jet(p, s, tol_parab)

    return ScalarField("2H/K", profile, harmonic=0, trig="cos")


def normal_fields(p: ProfileCurve) -> tuple[ScalarField, ScalarField, ScalarField]:
    """Components of the unit normal as separable fields."""

    def radial(s):
        fj, gj = _fg(p, s)
        dphi, ddphi = _dphi(fj, gj), _ddphi(fj, gj)
        # a = -sin(phi): a' = -cos(phi) phi', a'' = sin(phi) phi'^2 - cos(phi) phi''
        return (
            -gj.v1,
            -fj.v1 * dphi,
            gj.v1 * dphi * dphi - fj.v1 * ddphi,
        )

    def axial(s):
        fj, gj = _fg(p, s)
        dphi, ddphi = _dphi(fj, gj), _ddphi(fj, gj)
        # a = cos(phi): a' = -sin(phi) phi', a'' = -cos(phi) phi'^2 - sin(phi) phi''
        return (
            fj.v1,
            -gj.v1 * dphi,
            -fj.v1 * dphi * dphi - gj.v1 * ddphi,
        )

    return (
        ScalarField("n1", radial, harmonic=1, trig="cos"),
        ScalarField("n2", radial, harmonic=1, trig="sin"),
        ScalarField("n3", axial, harmonic=0, trig="cos"),
    )


def first_beltrami(
    p: ProfileCurve,
    s: float,
    theta: float,
    u: ScalarField,
    w: ScalarField,
    tol_parab: float = DEFAULT_TOL_PARAB,
) -> float:
    """Inverse-third-form pairing of the gradients of two fields:
    u_s w_s / phi'^2 + u_theta w_theta / sin^2(phi)."""
    fj, gj, dphi = require_regular(p, s, tol_parab)
    pu = u.partials(s, theta)
    pw = w.partials(s, theta)
    return pu.d_s * pw.d_s / (dphi * dphi) + pu.d_theta * pw.d_theta / (gj.v1 * gj.v1)


def second_beltrami(
    p: ProfileCurve,
    s: float,
    theta: float,
    u: ScalarField,
    tol_parab: float = DEFAULT_TOL_PARAB,
) -> float:
    """Revolution-specialized Laplacian with respect to the third form:

        -u_ss/phi'^2 + (phi''/phi'^2 - cos(phi)/sin(phi)) u_s/phi'
        - u_thetatheta/sin^2(phi)
    """
    fj, gj, dphi = require_regular(p, s, tol_parab)
    ddphi = _ddphi(fj, gj)
    pu = u.partials(s, theta)
    if pu.d_ss is None:
        raise ValueError(f"field {u.label!r} lacks a second s-derivative")
    sin_phi, cos_phi = gj.v1, fj.v1
    return (
        -pu.d_ss / (dphi * dphi)
        + (ddphi / (dphi * dphi) - cos_phi / sin_phi) * pu.d_s / dphi
        - pu.d_thetatheta / (sin_phi * sin_phi)
    )


def second_beltrami_divergence(
    p: ProfileCurve,
    s: float,
    theta: float,
    u: ScalarField,
    tol_parab: float = DEFAULT_TOL_PARAB,
) -> float:
    """Same operator evaluated from the divergence form

        -(1/sqrt(e)) * d_i( sqrt(e) e^{ij} u_j )

    with e the determinant of the third form.  Independent evaluation path
    used to cross-check `second_beltrami`; needs order-3 profile jets for
    the s-derivative of sqrt(e) e^{11}.
    """
    fj, gj, dphi = require_regular(p, s, tol_parab)
    ddphi = _ddphi(fj, gj)
    pu = u.partials(s, theta)
    if pu.d_ss is None:
        raise ValueError(f"field {u.label!r} lacks a second s-derivative")
    # (value, d/ds) pairs for the form components along s.
    e11 = (dphi * dphi, 2.0 * dphi * ddphi)
    e22 = (gj.v1 * gj.v1, 2.0 * gj.v1 * gj.v2)
    det = (e11[0] * e22[0], e11[0] * e22[1] + e11[1] * e22[0])
    w0 = np.sqrt(det[0])
    w1 = det[1] / (2.0 * w0)
    cs0 = w0 / e11[0]
    cs1 = (w1 * e11[0] - w0 * e11[1]) / (e11[0] * e11[0])
    ct0 = w0 / e22[0]
    term_s = cs1 * pu.d_s + cs0 * pu.d_ss
    term_theta = ct0 * pu.d_thetatheta
    return -(term_s + term_theta) / w0


def laplacian_profile_factors(
    p: ProfileCurve, s: float, tol_parab: float = DEFAULT_TOL_PARAB
) -> tuple[float, float]:
    """The s-dependent factors (radial, axial) of the coordinate Laplacian:

        radial = R sin(phi) - (cos(phi)/phi') R'
        axial  = -R cos(phi) - (sin(phi)/phi') R'

    so that the Laplacian of the position vector is
    (radial cos(theta), radial sin(theta), axial).
    """
    fj, gj, dphi = require_regular(p, s, tol_parab)
    R, dR = _radii_sum(fj, gj, dphi)
    sin_phi, cos_phi = gj.v1, fj.v1
    radial = R * sin_phi - (cos_phi / dphi) * dR
    axial = -R * cos_phi - (sin_phi / dphi) * dR
    return radial, axial


@dataclass(frozen=True, eq=False)
class CoordinateLaplacian:
    radial: float
    axial: float
    vector: np.ndarray


def coordinate_laplacian(
    p: ProfileCurve, s: float, theta: float, tol_parab: float = DEFAULT_TOL_PARAB
) -> CoordinateLaplacian:
    """Laplacian of the three coordinate functions at (s, theta)."""
    radial, axial = laplacian_profile_factors(p, s, tol_parab)
    vec = np.array(
        [radial * math.cos(theta), radial * math.sin(theta), axial]
    )
    return CoordinateLaplacian(radial=radial, axial=axial, vector=vec)


@dataclass(frozen=True)
class IdentityReport:
    max_residual: Optional[float]
    at_s: Optional[float]
    at_theta: Optional[float]
    points_used: int
    rows_excluded: int
    rows: Optional[list] = None

    def to_dict(self) -> dict:
        return {
            "max_residual": self.max_residual,
            "at_s": self.at_s,
            "at_theta": self.at_theta,
            "points_used": self.points_used,
            "rows_excluded": self.rows_excluded,
        }


def position_identity_residual(
    p: ProfileCurve,
    n_s: int = 32,
    n_theta: int = 32,
    tol_parab: float = DEFAULT_TOL_PARAB,
    collect_rows: bool = False,
) -> IdentityReport:
    """Grid residual of the structural identity

        Laplacian(x) = grad-pairing(2H/K, n) - (2H/K) n

    The left side comes from the coordinate-Laplacian factors, the right
    side from `first_beltrami` applied componentwise to the normal, both
    as (rows, n_theta) arrays.  With every row parabolic the report has no
    points and its residual and location are None.
    """
    rows, excluded = grid_rows(p, n_s, tol_parab)
    if not rows:
        return IdentityReport(None, None, None, 0, excluded, [] if collect_rows else None)
    s = np.array(rows)[:, None]
    thetas = np.array(theta_circle(n_theta))
    R, _ = radii_sum_jet(p, s, tol_parab)
    radial, axial = laplacian_profile_factors(p, s, tol_parab)
    lhs = np.stack(
        np.broadcast_arrays(radial * np.cos(thetas), radial * np.sin(thetas), axial), axis=-1
    )
    r_field = radii_sum_field(p, tol_parab)
    rhs = np.stack(
        [
            first_beltrami(p, s, thetas, r_field, comp, tol_parab) - R * comp.value(s, thetas)
            for comp in normal_fields(p)
        ],
        axis=-1,
    )
    residual = np.linalg.norm(lhs - rhs, axis=-1)
    i, j = np.unravel_index(np.argmax(residual), residual.shape)
    table = None
    if collect_rows:
        columns = {
            "s": np.repeat(rows, n_theta),
            "theta": np.tile(thetas, len(rows)),
            "lhs1": lhs[..., 0], "lhs2": lhs[..., 1], "lhs3": lhs[..., 2],
            "rhs1": rhs[..., 0], "rhs2": rhs[..., 1], "rhs3": rhs[..., 2],
            "residual": residual,
        }
        values = zip(*(np.ravel(c).tolist() for c in columns.values()))
        table = [dict(zip(columns, v)) for v in values]
    return IdentityReport(
        max_residual=float(residual[i, j]),
        at_s=rows[i],
        at_theta=float(thetas[j]),
        points_used=residual.size,
        rows_excluded=excluded,
        rows=table,
    )


def random_fields(
    p: ProfileCurve, rng: np.random.Generator, count: int
) -> list[ScalarField]:
    """Deterministic stream of smooth separable test fields on the profile
    domain (trigonometric polynomials plus low-degree monomials in s)."""
    span = p.s_max - p.s_min
    omega_base = _TAU / max(span, 1e-6)
    fields = []
    for _ in range(count):
        terms = []
        for m in range(rng.integers(1, 4)):
            coeff = round(float(rng.uniform(-2.0, 2.0)), 3)
            omega = round(float(omega_base * rng.uniform(0.2, 1.0)), 3)
            fn = "sin" if rng.integers(2) else "cos"
            terms.append(f"{coeff} * {fn}({omega} * s)")
        if rng.integers(2):
            terms.append(f"{round(float(rng.uniform(-1.0, 1.0)), 3)} * s")
        if rng.integers(2):
            terms.append(f"{round(float(rng.uniform(-0.5, 0.5)), 3)} * s^2")
        harmonic = int(rng.integers(0, 4))
        trig = "cos" if harmonic == 0 or rng.integers(2) else "sin"
        text = " + ".join(terms)
        fields.append(expression_field(text, harmonic=harmonic, trig=trig))
    return fields


@dataclass(frozen=True)
class EquivalenceReport:
    max_rel_diff: Optional[float]
    pairs: int
    at_s: Optional[float]
    at_theta: Optional[float]
    rows: Optional[list] = None

    def to_dict(self) -> dict:
        return {
            "max_rel_diff": self.max_rel_diff,
            "pairs": self.pairs,
            "at_s": self.at_s,
            "at_theta": self.at_theta,
        }


def operator_equivalence_residual(
    p: ProfileCurve,
    n_pairs: int = 1000,
    seed: int = 0,
    tol_parab: float = DEFAULT_TOL_PARAB,
    margin: float = 0.05,
    collect_rows: bool = False,
) -> EquivalenceReport:
    """Compare the specialized and divergence-form Laplacians on random
    field/point pairs.  Relative difference uses |a - b| / (1 + |b|).

    Draws stop after 50 per requested pair; a report with fewer pairs
    means too few regular points, and with none its difference and
    location are None.
    """
    rng = np.random.default_rng(seed)
    intervals = p.regular_intervals()
    if not intervals:
        raise ValueError("regular subdomain is empty")
    starts = np.array([lo for lo, _ in intervals])
    widths = np.array([hi - lo for lo, hi in intervals])
    cdf = np.cumsum(widths / widths.sum())
    cdf /= cdf[-1]
    fields = random_fields(p, rng, max(8, n_pairs // 50))
    # A draw is an interval from u[k], a point s from u[k + 1] and, if s
    # clears the margin, an angle from u[k + 2].  Candidates at every
    # offset k are screened in one pass; the walk keeps the draw order.
    u = np.empty(0)
    picks: list[int] = []
    pos = attempts = 0
    while len(picks) < n_pairs and attempts < 50 * n_pairs:
        if pos + 3 > len(u):
            u = np.concatenate([u, rng.random(max(len(u), 3 * n_pairs + 3))])
            k = cdf.searchsorted(u[:-1], side="right")
            candidates = starts[k] + widths[k] * u[1:]
            fj, gj = _fg(p, candidates)
            dphi = _dphi(fj, gj)
            low = np.minimum(np.abs(dphi), np.abs(gj.v1)) < margin
            usable = ~(_parabolic(dphi, gj.v1, tol_parab) | low)
        attempts += 1
        if usable[pos]:
            picks.append(pos)
            pos += 3
        else:
            pos += 2
    done = len(picks)
    if not done:
        return EquivalenceReport(None, 0, None, None, [] if collect_rows else None)
    s = candidates[picks]
    theta = _TAU * u[np.array(picks) + 2]
    a, b = np.empty(done), np.empty(done)
    for i, field in enumerate(fields):
        sel = slice(i, done, len(fields))
        a[sel] = second_beltrami(p, s[sel], theta[sel], field, tol_parab)
        b[sel] = second_beltrami_divergence(p, s[sel], theta[sel], field, tol_parab)
    rel = np.abs(a - b) / (1.0 + np.abs(b))
    worst = int(np.argmax(rel))
    table = None
    if collect_rows:
        columns = zip(s.tolist(), theta.tolist(), a.tolist(), b.tolist(), rel.tolist())
        table = [
            {"s": si, "theta": ti, "field": fields[i % len(fields)].label,
             "harmonic": fields[i % len(fields)].harmonic, "trig": fields[i % len(fields)].trig,
             "specialized": ai, "divergence_form": bi, "rel_diff": ri}
            for i, (si, ti, ai, bi, ri) in enumerate(columns)
        ]
    return EquivalenceReport(
        max_rel_diff=float(rel[worst]),
        pairs=done,
        at_s=float(s[worst]),
        at_theta=float(theta[worst]),
        rows=table,
    )
