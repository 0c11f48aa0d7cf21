"""First and second Beltrami operators with respect to the third form.

Scalar fields on a revolution surface are restricted to the separable family
``a(s) * {1, cos(k theta), sin(k theta)}``; every field the operators are
applied to has this shape, and theta-derivatives are then exact.  The sign
convention makes the flat-model Laplacian ``-d2/dx2 - d2/dy2``.

Two independent evaluation paths exist for the second operator: the
revolution-specialized formula (`second_beltrami`, the production path) and
the raw divergence form of the operator (`second_beltrami_divergence`),
retained purely for cross-verification.

Fields and operators read the profile from the jets of a sample set
(`RegularJets`, one evaluation pass) and take ``theta`` as a float or a
broadcasting array: jets of a column of rows against a row of angles is a
whole grid in one pass.  The operators act on a field's partials, which
`separable_partials` builds from the field's profile jets (a, a', a''),
harmonic and trig, so one set of partials can feed several operators and
one call serves a batch of points drawn from many fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .expressions import BinOp, Expr, Func, Num, Pow, Var, eval_jet3, unparse
from .geometry import (
    DEFAULT_TOL_PARAB,
    ProfileCurve,
    RegularJets,
    _jets,
    _parabolic,
    radii_sum_jet,
    theta_circle,
)

_TAU = 2.0 * math.pi

# Least |phi'| and |sin(phi)| at a point drawn by
# `operator_equivalence_residual`.
DRAW_MARGIN = 0.05


@dataclass(frozen=True)
class FieldPartials:
    value: float
    d_s: float
    d_ss: Optional[float]
    d_theta: float
    d_thetatheta: float


def separable_partials(a: Sequence, harmonic, is_cos, theta) -> FieldPartials:
    """Partials of a(s) * trig(k theta) from the profile jets ``a`` =
    (a, a'[, a'']), with trig cos where ``is_cos`` holds and sin elsewhere.
    ``harmonic`` and ``is_cos`` are one field's int and bool or integer
    and bool arrays with one entry per point, so one call serves a batch of
    points from many fields."""
    k = harmonic
    kt = k * theta
    cos_kt, sin_kt = np.cos(kt), np.sin(kt)
    # [()] turns the 0-d result of scalar arguments back into a scalar.
    t = np.where(is_cos, cos_kt, sin_kt)[()]
    dt = np.where(is_cos, -k * sin_kt, k * cos_kt)[()]
    ddt = -k * k * t
    return FieldPartials(
        value=a[0] * t,
        d_s=a[1] * t,
        d_ss=a[2] * t if len(a) > 2 else None,
        d_theta=a[0] * dt,
        d_thetatheta=a[0] * ddt,
    )


def normal_profiles(jets: RegularJets) -> tuple[tuple, tuple]:
    """Profile jets (a, a', a'') of the unit normal's radial and axial parts:
    n = (radial cos(theta), radial sin(theta), axial)."""
    sin_phi, cos_phi, dphi, ddphi = jets.sin_phi, jets.cos_phi, jets.dphi, jets.ddphi
    # a = -sin(phi): a' = -cos(phi) phi', a'' = sin(phi) phi'^2 - cos(phi) phi''
    radial = (-sin_phi, -cos_phi * dphi, sin_phi * dphi * dphi - cos_phi * ddphi)
    # a = cos(phi): a' = -sin(phi) phi', a'' = -cos(phi) phi'^2 - sin(phi) phi''
    axial = (cos_phi, -sin_phi * dphi, -cos_phi * dphi * dphi - sin_phi * ddphi)
    return radial, axial


def first_beltrami(jets: RegularJets, pu: FieldPartials, pw: FieldPartials) -> float:
    """Inverse-third-form pairing of the gradients of two fields, given
    their partials at the points of ``jets``:
    u_s w_s / phi'^2 + u_theta w_theta / sin^2(phi)."""
    dphi, sin_phi = jets.dphi, jets.sin_phi
    return pu.d_s * pw.d_s / (dphi * dphi) + pu.d_theta * pw.d_theta / (sin_phi * sin_phi)


def second_beltrami(jets: RegularJets, pu: FieldPartials) -> float:
    """Revolution-specialized Laplacian with respect to the third form,
    from a field's partials at the points of ``jets``:

        -u_ss/phi'^2 + (phi''/phi'^2 - cos(phi)/sin(phi)) u_s/phi'
        - u_thetatheta/sin^2(phi)
    """
    if pu.d_ss is None:
        raise ValueError("field lacks a second s-derivative")
    dphi, sin_phi = jets.dphi, jets.sin_phi
    return (
        -pu.d_ss / (dphi * dphi)
        + (jets.ddphi / (dphi * dphi) - jets.cos_phi / sin_phi) * pu.d_s / dphi
        - pu.d_thetatheta / (sin_phi * sin_phi)
    )


def second_beltrami_divergence(jets: RegularJets, pu: FieldPartials) -> float:
    """Same operator evaluated from the divergence form

        -(1/sqrt(e)) * d_i( sqrt(e) e^{ij} u_j )

    with e the determinant of the third form.  Independent evaluation path
    used to cross-check `second_beltrami`; needs order-3 profile jets for
    the s-derivative of sqrt(e) e^{11}.
    """
    if pu.d_ss is None:
        raise ValueError("field lacks a second s-derivative")
    dphi, sin_phi = jets.dphi, jets.sin_phi
    # (value, d/ds) pairs for the form components along s.
    e11 = (dphi * dphi, 2.0 * dphi * jets.ddphi)
    e22 = (sin_phi * sin_phi, 2.0 * sin_phi * jets.g.v2)
    det = (e11[0] * e22[0], e11[0] * e22[1] + e11[1] * e22[0])
    w0 = np.sqrt(det[0])
    w1 = det[1] / (2.0 * w0)
    cs0 = w0 / e11[0]
    cs1 = (w1 * e11[0] - w0 * e11[1]) / (e11[0] * e11[0])
    ct0 = w0 / e22[0]
    term_s = cs1 * pu.d_s + cs0 * pu.d_ss
    term_theta = ct0 * pu.d_thetatheta
    return -(term_s + term_theta) / w0


def laplacian_profile_factors(jets: RegularJets) -> tuple[float, float]:
    """The s-dependent factors (radial, axial) of the coordinate Laplacian:

        radial = R sin(phi) - (cos(phi)/phi') R'
        axial  = -R cos(phi) - (sin(phi)/phi') R'

    so that the Laplacian of the position vector is
    (radial cos(theta), radial sin(theta), axial).
    """
    R, dR = radii_sum_jet(jets)
    sin_phi, cos_phi, dphi = jets.sin_phi, jets.cos_phi, jets.dphi
    radial = R * sin_phi - (cos_phi / dphi) * dR
    axial = -R * cos_phi - (sin_phi / dphi) * dR
    return radial, axial


def position_identity_residual(
    jets: RegularJets, n_theta: int, rows_excluded: int
) -> tuple[Optional[float], dict, dict]:
    """Grid residual of the structural identity

        Laplacian(x) = grad-pairing(2H/K, n) - (2H/K) n

    over the grid rows ``jets`` of `grid_rows`, each row on the full
    ``n_theta`` circle.  The left side comes from the coordinate-Laplacian
    factors, the right side from `first_beltrami` applied componentwise to
    the normal, both as (rows, n_theta) arrays.  Returns the worst
    residual, the details ``max_residual``, ``at_s``, ``at_theta``,
    ``points_used`` and ``rows_excluded``, and the CSV columns as
    (rows, n_theta) arrays; with no rows the residual and location are None
    and the columns empty.
    """
    details = {"max_residual": None, "at_s": None, "at_theta": None, "points_used": 0,
               "rows_excluded": rows_excluded}
    if not len(jets):
        return None, details, {}
    rows = jets[:, None]
    thetas = theta_circle(n_theta)
    R, dR = radii_sum_jet(rows)
    radial, axial = laplacian_profile_factors(rows)
    lhs = np.broadcast_arrays(radial * np.cos(thetas), radial * np.sin(thetas), axial)
    pr = separable_partials((R, dR), 0, True, thetas)
    n_radial, n_axial = normal_profiles(rows)
    # A generator, so one component's partials are alive at a time and the
    # grid arrays stay in cache: building all three first measured 1.2x
    # slower at 64x64.
    normals = (separable_partials(a, k, is_cos, thetas)
               for a, k, is_cos in ((n_radial, 1, True), (n_radial, 1, False), (n_axial, 0, True)))
    rhs = [first_beltrami(rows, pr, pn) - R * pn.value for pn in normals]
    d1, d2, d3 = (l - r for l, r in zip(lhs, rhs))
    residual = np.sqrt(d1 * d1 + d2 * d2 + d3 * d3)
    i, j = np.unravel_index(np.argmax(residual), residual.shape)
    worst = float(residual[i, j])
    details.update(max_residual=worst, at_s=float(jets.s[i]), at_theta=float(thetas[j]),
                   points_used=residual.size)
    columns = {
        "s": np.broadcast_to(rows.s, residual.shape),
        "theta": np.broadcast_to(thetas, residual.shape),
        **{f"lhs{k}": c for k, c in enumerate(lhs, 1)},
        **{f"rhs{k}": c for k, c in enumerate(rhs, 1)},
        "residual": residual,
    }
    return worst, details, columns


def _number(x: float):
    """The tree that `parse` gives for the text of ``x``: a number with its
    sign bit set (-0.0 too) is a negated literal."""
    return Func("neg", Num(-x)) if math.copysign(1.0, x) < 0.0 else Num(x)


_S = Var()


def random_fields(
    p: ProfileCurve, rng: np.random.Generator, count: int
) -> list[tuple[str, Expr, int, str]]:
    """Deterministic stream of smooth separable test fields
    ``a(s) * trig(k theta)`` on the profile domain, each as
    ``(label, tree, k, trig)`` with trig ``"cos"`` or ``"sin"``.  The
    profile ``a`` is a trigonometric polynomial plus low-degree monomials in
    s, built as a tree: the one `parse` gives for its label
    ``unparse(tree)``, such as ``-1.234 * sin(0.56 * s) + 0.1 * s^2``."""
    span = p.s_max - p.s_min
    omega_base = _TAU / max(span, 1e-6)
    fields = []
    for _ in range(count):
        terms = []
        for m in range(rng.integers(1, 4)):
            coeff = round(float(rng.uniform(-2.0, 2.0)), 3)
            omega = round(float(omega_base * rng.uniform(0.2, 1.0)), 3)
            fn = "sin" if rng.integers(2) else "cos"
            terms.append(BinOp("*", _number(coeff), Func(fn, BinOp("*", _number(omega), _S))))
        if rng.integers(2):
            terms.append(BinOp("*", _number(round(float(rng.uniform(-1.0, 1.0)), 3)), _S))
        if rng.integers(2):
            square = Pow(_S, Fraction(2))
            terms.append(BinOp("*", _number(round(float(rng.uniform(-0.5, 0.5)), 3)), square))
        harmonic = int(rng.integers(0, 4))
        trig = "cos" if harmonic == 0 or rng.integers(2) else "sin"
        tree = terms[0]
        for term in terms[1:]:
            tree = BinOp("+", tree, term)
        fields.append((unparse(tree), tree, harmonic, trig))
    return fields


def operator_equivalence_residual(
    p: ProfileCurve,
    n_pairs: int = 1000,
    seed: int = 0,
    tol_parab: float = DEFAULT_TOL_PARAB,
) -> tuple[Optional[float], dict, dict]:
    """Compare the specialized and divergence-form Laplacians on random
    field/point pairs.  Relative difference uses |a - b| / (1 + |b|).
    A drawn point is used only where phi' and sin(phi) both clear
    `DRAW_MARGIN`.

    Returns the worst difference, the details ``max_rel_diff``, ``pairs``,
    ``at_s`` and ``at_theta``, and the CSV columns, one entry per pair.
    Draws stop after 50 per requested pair; fewer ``pairs`` than requested
    means too few regular points, and with none the difference and
    location are None and the columns empty.
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
    # When the draws run out, only the candidates that reach the new draws
    # are screened, and joined onto the earlier ones.
    u = np.empty(0)
    candidates = None
    usable: list[bool] = []
    picks: list[int] = []
    pos = attempts = 0
    while len(picks) < n_pairs and attempts < 50 * n_pairs:
        if pos + 3 > len(u):
            old = len(u)
            u = np.concatenate([u, rng.random(max(old, 3 * n_pairs + 3))])
            first = max(old - 1, 0)
            k = cdf.searchsorted(u[first:-1], side="right")
            tail = _jets(p, starts[k] + widths[k] * u[first + 1:])
            low = np.minimum(np.abs(tail.dphi), np.abs(tail.sin_phi)) < DRAW_MARGIN
            usable += (~(_parabolic(tail, tol_parab) | low)).tolist()
            candidates = tail if candidates is None else candidates.concat(tail)
        attempts += 1
        if usable[pos]:
            picks.append(pos)
            pos += 3
        else:
            pos += 2
    done = len(picks)
    details = {"max_rel_diff": None, "pairs": done, "at_s": None, "at_theta": None}
    if not done:
        return None, details, {}
    # The picks' jets are one slice of the screening pass, and pair i takes
    # field i % len(fields).  Each field's profile jets are evaluated once,
    # at its own pairs' points, and gathered per pair; the partials and
    # both formulas then run once over all pairs.
    picked = np.array(picks)
    jets = candidates[picked]
    s, theta = jets.s, _TAU * u[picked + 2]
    labels, trees, harmonics, trigs = zip(*fields)
    n = len(fields)
    profile = np.empty((3, done))
    for i, tree in enumerate(trees):
        j = eval_jet3(tree, s[i::n])
        profile[:, i::n] = (j.v0, j.v1, j.v2)
    which = np.arange(done) % n
    harmonic = np.array(harmonics)[which]
    trig = np.array(trigs)[which]
    pu = separable_partials(profile, harmonic, trig == "cos", theta)
    a = second_beltrami(jets, pu)
    b = second_beltrami_divergence(jets, pu)
    rel = np.abs(a - b) / (1.0 + np.abs(b))
    i = int(np.argmax(rel))
    columns = {
        "s": s, "theta": theta,
        "field": np.array(labels)[which],
        "harmonic": harmonic, "trig": trig,
        "specialized": a, "divergence_form": b, "rel_diff": rel,
    }
    worst = float(rel[i])
    details.update(max_rel_diff=worst, at_s=float(s[i]), at_theta=float(theta[i]))
    return worst, details, columns
