"""First and second Beltrami operators with respect to the third form.

Scalar fields on a revolution surface are restricted to the separable family
``a(s) * {1, cos(k theta), sin(k theta)}``; every field the operators are
applied to has this shape.  As u_thetatheta = -k^2 u, an operator maps such
a field to a profile times the same trig, so the operators act on profile
jets read with the jets of a sample set (`RegularJets`, one evaluation
pass): the second operators take (a, a', a'') and the harmonic ``k``, an
int or one per point, and `first_beltrami` pairs a theta-free (u, u') with
a (w, w').  The sign convention makes the flat-model Laplacian
``-d2/dx2 - d2/dy2``.

Two independent evaluation paths exist for the second operator: the
revolution-specialized formula (`second_beltrami`, the production path,
which `laplacian_profile_factors` applies to the coordinates) and the raw
divergence form (`second_beltrami_divergence`), retained purely for
cross-verification.

`operator_equivalence_residual` compares the two second operators on
random fields that `random_fields` draws as plain data, all fields at once
with one generator call per quantity: per field, the coefficient,
frequency and sin/cos flag of each trigonometric term, the optional ``s``
and ``s^2`` coefficients, the harmonic and whether the trig is cos.
`field_labels` writes a field's profile as text and `RandomFields.trig`
its trig as ``"cos"`` or ``"sin"``, for the CSV ``field`` and ``trig``
columns only.
`field_profiles` evaluates the profile jets of every pair's field from
closed forms in one array pass, with the bits that `eval_jet3` gives on the
parsed label, so no expression tree is built or walked.  The sample points
are drawn as arrays too, in passes that are each screened in one
evaluation of the profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import (
    DEFAULT_TOL_PARAB,
    ProfileCurve,
    RegularJets,
    _TAU,
    _jets,
    radii_sum_jet,
    theta_circle,
)

# Random field/point pairs of `operator_equivalence_residual`.
DEFAULT_PAIRS = 1000
# Least |phi'| and |sin(phi)| at a point drawn by
# `operator_equivalence_residual`.
DRAW_MARGIN = 0.05
# Draws `operator_equivalence_residual` makes, at most, per requested pair.
DRAWS_PER_PAIR = 50


def normal_profiles(jets: RegularJets) -> tuple[tuple, tuple]:
    """Profile jets (a, a') of the unit normal's radial and axial parts:
    n = (radial cos(theta), radial sin(theta), axial)."""
    sin_phi, cos_phi, dphi = jets.sin_phi, jets.cos_phi, jets.dphi
    # radial a = -sin(phi), axial a = cos(phi), and a' = (da/dphi) phi'
    return (-sin_phi, -cos_phi * dphi), (cos_phi, -sin_phi * dphi)


def first_beltrami(jets: RegularJets, u: Sequence, w: Sequence) -> float:
    """Inverse-third-form pairing of the gradients of a theta-free field u
    and a field w(s) trig(k theta), from their profile jets ``u`` = (u, u')
    and ``w`` = (w, w'): u' w' / phi'^2, the profile of the pairing, since
    u_theta = 0 drops the theta term u_theta w_theta / sin^2(phi)."""
    return u[1] * w[1] / (jets.dphi * jets.dphi)


def second_beltrami(jets: RegularJets, a: Sequence, k) -> float:
    """Revolution-specialized Laplacian with respect to the third form of
    the field a(s) trig(k theta) from its profile jets ``a`` = (a, a', a''):
    the profile that multiplies trig(k theta) in the result,

        -a''/phi'^2 + (phi''/phi'^2 - cos(phi)/sin(phi)) a'/phi'
        + k^2 a/sin^2(phi)
    """
    dphi, sin_phi = jets.dphi, jets.sin_phi
    return (
        -a[2] / (dphi * dphi)
        + (jets.ddphi / (dphi * dphi) - jets.cos_phi / sin_phi) * a[1] / dphi
        + k * k * a[0] / (sin_phi * sin_phi)
    )


def second_beltrami_divergence(jets: RegularJets, a: Sequence, k) -> float:
    """Same operator evaluated from the divergence form

        -(1/sqrt(e)) * d_i( sqrt(e) e^{ij} u_j )

    with e the determinant of the third form, on the profile jets and
    harmonic of `second_beltrami`.  Independent evaluation path used to
    cross-check `second_beltrami`; needs order-3 profile jets for the
    s-derivative of sqrt(e) e^{11}.
    """
    dphi, sin_phi = jets.dphi, jets.sin_phi
    # (value, d/ds) pairs for the form components along s.
    e11 = (dphi * dphi, 2.0 * dphi * jets.ddphi)
    e22 = (sin_phi * sin_phi, 2.0 * sin_phi * jets.dsin_phi)
    det = (e11[0] * e22[0], e11[0] * e22[1] + e11[1] * e22[0])
    w0 = np.sqrt(det[0])
    w1 = det[1] / (2.0 * w0)
    cs0 = w0 / e11[0]
    cs1 = (w1 * e11[0] - w0 * e11[1]) / (e11[0] * e11[0])
    ct0 = w0 / e22[0]
    term_s = cs1 * a[1] + cs0 * a[2]
    # u_thetatheta = -k^2 u
    term_theta = -k * k * ct0 * a[0]
    return -(term_s + term_theta) / w0


def laplacian_profile_factors(jets: RegularJets) -> tuple[float, float]:
    """The s-dependent factors (radial, axial) of the coordinate Laplacian:
    `second_beltrami` of the coordinate fields f cos(theta), from
    (f, f', f'') with harmonic 1, and g, from (g, g', g'') with harmonic 0,
    so that the Laplacian of the position vector is
    (radial cos(theta), radial sin(theta), axial).
    """
    fj, gj = jets.f, jets.g
    return (second_beltrami(jets, (fj.v0, fj.v1, fj.v2), 1),
            second_beltrami(jets, (gj.v0, gj.v1, gj.v2), 0))


def position_identity_residual(
    jets: RegularJets, n_theta: int, rows_excluded: int
) -> tuple[Optional[float], dict, dict]:
    """Grid residual of the structural identity

        Laplacian(x) = grad-pairing(2H/K, n) - (2H/K) n

    over the grid rows ``jets`` of `grid_rows`, each row on the full
    ``n_theta`` circle.  The left side is `laplacian_profile_factors`,
    `second_beltrami` of the coordinate fields f cos(theta) (harmonic 1)
    and g (harmonic 0), the right side `first_beltrami` of R = 2H/K against
    each part of the normal, so the two sides share no term.  Both radial
    parts are a profile times (cos(theta), sin(theta)) and the axial parts
    do not depend on theta, so the residual vector at (s, theta) is
    (rho cos(theta), rho sin(theta), zeta), with ``rho`` and ``zeta`` its
    profiles at theta = 0, and its norm sqrt(rho^2 + zeta^2) holds at every
    angle of the row: the operators run once per row, at theta = 0.
    Returns the worst residual, the details ``max_residual``, ``at_s``,
    ``at_theta`` (0.0), ``points_used`` (rows times ``n_theta``) and
    ``rows_excluded``, and the CSV columns, one entry per grid point:
    callables that build (rows, n_theta) arrays, the per-row profiles times
    cos(theta) or sin(theta), so only a CSV report builds them.  With no
    rows the residual and location are None and the columns empty.
    """
    details = {"max_residual": None, "at_s": None, "at_theta": None, "points_used": 0,
               "rows_excluded": rows_excluded}
    if not len(jets):
        return None, details, {}
    R, dR = radii_sum_jet(jets)
    lhs = laplacian_profile_factors(jets)
    rhs = [first_beltrami(jets, (R, dR), n) - R * n[0] for n in normal_profiles(jets)]
    rho, zeta = lhs[0] - rhs[0], lhs[1] - rhs[1]
    residual = np.sqrt(rho * rho + zeta * zeta)
    i = int(residual.argmax())
    worst = float(residual[i])
    details.update(max_residual=worst, at_s=float(jets.s[i]), at_theta=0.0,
                   points_used=len(jets) * n_theta)
    thetas = theta_circle(n_theta)
    shape = (len(jets), n_theta)

    def per_row(profile):
        return lambda: np.broadcast_to(profile[:, None], shape)

    def turned(profile, trig):
        return lambda: profile[:, None] * trig(thetas)

    columns = {
        "s": per_row(jets.s), "theta": lambda: np.broadcast_to(thetas, shape),
        "lhs1": turned(lhs[0], np.cos), "lhs2": turned(lhs[0], np.sin), "lhs3": per_row(lhs[1]),
        "rhs1": turned(rhs[0], np.cos), "rhs2": turned(rhs[0], np.sin), "rhs3": per_row(rhs[1]),
        "residual": per_row(residual),
    }
    return worst, details, columns


@dataclass(frozen=True)
class RandomFields:
    """Draws of `random_fields`, one row per field ``a(s) * trig(k theta)``.

    The profile ``a`` is a sum of up to five terms, in slot order: up to
    three ``coeff * sin|cos(omega * s)`` (slots 0-2, sin where ``is_sin``),
    then ``coeff * s`` (slot 3) and ``coeff * s^2`` (slot 4).  ``present``
    marks the terms a field has; absent slots hold zeros (and ``is_sin``
    False).  ``harmonic`` and ``is_cos`` (the trig is cos where it holds)
    have one entry per field; `field_labels` writes the profiles as text
    and ``trig`` the trigs, each for a CSV report only.
    """

    coeff: np.ndarray
    omega: np.ndarray
    is_sin: np.ndarray
    present: np.ndarray
    harmonic: np.ndarray
    is_cos: np.ndarray

    def __len__(self) -> int:
        return len(self.harmonic)

    @property
    def trig(self) -> np.ndarray:
        """Each field's trig, ``"cos"`` or ``"sin"``."""
        return np.where(self.is_cos, "cos", "sin")


# Bounds of the uniform draws of the coefficients, by slot.
_COEFF_BOUND = np.array([2.0, 2.0, 2.0, 1.0, 0.5])


def random_fields(p: ProfileCurve, rng: np.random.Generator, count: int) -> RandomFields:
    """Deterministic stream of ``count`` smooth separable test fields on the
    profile domain: each a trigonometric polynomial in s plus low-degree
    monomials, times ``cos`` or ``sin(k theta)``.

    All fields are drawn at once, one `Generator` call per quantity, in
    this order: the number of trigonometric terms (1-3); whether the ``s``
    and ``s^2`` terms are present; the coefficients (uniform in +-2, +-1
    and +-0.5 for the trigonometric, ``s`` and ``s^2`` slots); the
    frequencies (``2 pi / span`` times a uniform in [0.2, 1)); the sin/cos
    flags; the harmonic (0-3); and the trig, cos for harmonic 0.
    Coefficients and frequencies are rounded by ``np.round(x, 3)``, the
    nearest double to some ``k / 1000``, so a label parses to exactly the
    drawn numbers; a coefficient that rounds to -0.0 keeps its sign."""
    span = p.s_max - p.s_min
    omega_base = _TAU / max(span, 1e-6)
    n_trig = rng.integers(1, 4, size=count)
    has_poly = rng.integers(2, size=(count, 2)).astype(bool)
    coeff = np.round(rng.uniform(-_COEFF_BOUND, _COEFF_BOUND, size=(count, 5)), 3)
    omega = np.round(omega_base * rng.uniform(0.2, 1.0, size=(count, 3)), 3)
    is_sin = rng.integers(2, size=(count, 3)).astype(bool)
    harmonic = rng.integers(0, 4, size=count)
    is_cos = (harmonic == 0) | rng.integers(2, size=count).astype(bool)
    present = np.concatenate((np.arange(3) < n_trig[:, None], has_poly), axis=1)
    coeff = np.where(present, coeff, 0.0)
    omega = np.where(present[:, :3], omega, 0.0)
    is_sin &= present[:, :3]
    return RandomFields(coeff, omega, is_sin, present, harmonic, is_cos)


def field_labels(fields: RandomFields) -> np.ndarray:
    """Each field's profile as text, such as
    ``-1.234 * sin(0.56 * s) + 0.1 * s^2``: its present terms in slot
    order, joined by `` + ``.  The text parses to exactly the drawn numbers
    (see `random_fields`)."""
    labels = []
    for c, w, sin, has in zip(fields.coeff.tolist(), fields.omega.tolist(),
                              fields.is_sin.tolist(), fields.present.tolist()):
        terms = [f"{c[m]} * {'sin' if sin[m] else 'cos'}({w[m]} * s)"
                 for m in range(3) if has[m]]
        terms += [f"{c[m]} * {power}" for m, power in ((3, "s"), (4, "s^2")) if has[m]]
        labels.append(" + ".join(terms))
    return np.array(labels)


def field_profiles(fields: RandomFields, which: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Profile jets ``(a, a', a'')`` of field ``which[i]`` at ``s[i]``, as a
    (3, len(s)) array, from closed forms in one pass over all points.

    Each value has the bits that `eval_jet3` gives on the parse of the
    field's label, because every step rounds as the tree evaluator does:
    a trig term is ``(d_k * omega ... * omega) * coeff`` with ``d_k`` the
    k-th derivative of sin or cos at ``omega * s``; ``s`` gives
    ``(s, 1, 0) * coeff`` and ``s^2`` gives ``(s*s, s+s, 2) * coeff``; and
    the terms are summed left to right, skipping absent ones rather than
    adding zeros, which would turn a -0.0 sum into +0.0.
    """
    coeff, omega = fields.coeff.take(which, axis=0), fields.omega.take(which, axis=0)
    present, is_sin = fields.present.take(which, axis=0), fields.is_sin.take(which, axis=0)
    x = s[:, None] * omega
    sin, cos = np.sin(x), np.cos(x)
    trig = np.stack((
        np.where(is_sin, sin, cos),
        np.where(is_sin, cos, -sin) * omega,
        np.where(is_sin, -sin, -cos) * omega * omega,
    )) * coeff[:, :3]
    c1, c2 = coeff[:, 3], coeff[:, 4]
    # Only points of a field with an s^2 term are squared, so s*s overflows,
    # and raises where faults are raised, exactly where the tree's would.
    sq = np.where(present[:, 4], s, 0.0)
    terms = (*np.moveaxis(trig, -1, 0),
             np.stack((s * c1, c1, 0.0 * c1)),
             np.stack((sq * sq * c2, (sq + sq) * c2, 2.0 * c2)))
    total = terms[0]
    for term, has in zip(terms[1:], present[:, 1:].T):
        total = np.where(has, total + term, total)
    return total


def operator_equivalence_residual(
    p: ProfileCurve,
    n_pairs: int = DEFAULT_PAIRS,
    seed: int = 0,
    tol_parab: float = DEFAULT_TOL_PARAB,
) -> tuple[Optional[float], dict, dict]:
    """Compare the specialized and divergence-form Laplacians on random
    field/point pairs.  Relative difference uses |a - b| / (1 + |b|).
    A drawn point is used only where phi' and sin(phi) both clear
    `DRAW_MARGIN`.

    Returns the worst difference, the details ``max_rel_diff``, ``pairs``,
    ``at_s`` and ``at_theta``, and the CSV columns, one entry per pair;
    the ``field`` and ``trig`` columns are callables that return the
    pairs' labels and trigs, so only a CSV report builds them.
    The fields come first from the ``seed`` generator, then the candidate
    points in passes of (3, m) uniforms.  Draws stop after `DRAWS_PER_PAIR`
    per requested pair; fewer ``pairs`` than requested means too few
    regular points, and with none the difference and location are None and
    the columns empty.
    """
    rng = np.random.default_rng(seed)
    intervals = p.regular_intervals()
    starts = np.array([lo for lo, _ in intervals])
    widths = np.array([hi - lo for lo, hi in intervals])
    cdf = np.cumsum(widths / widths.sum())
    cdf /= cdf[-1]
    fields = random_fields(p, rng, max(8, n_pairs // 50))
    # Candidates come in passes of (3, m) uniforms: interval, point, angle.
    # Each pass is screened in one evaluation, and its first usable
    # candidates, up to the shortfall, are kept in draw order.  The first
    # pass draws n_pairs; a later one twice the shortfall, at least 64,
    # within the DRAWS_PER_PAIR * n_pairs draws.
    parts, angles = [], []
    done = drawn = 0
    m = n_pairs
    while done < n_pairs and drawn < DRAWS_PER_PAIR * n_pairs:
        u = rng.random((3, m))
        drawn += m
        k = cdf.searchsorted(u[0], side="right")
        screened = _jets(p, starts[k] + widths[k] * u[1])
        margin = screened.margin
        keep = np.flatnonzero((margin > tol_parab) & (margin >= DRAW_MARGIN))[:n_pairs - done]
        if len(keep):
            parts.append(screened[keep])
            angles.append(u[2, keep])
            done += len(keep)
        m = min(max(2 * (n_pairs - done), 64), DRAWS_PER_PAIR * n_pairs - drawn)
    details = {"max_rel_diff": None, "pairs": done, "at_s": None, "at_theta": None}
    if not done:
        return None, details, {}
    # The picks' jets are slices of the screening passes, and pair i takes
    # field i % len(fields).  The fields' profile jets are evaluated in one
    # pass at the pairs' points; both formulas then run once over all pairs,
    # and each profile is turned by its pair's trig(k theta).
    jets = RegularJets.concat(parts)
    s, theta = jets.s, _TAU * np.concatenate(angles)
    which = np.arange(done) % len(fields)
    harmonic, is_cos = fields.harmonic.take(which), fields.is_cos.take(which)
    profiles = field_profiles(fields, which, s)
    kt = harmonic * theta
    t = np.where(is_cos, np.cos(kt), np.sin(kt))
    a = second_beltrami(jets, profiles, harmonic) * t
    b = second_beltrami_divergence(jets, profiles, harmonic) * t
    rel = np.abs(a - b) / (1.0 + np.abs(b))
    i = int(rel.argmax())
    columns = {
        "s": s, "theta": theta,
        "field": lambda: field_labels(fields).take(which),
        "harmonic": harmonic, "trig": lambda: fields.trig.take(which),
        "specialized": a, "divergence_form": b, "rel_diff": rel,
    }
    worst = float(rel[i])
    details.update(max_rel_diff=worst, at_s=float(s[i]), at_theta=float(theta[i]))
    return worst, details, columns
