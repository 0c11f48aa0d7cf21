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
cross-verification.  `operator_equivalence_residual` compares them at
random points on fields given by random profile jets and harmonics: both
are pointwise linear in the jets, so no field is built beyond its jets.
Its draws come from `splitmix64`, a counter-based generator on NumPy's
uint64 arithmetic: each candidate's words are a pure function of the seed
and the candidate's index, the same on every platform and NumPy version,
so the first candidates can be placed, and evaluated with the validation
samples, before the check runs.
"""

from __future__ import annotations

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
# Least dimensionless margin min(|phi' f|, |sin(phi)|) at a point drawn by
# `operator_equivalence_residual`.
DRAW_MARGIN = 0.05
# Draws `operator_equivalence_residual` makes, at most, per requested pair.
DRAWS_PER_PAIR = 50

# SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): output n of the stream
# seeded x is mix(x + (n + 1) * gamma), all modulo 2**64.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# Words per candidate: interval, point, angle, then the field jets a, a'
# and a''.  The word of a also gives the harmonic (bits 0-1) and the trig
# (bit 2), from low bits that its uniform drops.
_WORDS = 6


def splitmix64(seed: int, counter: np.ndarray) -> np.ndarray:
    """Outputs number ``counter``, a uint64 array, of the SplitMix64 stream
    seeded with ``seed`` in 0..2**64 - 1.  The arithmetic wraps."""
    z = (counter + np.uint64(1)) * _GAMMA + np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _words(seed: int, index: np.ndarray, slot: int) -> np.ndarray:
    """Word ``slot`` of each candidate of ``index``."""
    return splitmix64(seed, index.astype(np.uint64) * np.uint64(_WORDS) + np.uint64(slot))


def _uniform(word: np.ndarray) -> np.ndarray:
    """The top 53 bits of each word as a uniform in [0, 1)."""
    return (word >> np.uint64(11)) * 2.0**-53


def first_pass(n_pairs: int) -> int:
    """Candidates of the first screening pass of ``n_pairs`` pairs: the
    pairs with headroom, so that a few percent of rejected draws, as on the
    torus, need no second pass."""
    return n_pairs + n_pairs // 16 + 16


def candidate_points(p: ProfileCurve, seed: int, start: int, stop: int) -> np.ndarray:
    """The points s of candidates ``start`` to ``stop - 1`` at ``seed``:
    a regular interval, drawn with its share of the regular length, then a
    uniform point in it."""
    intervals = p.regular_intervals()
    starts = np.array([lo for lo, _ in intervals])
    widths = np.array([hi - lo for lo, hi in intervals])
    cdf = np.cumsum(widths / widths.sum())
    cdf /= cdf[-1]
    index = np.arange(start, stop)
    k = cdf.searchsorted(_uniform(_words(seed, index, 0)), side="right")
    return starts[k] + widths[k] * _uniform(_words(seed, index, 1))


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
    term_theta = ct0 * (-k * k * a[0])
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


def operator_equivalence_residual(
    p: ProfileCurve,
    n_pairs: int = DEFAULT_PAIRS,
    seed: int = 0,
    tol_parab: float = DEFAULT_TOL_PARAB,
    jets: Optional[RegularJets] = None,
) -> tuple[Optional[float], dict, dict]:
    """Compare the specialized and divergence-form Laplacians on random
    field/point pairs.  Relative difference uses |a - b| / (1 + |b|).
    A drawn point is used only where its margin is above ``tol_parab`` and
    the dimensionless margin min(|phi' f|, |sin(phi)|) clears `DRAW_MARGIN`,
    so the same points qualify at every scale of the surface.

    Candidate i is `_WORDS` words of `splitmix64` at ``seed``, counters
    6i to 6i + 5, so every draw is a pure function of (seed, i).  The
    candidates are screened in passes, each one evaluation: the first has
    `first_pass` candidates, a later one twice the shortfall, at least 64,
    within `DRAWS_PER_PAIR` per requested pair, and the first usable
    candidates, up to the shortfall, are kept in draw order.  ``jets`` are
    the jets at the first pass, ``candidate_points(p, seed, 0,
    first_pass(n_pairs))``, when already evaluated, as by `joint_pass`.
    A kept candidate's field a(s) trig(k theta) is its profile jets at the
    point, a, a'/|phi'| and a''/phi'^2 uniform in [-2, 2], so the terms of
    `second_beltrami` stay comparable at every scale; its harmonic k in
    0..3; and its trig, cos for k = 0.

    Returns the worst difference, the details ``max_rel_diff``, ``pairs``,
    ``at_s`` and ``at_theta``, and the CSV columns, one entry per pair,
    which reproduce both operator values: ``s``, ``theta``, the jets ``a``,
    ``da`` and ``dda``, ``harmonic`` and ``trig`` (a callable returning
    ``"cos"`` or ``"sin"``, so only a CSV report builds the strings).
    Fewer ``pairs`` than requested means too few regular points, and with
    none the difference and location are None and the columns empty.
    """
    budget = DRAWS_PER_PAIR * n_pairs
    parts, picked = [], []
    done = drawn = 0
    m, screened = first_pass(n_pairs), jets
    while done < n_pairs and drawn < budget:
        if screened is None:
            screened = _jets(p, candidate_points(p, seed, drawn, drawn + m))
        usable = ((screened.margin > tol_parab)
                  & (np.minimum(np.abs(screened.dphi * screened.f.v0),
                                np.abs(screened.sin_phi)) >= DRAW_MARGIN))
        picks = np.flatnonzero(usable)[:n_pairs - done]
        if len(picks):
            # When a pass's first candidates are all usable, its picks are
            # a slice of its jets, not a gather.
            parts.append(screened[:len(picks)] if picks[-1] == len(picks) - 1
                         else screened[picks])
            picked.append(drawn + picks)
            done += len(picks)
        drawn, screened = drawn + m, None
        m = min(max(2 * (n_pairs - done), 64), budget - drawn)
    details = {"max_rel_diff": None, "pairs": done, "at_s": None, "at_theta": None}
    if not done:
        return None, details, {}
    # Both formulas run once over all pairs, and each profile is turned by
    # its pair's trig(k theta).
    jets = RegularJets.concat(parts)
    index = np.concatenate(picked)
    s, theta = jets.s, _TAU * _uniform(_words(seed, index, 2))
    word = _words(seed, index, 3)
    dphi = jets.dphi
    profiles = (4.0 * _uniform(word) - 2.0,
                (4.0 * _uniform(_words(seed, index, 4)) - 2.0) * np.abs(dphi),
                (4.0 * _uniform(_words(seed, index, 5)) - 2.0) * (dphi * dphi))
    harmonic = (word & np.uint64(3)).astype(np.int64)
    is_cos = (harmonic == 0) | ((word & np.uint64(4)) == 0)
    kt = harmonic * theta
    t = np.where(is_cos, np.cos(kt), np.sin(kt))
    a = second_beltrami(jets, profiles, harmonic) * t
    b = second_beltrami_divergence(jets, profiles, harmonic) * t
    rel = np.abs(a - b) / (1.0 + np.abs(b))
    i = int(rel.argmax())
    columns = {
        "s": s, "theta": theta,
        "a": profiles[0], "da": profiles[1], "dda": profiles[2],
        "harmonic": harmonic, "trig": lambda: np.where(is_cos, "cos", "sin"),
        "specialized": a, "divergence_form": b, "rel_diff": rel,
    }
    worst = float(rel[i])
    details.update(max_rel_diff=worst, at_s=float(s[i]), at_theta=float(theta[i]))
    return worst, details, columns
