"""Arclength profile curves, surfaces of revolution, forms and curvatures.

A profile curve ``(f(s), 0, g(s))`` rotated about the x3-axis sweeps the
surface ``x(s, theta) = (f cos theta, f sin theta, g)``.  Arclength
parametrization (f'^2 + g'^2 = 1) lets the tangent angle phi satisfy
f' = cos(phi), g' = sin(phi); all forms and curvatures then have closed
expressions in f, g and the jets of phi:

    I  = diag(1, f^2)      II = diag(phi', f sin phi)
    III = diag(phi'^2, sin^2 phi)
    K = phi' sin(phi) / f      R = 2H/K = 1/phi' + f/sin(phi)

Points where phi' or sin(phi) vanish are parabolic (K = 0); the third form
degenerates there and they are excluded from all sampling.

Per-point quantities take ``s`` as a float or an array of rows, evaluated
in one pass; an error in a batch reports the first offending ``s``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Real
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .expressions import DomainEvalError, Expr, eval_jet3, parse, unparse
from .jets import Jet3

DEFAULT_TOL_ARC = 1e-8
DEFAULT_TOL_PARAB = 1e-3

_TAU = 2.0 * math.pi


class ProfileError(Exception):
    pass


class ProfileDomainError(ProfileError):
    """An expression hit a domain error while sampling the profile."""

    def __init__(self, s: float, cause: DomainEvalError):
        super().__init__(f"domain error at s={s!r}: {cause}")
        self.s = s
        self.cause = cause


class ParabolicPointError(ProfileError):
    def __init__(self, s: float, dphi: float, sin_phi: float):
        super().__init__(
            f"parabolic point at s={s!r}: phi'={dphi:.3e}, sin(phi)={sin_phi:.3e}"
        )
        self.s = s
        self.dphi = dphi
        self.sin_phi = sin_phi


def _finite(what: str, value) -> float:
    """``value`` as a float; ValueError unless it is a finite real number."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return float(value)


def _normalize_exclusions(
    excluded: Iterable[Sequence[float]], s_min: float, s_max: float
) -> tuple[tuple[float, float], ...]:
    clipped = []
    for pair in excluded:
        if isinstance(pair, (str, bytes)) or not isinstance(pair, Sequence) or len(pair) != 2:
            raise ValueError(f"excluded interval must be a [lo, hi] pair, got {pair!r}")
        lo, hi = (_finite("excluded interval bound", v) for v in pair)
        if hi <= lo:
            raise ValueError(f"empty excluded interval ({lo}, {hi})")
        lo, hi = max(lo, s_min), min(hi, s_max)
        if lo < hi:
            clipped.append((lo, hi))
    clipped.sort()
    merged: list[tuple[float, float]] = []
    for lo, hi in clipped:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return tuple(merged)


@dataclass(frozen=True)
class ProfileCurve:
    """Arclength-parametrized plane curve defining a surface of revolution."""

    name: str
    f: Expr
    g: Expr
    s_min: float
    s_max: float
    params: tuple[tuple[str, float], ...] = ()
    excluded: tuple[tuple[float, float], ...] = ()

    @staticmethod
    def build(
        name: str,
        f,
        g,
        s_min: float,
        s_max: float,
        params: Optional[dict] = None,
        excluded: Iterable[Sequence[float]] = (),
    ) -> "ProfileCurve":
        s_min, s_max = _finite("s_min", s_min), _finite("s_max", s_max)
        if not s_min < s_max:
            raise ValueError(f"empty domain ({s_min}, {s_max})")
        params = params or {}
        if not isinstance(params, Mapping):
            raise ValueError(f"params must be a mapping of names to numbers, got {params!r}")
        f_expr = parse(f) if isinstance(f, str) else f
        g_expr = parse(g) if isinstance(g, str) else g
        items = tuple(sorted((str(k), _finite(f"parameter {k!r}", v)) for k, v in params.items()))
        return ProfileCurve(
            name=name,
            f=f_expr,
            g=g_expr,
            s_min=s_min,
            s_max=s_max,
            params=items,
            excluded=_normalize_exclusions(excluded, s_min, s_max),
        )

    @property
    def params_dict(self) -> dict[str, float]:
        return dict(self.params)

    def regular_intervals(self) -> list[tuple[float, float]]:
        """The declared regular subdomain: J minus excluded intervals."""
        intervals = []
        cursor = self.s_min
        for lo, hi in self.excluded:
            if lo > cursor:
                intervals.append((cursor, lo))
            cursor = max(cursor, hi)
        if cursor < self.s_max:
            intervals.append((cursor, self.s_max))
        return intervals


def _fg(p: ProfileCurve, s) -> tuple[Jet3, Jet3]:
    """Jets of f and g at ``s``, one evaluation pass each."""
    params = p.params_dict
    try:
        return eval_jet3(p.f, s, params), eval_jet3(p.g, s, params)
    except DomainEvalError as exc:
        raise ProfileDomainError(float(np.ravel(s)[exc.index]), exc) from None


def _dphi(fj: Jet3, gj: Jet3):
    """phi' = f'g'' - g'f'' under arclength parametrization."""
    return fj.v1 * gj.v2 - gj.v1 * fj.v2


def _ddphi(fj: Jet3, gj: Jet3):
    """phi'' = f'g''' - g'f'''."""
    return fj.v1 * gj.v3 - gj.v1 * fj.v3


def _parabolic(dphi, sin_phi, tol_parab: float):
    return (np.abs(dphi) <= tol_parab) | (np.abs(sin_phi) <= tol_parab)


def _tangent_angle(p: ProfileCurve, s: np.ndarray) -> np.ndarray:
    """atan2(g', f') at the points ``s``."""
    fj, gj = _fg(p, s)
    singular = (fj.v1 == 0.0) & (gj.v1 == 0.0)
    if np.any(singular):
        raise ProfileError(
            f"singular tangent at s={float(s[np.argmax(singular)])!r}: "
            "profile is not arclength-parametrized"
        )
    return np.arctan2(gj.v1, fj.v1)


def _wrap(x: np.ndarray) -> np.ndarray:
    """``x`` minus the nearest multiple of 2*pi."""
    return x - _TAU * np.rint(x / _TAU)


def _phi_branch(p: ProfileCurve, s: np.ndarray) -> np.ndarray:
    """Continuous branch of phi = atan2(g', f') at the points ``s``.

    The branch is fixed at the domain midpoint and carried along a uniform
    ladder of nodes to every point, unwrapping 2*pi jumps; the ladder is
    refined fourfold while any step turns by more than pi/2.  Each value is
    an exact atan2 value plus a multiple of 2*pi, so no integration error
    accumulates.
    """
    anchor = 0.5 * (p.s_min + p.s_max)
    raw = _tangent_angle(p, s)
    nodes = 1024
    while True:
        step = (p.s_max - p.s_min) / nodes
        j = np.rint((s - anchor) / step).astype(np.int64)
        lo, hi = int(j.min(initial=0)), int(j.max(initial=0))
        ladder = _tangent_angle(p, anchor + np.arange(lo, hi + 1) * step)
        jumps = _wrap(np.diff(ladder))
        turned = np.concatenate(([0.0], np.cumsum(jumps)))
        known = ladder[-lo] + (turned - turned[-lo])
        delta = _wrap(raw - known[j - lo])
        if np.all(np.abs(jumps) <= 0.5 * math.pi) and np.all(np.abs(delta) <= 0.5 * math.pi):
            return known[j - lo] + delta
        if nodes * 4 > 1 << 16:
            raise ProfileError("profile tangent turns too fast to track")
        nodes *= 4


@dataclass(frozen=True)
class PhiJet:
    phi: float
    dphi: float
    ddphi: float


def phi_jet(p: ProfileCurve, s) -> PhiJet:
    """Tangent angle phi (continuous branch) and its first two derivatives.

    Under arclength parametrization phi' = f'g'' - g'f'' and
    phi'' = f'g''' - g'f''', both branch-independent.
    """
    fj, gj = _fg(p, s)
    phi = _phi_branch(p, np.atleast_1d(np.asarray(s, dtype=float)))
    return PhiJet(phi if np.ndim(s) else float(phi[0]), _dphi(fj, gj), _ddphi(fj, gj))


@dataclass(frozen=True, eq=False)
class SurfacePoint:
    s: float
    theta: float
    position: np.ndarray
    normal: np.ndarray


def point_at(p: ProfileCurve, s: float, theta: float) -> SurfacePoint:
    """Position and unit normal of the revolution surface at (s, theta)."""
    fj, gj = _fg(p, s)
    theta = theta % _TAU
    ct, st = math.cos(theta), math.sin(theta)
    position = np.array([fj.v0 * ct, fj.v0 * st, gj.v0])
    # n = (-sin(phi) cos(theta), -sin(phi) sin(theta), cos(phi)) with
    # sin(phi) = g', cos(phi) = f' taken directly from the jets.
    normal = np.array([-gj.v1 * ct, -gj.v1 * st, fj.v1])
    return SurfacePoint(s, theta, position, normal)


def tangent_basis(p: ProfileCurve, s: float, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate tangent vectors (x_s, x_theta) from jets."""
    fj, gj = _fg(p, s)
    ct, st = math.cos(theta), math.sin(theta)
    x_s = np.array([fj.v1 * ct, fj.v1 * st, gj.v1])
    x_theta = np.array([-fj.v0 * st, fj.v0 * ct, 0.0])
    return x_s, x_theta


def normal_derivatives(p: ProfileCurve, s: float, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Partial derivatives (n_s, n_theta) of the Gauss map."""
    fj, gj = _fg(p, s)
    dphi = _dphi(fj, gj)
    ct, st = math.cos(theta), math.sin(theta)
    n_s = np.array([-fj.v1 * dphi * ct, -fj.v1 * dphi * st, -gj.v1 * dphi])
    n_theta = np.array([gj.v1 * st, -gj.v1 * ct, 0.0])
    return n_s, n_theta


@dataclass(frozen=True)
class FormsAndCurvature:
    """First, second and third fundamental forms with curvatures at a point.

    The forms are diagonal by revolution symmetry; the off-diagonal
    components are identically zero and not stored.
    """

    s: float
    g11: float
    g22: float
    h11: float
    h22: float
    e11: float
    e22: float
    H: float
    K: float
    R: float
    phi: float
    dphi: float
    ddphi: float
    radius: float
    height: float
    sin_phi: float
    cos_phi: float

    @property
    def e_det(self) -> float:
        return self.e11 * self.e22

    @property
    def e11_inv(self) -> float:
        return 1.0 / self.e11

    @property
    def e22_inv(self) -> float:
        return 1.0 / self.e22

    @property
    def kappa1(self) -> float:
        return self.h11 / self.g11

    @property
    def kappa2(self) -> float:
        return self.h22 / self.g22


def require_regular(p: ProfileCurve, s, tol_parab: float = DEFAULT_TOL_PARAB):
    """Jets and phi' at ``s``, raising ParabolicPointError at the first
    point where III degenerates."""
    fj, gj = _fg(p, s)
    dphi = _dphi(fj, gj)
    bad = _parabolic(dphi, gj.v1, tol_parab)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ParabolicPointError(*(float(np.ravel(x)[i]) for x in (s, dphi, gj.v1)))
    return fj, gj, dphi


def forms_at(
    p: ProfileCurve, s, tol_parab: float = DEFAULT_TOL_PARAB
) -> FormsAndCurvature:
    """All form components, H, K and R = 2H/K at regular points."""
    fj, gj, dphi = require_regular(p, s, tol_parab)
    pj = phi_jet(p, s)
    sin_phi, cos_phi = gj.v1, fj.v1
    f0 = fj.v0
    K = dphi * sin_phi / f0
    R = 1.0 / dphi + f0 / sin_phi
    return FormsAndCurvature(
        s=s,
        g11=1.0,
        g22=f0 * f0,
        h11=dphi,
        h22=f0 * sin_phi,
        e11=dphi * dphi,
        e22=sin_phi * sin_phi,
        H=0.5 * K * R,
        K=K,
        R=R,
        phi=pj.phi,
        dphi=dphi,
        ddphi=pj.ddphi,
        radius=f0,
        height=gj.v0,
        sin_phi=sin_phi,
        cos_phi=cos_phi,
    )


def _radii_sum(fj: Jet3, gj: Jet3, dphi) -> tuple:
    """R = 1/phi' + f/sin(phi) and its s-derivative from the jets."""
    R = 1.0 / dphi + fj.v0 / gj.v1
    # d/ds of f/sin(phi); (sin phi)' = g''.
    dR = -_ddphi(fj, gj) / (dphi * dphi) + (fj.v1 * gj.v1 - fj.v0 * gj.v2) / (gj.v1 * gj.v1)
    return R, dR


def radii_sum_jet(
    p: ProfileCurve, s, tol_parab: float = DEFAULT_TOL_PARAB
) -> tuple[float, float]:
    """R = 2H/K and its s-derivative, both by jet differentiation."""
    return _radii_sum(*require_regular(p, s, tol_parab))


@dataclass(frozen=True)
class ValidationReport:
    """Sampled diagnostics of the profile contract."""

    n_samples: int
    max_arc_defect: float
    arc_defect_at: float
    min_radius: float
    min_radius_at: float
    min_tangent_product: float
    min_parab_margin: float
    parab_margin_at: float
    tol_arc: float
    tol_parab: float
    arclength_ok: bool
    positive_radius_ok: bool
    nonparabolic_ok: bool

    @property
    def passed(self) -> bool:
        return self.arclength_ok and self.positive_radius_ok and self.nonparabolic_ok

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "max_arc_defect": self.max_arc_defect,
            "arc_defect_at": self.arc_defect_at,
            "min_radius": self.min_radius,
            "min_radius_at": self.min_radius_at,
            "min_tangent_product": self.min_tangent_product,
            "min_parab_margin": self.min_parab_margin,
            "parab_margin_at": self.parab_margin_at,
            "tol_arc": self.tol_arc,
            "tol_parab": self.tol_parab,
            "arclength_ok": self.arclength_ok,
            "positive_radius_ok": self.positive_radius_ok,
            "nonparabolic_ok": self.nonparabolic_ok,
            "passed": self.passed,
        }


def sample_regular(p: ProfileCurve, n: int) -> list[float]:
    """About ``n`` deterministic sample points spread over the regular
    subdomain, proportionally per subinterval, midpoint-placed."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    intervals = p.regular_intervals()
    if not intervals:
        raise ValueError("regular subdomain is empty")
    total = sum(hi - lo for lo, hi in intervals)
    samples: list[float] = []
    for lo, hi in intervals:
        k = max(1, round(n * (hi - lo) / total))
        width = (hi - lo) / k
        samples.extend(lo + (i + 0.5) * width for i in range(k))
    return sorted(samples)


def validate_profile(
    p: ProfileCurve,
    n_samples: int = 101,
    tol_arc: float = DEFAULT_TOL_ARC,
    tol_parab: float = DEFAULT_TOL_PARAB,
) -> ValidationReport:
    """Check the profile contract over a sample of the regular subdomain.

    Reports the worst arclength defect |f'^2 + g'^2 - 1|, the minimum
    radius f, the minimum |f'g'| (diagnostic only) and the minimum
    non-parabolicity margin min(|phi'|, |sin phi|).  Passing requires the
    defect within ``tol_arc``, a positive radius, and the margin above
    ``tol_parab``.
    """
    samples = np.array(sample_regular(p, n_samples))
    fj, gj = _fg(p, samples)
    defect = np.abs(fj.v1 * fj.v1 + gj.v1 * gj.v1 - 1.0)
    margin = np.minimum(np.abs(_dphi(fj, gj)), np.abs(gj.v1))
    # np.max and np.min propagate NaN, so a NaN sample fails every check.
    max_defect, min_radius, min_margin = np.max(defect), np.min(fj.v0), np.min(margin)
    return ValidationReport(
        n_samples=len(samples),
        max_arc_defect=float(max_defect),
        arc_defect_at=float(samples[np.argmax(defect)]),
        min_radius=float(min_radius),
        min_radius_at=float(samples[np.argmin(fj.v0)]),
        min_tangent_product=float(np.min(np.abs(fj.v1 * gj.v1))),
        min_parab_margin=float(min_margin),
        parab_margin_at=float(samples[np.argmin(margin)]),
        tol_arc=tol_arc,
        tol_parab=tol_parab,
        arclength_ok=bool(max_defect <= tol_arc),
        positive_radius_ok=bool(min_radius > 0.0),
        nonparabolic_ok=bool(min_margin > tol_parab),
    )


def grid_rows(
    p: ProfileCurve, n_s: int, tol_parab: float = DEFAULT_TOL_PARAB
) -> tuple[list[float], int]:
    """Profile sample rows for grid evaluation.

    Rows whose point is parabolic within ``tol_parab`` are dropped whole,
    which keeps every retained row's full uniform circle of theta samples.
    Returns (kept rows, number excluded).
    """
    rows = np.array(sample_regular(p, n_s))
    fj, gj = _fg(p, rows)
    bad = _parabolic(_dphi(fj, gj), gj.v1, tol_parab)
    return rows[~bad].tolist(), int(np.count_nonzero(bad))


def theta_circle(n_theta: int) -> list[float]:
    """Uniform full-circle theta samples, [0, 2*pi)."""
    if n_theta < 4:
        raise ValueError("need at least 4 theta samples")
    return [_TAU * j / n_theta for j in range(n_theta)]


def quotient_consistency(
    p: ProfileCurve, n_s: int = 32, tol_parab: float = DEFAULT_TOL_PARAB
) -> tuple[Optional[float], int]:
    """Max relative defect between R = 1/phi' + f/sin(phi) and the same
    quantity rebuilt from principal curvature ratios h_ij / g_ij, combined
    with the |2H - R*K| consistency.  Returns (max defect, rows used); the
    defect is None when every row is parabolic."""
    rows, _ = grid_rows(p, n_s, tol_parab)
    if not rows:
        return None, 0
    fm = forms_at(p, np.array(rows), tol_parab)
    k1, k2 = fm.kappa1, fm.kappa2
    rebuilt = (k1 + k2) / (k1 * k2)
    worst = max(
        np.max(np.abs(fm.R - rebuilt) / (1.0 + np.abs(fm.R))),
        np.max(np.abs(2.0 * fm.H - fm.R * fm.K) / (1.0 + np.abs(2.0 * fm.H))),
    )
    return float(worst), len(rows)


PROFILE_FIELDS = ("name", "f", "g", "s_min", "s_max", "params", "excluded_intervals")


def profile_to_dict(p: ProfileCurve) -> dict:
    return {
        "name": p.name,
        "f": unparse(p.f),
        "g": unparse(p.g),
        "s_min": p.s_min,
        "s_max": p.s_max,
        "params": p.params_dict,
        "excluded_intervals": [list(pair) for pair in p.excluded],
    }


def profile_from_dict(data: dict) -> ProfileCurve:
    missing = [k for k in ("name", "f", "g", "s_min", "s_max") if k not in data]
    if missing:
        raise ValueError(f"profile document missing fields: {', '.join(missing)}")
    unknown = [k for k in data if k not in PROFILE_FIELDS]
    if unknown:
        raise ValueError(f"profile document has unknown fields: {', '.join(unknown)}")
    return ProfileCurve.build(
        name=str(data["name"]),
        f=str(data["f"]),
        g=str(data["g"]),
        s_min=data["s_min"],
        s_max=data["s_max"],
        params=data.get("params") or {},
        excluded=data.get("excluded_intervals") or (),
    )


def load_profile(path) -> ProfileCurve:
    with open(path, "r", encoding="utf-8") as fh:
        return profile_from_dict(json.load(fh))


def save_profile(p: ProfileCurve, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile_to_dict(p), fh, indent=2, sort_keys=True)
        fh.write("\n")
