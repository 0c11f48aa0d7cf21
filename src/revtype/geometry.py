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

A sample set is evaluated once into `RegularJets` by `grid_rows` or by the
draw screening of operator equivalence; the formulas take those jets.  An
error in a batch reports the first offending ``s``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
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
    if not isinstance(excluded, (list, tuple)):
        raise ValueError(f"excluded intervals must be a list of [lo, hi] pairs, got {excluded!r}")
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
        if not math.isfinite(s_max - s_min):
            raise ValueError(f"domain ({s_min}, {s_max}) has no finite length")
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


@dataclass(frozen=True, eq=False)
class RegularJets:
    """Jets of f and g at regular sample points ``s``, with phi' and phi''.

    Built by `grid_rows` from one evaluation pass, and by the draw
    screening of `operator_equivalence_residual` from one pass per batch of
    draws, joined by `concat`; every profile formula reads its inputs from
    here, so a check evaluates its profile once per sample set.  Indexing
    slices all channels alike, as in ``jets[keep]`` or ``jets[:, None]``
    for a column of rows.
    """

    s: float | np.ndarray
    f: Jet3
    g: Jet3
    dphi: float | np.ndarray
    ddphi: float | np.ndarray

    @property
    def sin_phi(self):
        return self.g.v1

    @property
    def cos_phi(self):
        return self.f.v1

    def __len__(self) -> int:
        return int(np.size(self.s))

    def __getitem__(self, index) -> "RegularJets":
        def jet(j: Jet3) -> Jet3:
            return Jet3(j.v0[index], j.v1[index], j.v2[index], j.v3[index])

        return RegularJets(
            self.s[index], jet(self.f), jet(self.g), self.dphi[index], self.ddphi[index]
        )

    @staticmethod
    def concat(parts: Sequence["RegularJets"]) -> "RegularJets":
        """The points of ``parts``, one batch after another; a single part
        is returned as it is."""
        if len(parts) == 1:
            return parts[0]

        def cat(name):
            return np.concatenate([getattr(part, name) for part in parts])

        def jet(name) -> Jet3:
            return Jet3(*(np.concatenate([getattr(getattr(part, name), order) for part in parts])
                          for order in ("v0", "v1", "v2", "v3")))

        return RegularJets(cat("s"), jet("f"), jet("g"), cat("dphi"), cat("ddphi"))


def _jets(p: ProfileCurve, s) -> RegularJets:
    """Jets at ``s`` from one pass, not yet checked for regularity.
    phi'' = f'g''' - g'f''' is branch-independent, like phi'."""
    fj, gj = _fg(p, s)
    return RegularJets(s, fj, gj, _dphi(fj, gj), fj.v1 * gj.v3 - gj.v1 * fj.v3)


def _parabolic(jets: RegularJets, tol_parab: float):
    """Mask of the points where phi' or sin(phi) is within tol_parab of 0."""
    bad = (np.abs(jets.dphi) <= tol_parab) | (np.abs(jets.sin_phi) <= tol_parab)
    return np.broadcast_to(bad, np.shape(jets.s))


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
    dphi: float
    ddphi: float
    radius: float
    height: float
    sin_phi: float
    cos_phi: float

    @property
    def kappa1(self) -> float:
        return self.h11 / self.g11

    @property
    def kappa2(self) -> float:
        return self.h22 / self.g22


def forms_at(jets: RegularJets) -> FormsAndCurvature:
    """All form components, H, K and R = 2H/K at regular points."""
    dphi, sin_phi, f0 = jets.dphi, jets.sin_phi, jets.f.v0
    K = dphi * sin_phi / f0
    R = 1.0 / dphi + f0 / sin_phi
    return FormsAndCurvature(
        s=jets.s,
        g11=1.0,
        g22=f0 * f0,
        h11=dphi,
        h22=f0 * sin_phi,
        e11=dphi * dphi,
        e22=sin_phi * sin_phi,
        H=0.5 * K * R,
        K=K,
        R=R,
        dphi=dphi,
        ddphi=jets.ddphi,
        radius=f0,
        height=jets.g.v0,
        sin_phi=sin_phi,
        cos_phi=jets.cos_phi,
    )


def radii_sum_jet(jets: RegularJets) -> tuple[float, float]:
    """R = 2H/K = 1/phi' + f/sin(phi) and its s-derivative from the jets."""
    fj, gj, dphi = jets.f, jets.g, jets.dphi
    R = 1.0 / dphi + fj.v0 / gj.v1
    # d/ds of f/sin(phi); (sin phi)' = g''.
    dR = -jets.ddphi / (dphi * dphi) + (fj.v1 * gj.v1 - fj.v0 * gj.v2) / (gj.v1 * gj.v1)
    return R, dR


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
        return {**asdict(self), "passed": self.passed}


def sample_regular(p: ProfileCurve, n: int) -> np.ndarray:
    """About ``n`` deterministic sample points spread over the regular
    subdomain, proportionally per subinterval, midpoint-placed; one sorted
    1-D float array."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    intervals = p.regular_intervals()
    if not intervals:
        raise ValueError("regular subdomain is empty")
    total = sum(hi - lo for lo, hi in intervals)
    parts = []
    for lo, hi in intervals:
        k = max(1, round(n * (hi - lo) / total))
        parts.append(lo + (np.arange(k) + 0.5) * ((hi - lo) / k))
    return np.sort(np.concatenate(parts))


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
    samples = sample_regular(p, n_samples)
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
) -> tuple[RegularJets, int]:
    """Profile sample rows for grid evaluation, evaluated in one pass.

    Rows whose point is parabolic within ``tol_parab`` are dropped whole,
    which keeps every retained row's full uniform circle of theta samples.
    Returns (jets of the kept rows, number excluded).
    """
    jets = _jets(p, sample_regular(p, n_s))
    bad = _parabolic(jets, tol_parab)
    return jets[~bad], int(np.count_nonzero(bad))


def theta_circle(n_theta: int) -> np.ndarray:
    """Uniform full-circle theta samples, [0, 2*pi)."""
    if n_theta < 4:
        raise ValueError("need at least 4 theta samples")
    return _TAU * np.arange(n_theta) / n_theta


def quotient_defects(jets: RegularJets) -> tuple[Optional[float], dict, dict]:
    """Max relative defect between R = 1/phi' + f/sin(phi) and the same
    quantity rebuilt from principal curvature ratios h_ij / g_ij.  Returns
    the defect, the details ``max_residual`` and ``rows_used``, and the
    per-row columns ``s``, ``quotient``, ``from_curvature_ratios`` and
    ``rel_defect``; with no rows the defect is None and the columns
    empty."""
    details = {"max_residual": None, "rows_used": len(jets)}
    if not len(jets):
        return None, details, {}
    fm = forms_at(jets)
    k1, k2 = fm.kappa1, fm.kappa2
    rebuilt = (k1 + k2) / (k1 * k2)
    defect = np.abs(fm.R - rebuilt) / (1.0 + np.abs(fm.R))
    worst = float(np.max(defect))
    details["max_residual"] = worst
    columns = {"s": jets.s, "quotient": fm.R, "from_curvature_ratios": rebuilt,
               "rel_defect": defect}
    return worst, details, columns


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
    if not isinstance(data, Mapping):
        raise ValueError(f"profile document must be an object, got {type(data).__name__}")
    missing = [k for k in ("name", "f", "g", "s_min", "s_max") if k not in data]
    if missing:
        raise ValueError(f"profile document missing fields: {', '.join(missing)}")
    unknown = [k for k in data if k not in PROFILE_FIELDS]
    if unknown:
        raise ValueError(f"profile document has unknown fields: {', '.join(unknown)}")
    for key in ("name", "f", "g"):
        if not isinstance(data[key], str):
            raise ValueError(f"profile field {key!r} must be a string, "
                             f"got {type(data[key]).__name__}")
    return ProfileCurve.build(
        name=data["name"],
        f=data["f"],
        g=data["g"],
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
