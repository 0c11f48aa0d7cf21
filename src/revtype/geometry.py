"""Arclength profile curves, surfaces of revolution, forms and curvatures.

A profile curve ``(f(s), 0, g(s))`` rotated about the x3-axis sweeps the
surface ``x(s, theta) = (f cos theta, f sin theta, g)``.  Arclength
parametrization (f'^2 + g'^2 = 1) lets the tangent angle phi satisfy
f' = cos(phi), g' = sin(phi), with phi' = f'g'' - g'f''; the third form is
then III = diag(phi'^2, sin^2 phi) and the operator's quotient is

    R = 2H/K = 1/phi' + f/sin(phi)        (`radii_sum_jet`)

Points where phi' or sin(phi) vanish are parabolic (K = 0); the third form
degenerates there and they are excluded from all sampling.

`curvatures` takes H and K from the surface's own first and second forms,

    E = f'^2 + g'^2    G = f^2    L = (f'g'' - g'f'')/sqrt(E)    N = f g'/sqrt(E)

with F = M = 0.  It assumes neither arclength nor phi, so the 2H/K it gives
differs from R on a profile that breaks the arclength contract, which is
what `quotient_defects` measures.

A sample set is evaluated once into `RegularJets` by `grid_rows` or by the
draw screening of operator equivalence; the formulas take those jets.  An
error in a batch reports the first offending ``s``.  `joint_pass` evaluates
the validation samples and a grid's profile samples in one pass and splits
it into two views, which `validate_profile` and `grid_rows` take in place
of a pass of their own.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from numbers import Real
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .expressions import DomainEvalError, Expr, eval_jet3, parse, unparse
from .jets import Jet3

DEFAULT_TOL_ARC = 1e-8
DEFAULT_TOL_PARAB = 1e-3
# Validation samples of `validate_profile`.
VALIDATION_SAMPLES = 101

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
    if merged == [(s_min, s_max)]:
        raise ValueError(f"regular subdomain is empty: excluded intervals cover [{s_min}, {s_max}]")
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
        """The declared regular subdomain: J minus excluded intervals.
        Raises ValueError when they leave nothing, which `build` rules out."""
        intervals = []
        cursor = self.s_min
        for lo, hi in self.excluded:
            if lo > cursor:
                intervals.append((cursor, lo))
            cursor = max(cursor, hi)
        if cursor < self.s_max:
            intervals.append((cursor, self.s_max))
        if not intervals:
            raise ValueError("regular subdomain is empty")
        return intervals


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

    @property
    def dsin_phi(self):
        """(sin phi)' = g'' at arclength."""
        return self.g.v2

    @property
    def margin(self):
        """The non-parabolicity margin min(|phi'|, |sin phi|), with the
        shape of ``s``, as every channel has it; a point is parabolic unless
        its margin exceeds tol_parab, so a NaN margin is parabolic."""
        return np.minimum(np.abs(self.dphi), np.abs(self.sin_phi))

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
    """Jets at ``s`` from one evaluation pass each of f and g, not yet
    checked for regularity.  phi' = f'g'' - g'f'' and phi'' = f'g''' - g'f'''
    are branch-independent."""
    params = p.params_dict
    try:
        fj, gj = eval_jet3(p.f, s, params), eval_jet3(p.g, s, params)
    except DomainEvalError as exc:
        raise ProfileDomainError(float(np.ravel(s)[exc.index]), exc) from None
    return RegularJets(s, fj, gj, fj.v1 * gj.v2 - gj.v1 * fj.v2, fj.v1 * gj.v3 - gj.v1 * fj.v3)


def curvatures(jets: RegularJets) -> tuple[float, float]:
    """Mean and Gauss curvature (H, K) from the first and second forms.

    E = f'^2 + g'^2, G = f^2, L = (f'g'' - g'f'')/sqrt(E), N = f g'/sqrt(E)
    and F = M = 0, with the unit normal along x_s x x_theta, inward on the
    sphere.  Reads f, f', f'', g' and g'' only: no arclength, no phi.
    """
    fj, gj = jets.f, jets.g
    E = fj.v1 * fj.v1 + gj.v1 * gj.v1
    G = fj.v0 * fj.v0
    root = np.sqrt(E)
    L = (fj.v1 * gj.v2 - gj.v1 * fj.v2) / root
    N = fj.v0 * gj.v1 / root
    return 0.5 * (L / E + N / G), L * N / (E * G)


def radii_sum_jet(jets: RegularJets) -> tuple[float, float]:
    """R = 2H/K = 1/phi' + f/sin(phi) and its s-derivative from the jets."""
    f, sin_phi, dphi = jets.f.v0, jets.sin_phi, jets.dphi
    R = 1.0 / dphi + f / sin_phi
    # d/ds of f/sin(phi), with f' = cos(phi).
    dR = (-jets.ddphi / (dphi * dphi)
          + (jets.cos_phi * sin_phi - f * jets.dsin_phi) / (sin_phi * sin_phi))
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
        # Shallow: every field is a number or a bool.
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "passed": self.passed}


def sample_regular(p: ProfileCurve, n: int) -> np.ndarray:
    """About ``n`` deterministic sample points spread over the regular
    subdomain, proportionally per subinterval, midpoint-placed; one sorted
    1-D float array.  The points are sorted as placed: each subinterval's
    lie in it in increasing order, and the subintervals increase."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    intervals = p.regular_intervals()
    total = sum(hi - lo for lo, hi in intervals)
    parts = []
    for lo, hi in intervals:
        k = max(1, round(n * (hi - lo) / total))
        parts.append(lo + (np.arange(k) + 0.5) * ((hi - lo) / k))
    return np.concatenate(parts)


def joint_pass(p: ProfileCurve, n_samples: int, n_s: int) -> tuple[RegularJets, RegularJets]:
    """Jets at the validation samples ``sample_regular(p, n_samples)`` and
    at the grid's profile samples ``sample_regular(p, n_s)``, from one
    evaluation pass over both: two views of that pass, not yet checked for
    regularity, for the ``jets`` of `validate_profile` and `grid_rows`.
    A fault in the pass cannot tell which sample set met it; a caller that
    names the stage reruns the two passes apart."""
    samples = sample_regular(p, n_samples)
    jets = _jets(p, np.concatenate((samples, sample_regular(p, n_s))))
    return jets[:samples.size], jets[samples.size:]


def validate_profile(
    p: ProfileCurve,
    n_samples: int = VALIDATION_SAMPLES,
    tol_arc: float = DEFAULT_TOL_ARC,
    tol_parab: float = DEFAULT_TOL_PARAB,
    jets: Optional[RegularJets] = None,
) -> ValidationReport:
    """Check the profile contract over a sample of the regular subdomain.

    Reports the worst arclength defect |f'^2 + g'^2 - 1|, the minimum
    radius f, the minimum |f'g'| (diagnostic only) and the minimum
    non-parabolicity margin min(|phi'|, |sin phi|).  Passing requires the
    defect within ``tol_arc``, a positive radius, and the margin above
    ``tol_parab``.  ``jets`` are the jets at ``sample_regular(p,
    n_samples)`` when already evaluated, as by `joint_pass`.
    """
    if jets is None:
        jets = _jets(p, sample_regular(p, n_samples))
    samples, fj, gj = jets.s, jets.f, jets.g
    defect = np.abs(fj.v1 * fj.v1 + gj.v1 * gj.v1 - 1.0)
    margin = jets.margin
    # argmax and argmin stop at the first NaN, so a NaN sample is the
    # extreme read here and fails every check.
    worst, lowest, tightest = defect.argmax(), fj.v0.argmin(), margin.argmin()
    max_defect, min_radius, min_margin = defect[worst], fj.v0[lowest], margin[tightest]
    return ValidationReport(
        n_samples=len(samples),
        max_arc_defect=float(max_defect),
        arc_defect_at=float(samples[worst]),
        min_radius=float(min_radius),
        min_radius_at=float(samples[lowest]),
        min_tangent_product=float(np.abs(fj.v1 * gj.v1).min()),
        min_parab_margin=float(min_margin),
        parab_margin_at=float(samples[tightest]),
        tol_arc=tol_arc,
        tol_parab=tol_parab,
        arclength_ok=bool(max_defect <= tol_arc),
        positive_radius_ok=bool(min_radius > 0.0),
        nonparabolic_ok=bool(min_margin > tol_parab),
    )


def grid_rows(
    p: ProfileCurve,
    n_s: int,
    tol_parab: float = DEFAULT_TOL_PARAB,
    jets: Optional[RegularJets] = None,
) -> tuple[RegularJets, int]:
    """Profile sample rows for grid evaluation, evaluated in one pass.

    Rows whose margin is not above ``tol_parab`` are dropped whole,
    which keeps every retained row's full uniform circle of theta samples.
    ``jets`` are the jets at ``sample_regular(p, n_s)`` when already
    evaluated, as by `joint_pass`.  Returns (jets of the kept rows, number
    excluded); when no row is dropped, the jets are the pass itself,
    uncopied.
    """
    if jets is None:
        jets = _jets(p, sample_regular(p, n_s))
    keep = jets.margin > tol_parab
    if keep.all():
        return jets, 0
    return jets[keep], int(np.count_nonzero(~keep))


def theta_circle(n_theta: int) -> np.ndarray:
    """Uniform full-circle theta samples, [0, 2*pi)."""
    if n_theta < 4:
        raise ValueError("need at least 4 theta samples")
    return _TAU * np.arange(n_theta) / n_theta


def quotient_defects(jets: RegularJets) -> tuple[Optional[float], dict, dict]:
    """Max relative defect between R = 1/phi' + f/sin(phi) from
    `radii_sum_jet` and 2H/K from `curvatures`.  Returns the defect, the
    details ``max_residual`` and ``rows_used``, and the per-row columns
    ``s``, ``quotient``, ``from_curvature_ratios`` and ``rel_defect``; with
    no rows the defect is None and the columns empty."""
    details = {"max_residual": None, "rows_used": len(jets)}
    if not len(jets):
        return None, details, {}
    R, _ = radii_sum_jet(jets)
    H, K = curvatures(jets)
    rebuilt = 2.0 * H / K
    defect = np.abs(R - rebuilt) / (1.0 + np.abs(R))
    worst = float(np.max(defect))
    details["max_residual"] = worst
    columns = {"s": jets.s, "quotient": R, "from_curvature_ratios": rebuilt,
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
