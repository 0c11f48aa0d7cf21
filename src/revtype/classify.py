"""Coordinate finite-type analysis: does Laplacian(x) = A x hold?

The decision pipeline fits a constant 3x3 matrix A over a grid by least
squares and classifies: the null matrix (catenoid), twice the identity
(sphere), a definite rejection, or inconclusive.  On the uniform full
theta circle the least squares decouples, so the fit is two projections,
A = diag(lambda, lambda, mu), and the structure check measures how
orthogonal the circle's columns cos, sin and 1 are, the premise of that
decoupling.

The companion machinery verifies the algebra that makes the rejection a
theorem rather than an observation: residuals of the reduced eigen-system,
the derivative relation it implies, and a scan certificate showing the
closure coefficients for distinct eigenvalues never vanish simultaneously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .beltrami import laplacian_profile_factors
from .geometry import (
    DEFAULT_TOL_PARAB,
    ProfileCurve,
    RegularJets,
    grid_rows,
    radii_sum_jet,
    theta_circle,
)

VERDICT_NULL = "NullType"
VERDICT_SPHERE = "SphereType"
VERDICT_NOT = "NotCoordinateFiniteType"
VERDICT_INCONCLUSIVE = "Inconclusive"

DEFAULT_TOL_FIT = 1e-6
# (n_s, n_theta) of a fit's grid.
DEFAULT_GRID = (32, 32)
# Range of lambda and of mu, and lattice step, of `contradiction_scan`.
DEFAULT_SCAN_RANGE = (-10.0, 10.0)
DEFAULT_SCAN_STEP = 0.25
# A fit whose relative residual reaches this admits no constant matrix.
TOL_REJECT = 1e-2
# Bound on the theta circle's measured cross sums (`structure_check`).
DEFAULT_TOL_STRUCT = 1e-8


@dataclass(frozen=True, eq=False)
class FitReport:
    """A fit and its verdict. `matrix` is diag(lam, lam, mu), with exact
    zeros off the diagonal (see `fit_columns`); the theta circle it
    assumes is measured by `structure_check`. On a degenerate sample set
    (under 9 points or rank under 3) no matrix is fitted: `matrix`,
    `rel_residual`, `lam` and `mu` are None, and so are `sup_lap` and
    `sup_position` when there are no points at all."""

    matrix: Optional[np.ndarray]
    rel_residual: Optional[float]
    lam: Optional[float]
    mu: Optional[float]
    verdict: str
    n_points: int
    rows_excluded: int
    rank: int
    sup_lap: Optional[float]
    sup_position: Optional[float]
    grid: tuple[int, int]
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "A": None if self.matrix is None else self.matrix.tolist(),
            "rel_residual": self.rel_residual,
            "lambda": self.lam,
            "mu": self.mu,
            "verdict": self.verdict,
            "n_points": self.n_points,
            "rows_excluded": self.rows_excluded,
            "rank": self.rank,
            "sup_lap": self.sup_lap,
            "sup_position": self.sup_position,
            "grid": list(self.grid),
            "note": self.note,
        }


def fit_columns(
    f: np.ndarray,
    g: np.ndarray,
    radial: np.ndarray,
    axial: np.ndarray,
    grid: tuple[int, int],
    rows_excluded: int = 0,
    tol_fit: float = DEFAULT_TOL_FIT,
) -> FitReport:
    """The fit of A over the grid rows with profile columns f, g, radial
    and axial, each repeated around the circle ``theta_circle(n_theta)``,
    ``n_theta = grid[1]``, then the verdict.

    Point (s_i, theta_j) has X = (f_i cos_j, f_i sin_j, g_i) and
    B = (radial_i cos_j, radial_i sin_j, axial_i).  On a uniform full
    circle sum cos = sum sin = sum cos sin = 0 and sum cos^2 = sum sin^2 =
    n/2, so the least squares for B = X A^T decouples into two projections:
    A = diag(lambda, lambda, mu) with lambda = <radial, f>/<f, f> and
    mu = <axial, g>/<g, g>.  The singular values of X are |f| sqrt(n/2),
    twice, and |g| sqrt(n); ``rank`` counts those above
    max(n_points, 3) * eps times the largest, and no division happens
    unless all three count.  The residual and the norm of B are grid
    norms, sqrt(n * sum over rows), as cos^2 + sin^2 = 1 at every theta.
    """
    n_theta = grid[1]
    n_points = len(f) * n_theta
    ff, gg = float(f @ f), float(g @ g)
    singular = (math.sqrt(ff * n_theta / 2),) * 2 + (math.sqrt(gg * n_theta),)
    cut = max(n_points, 3) * np.finfo(float).eps * max(singular)
    rank = int(sum(value > cut for value in singular))
    sup_lap = sup_position = None
    if len(f):
        sup_position = float(np.max(np.hypot(f, g)))
        sup_lap = float(np.max(np.hypot(radial, axial)))
    A = rel = lam = mu = None
    note = ""
    if n_points < 9 or rank < 3:
        verdict = VERDICT_INCONCLUSIVE
        note = f"degenerate sample set: {n_points} points, rank {rank}"
    else:
        lam, mu = float(radial @ f) / ff, float(axial @ g) / gg
        A = np.diag([lam, lam, mu])
        dr, da = radial - lam * f, axial - mu * g
        res = math.sqrt(n_theta * float(dr @ dr + da @ da))
        b_norm = math.sqrt(n_theta * float(radial @ radial + axial @ axial))
        rel = res / b_norm if b_norm > 1e-14 else res
        if sup_lap <= tol_fit * sup_position and max(abs(lam), abs(mu)) <= tol_fit:
            verdict = VERDICT_NULL
        elif max(abs(lam - 2.0), abs(mu - 2.0)) <= tol_fit and rel <= tol_fit:
            verdict = VERDICT_SPHERE
        elif rel >= TOL_REJECT:
            verdict = VERDICT_NOT
        else:
            verdict = VERDICT_INCONCLUSIVE
    return FitReport(
        matrix=A,
        rel_residual=rel,
        lam=lam,
        mu=mu,
        verdict=verdict,
        n_points=n_points,
        rows_excluded=rows_excluded,
        rank=rank,
        sup_lap=sup_lap,
        sup_position=sup_position,
        grid=grid,
        note=note,
    )


def fit_matrix(
    p: ProfileCurve,
    n_s: int = DEFAULT_GRID[0],
    n_theta: int = DEFAULT_GRID[1],
    tol_parab: float = DEFAULT_TOL_PARAB,
    tol_fit: float = DEFAULT_TOL_FIT,
    jets: Optional[RegularJets] = None,
) -> FitReport:
    """Fit the best constant matrix over an n_s x n_theta grid and classify:
    the rows of `grid_rows`, their factors from `laplacian_profile_factors`
    and the two projections of `fit_columns`, so the grid samples are never
    built.  ``jets`` are passed on to `grid_rows`.
    """
    jets, excluded = grid_rows(p, n_s, tol_parab, jets)
    radial, axial = laplacian_profile_factors(jets)
    return fit_columns(jets.f.v0, jets.g.v0, radial, axial, (n_s, n_theta), excluded, tol_fit)


@dataclass(frozen=True)
class StructureCheck:
    offdiag_max: Optional[float]
    diag_split: Optional[float]
    tol_struct: float

    @property
    def ok(self) -> bool:
        """False when no matrix was fitted (both values None)."""
        return (
            self.offdiag_max is not None
            and self.offdiag_max <= self.tol_struct
            and self.diag_split <= self.tol_struct
        )

    def to_dict(self) -> dict:
        # Shallow: every field is a number or None.
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "ok": self.ok}


def _circle_structure(n_theta: int) -> tuple[float, float]:
    """(offdiag_max, diag_split) of ``theta_circle(n_theta)``: the largest
    absolute correlation between the columns cos, sin and 1, such as
    |sum cos| / sqrt(n sum cos^2), and |sum cos^2 - sum sin^2| / (n/2)."""
    thetas = theta_circle(n_theta)
    cos, sin = np.cos(thetas), np.sin(thetas)
    cc, ss = float(cos @ cos), float(sin @ sin)
    offdiag = max(
        abs(float(np.sum(cos))) / math.sqrt(n_theta * cc),
        abs(float(np.sum(sin))) / math.sqrt(n_theta * ss),
        abs(float(cos @ sin)) / math.sqrt(cc * ss),
    )
    return offdiag, abs(cc - ss) / (0.5 * n_theta)


def structure_check(report: FitReport, tol_struct: float = DEFAULT_TOL_STRUCT) -> StructureCheck:
    """Orthogonality of the fit's theta circle, ``theta_circle(n_theta)``
    with ``n_theta = report.grid[1]``, the premise of its two projections.

    `offdiag_max` is the largest absolute correlation between the circle's
    columns cos, sin and 1, and `diag_split` is
    |sum cos^2 - sum sin^2| / (n_theta/2); on a uniform full circle both
    are rounding noise, for any revolution surface, finite type or not.
    They depend on ``n_theta`` alone, so they are measured here rather than
    in the fit, and only when a matrix was fitted: otherwise both are None.
    """
    offdiag = split = None
    if report.matrix is not None:
        offdiag, split = _circle_structure(report.grid[1])
    return StructureCheck(offdiag_max=offdiag, diag_split=split, tol_struct=tol_struct)


_EIGEN_RESIDUALS = ("factor", "quotient", "rate")


def eigen_system_residuals(
    jets: RegularJets, lam: float, mu: float
) -> tuple[Optional[float], dict, dict]:
    """Residuals of the reduced eigen-system at fixed (lam, mu), one per
    point of ``jets``:

    factor:   radial = lam*f and axial = mu*g
    quotient: R = lam*f*sin(phi) - mu*g*cos(phi)
    rate:     R' = -phi'*(lam*f*cos(phi) + mu*g*sin(phi))

    Returns the largest of their maxima, the details ``lambda``, ``mu``
    and each residual's maximum, and the columns ``s``, ``factor``,
    ``quotient`` and ``rate``; with no points the maxima are None and the
    columns empty.
    """
    details = {"lambda": lam, "mu": mu, **dict.fromkeys(_EIGEN_RESIDUALS)}
    if not len(jets):
        return None, details, {}
    fj, gj = jets.f, jets.g
    R, dR = radii_sum_jet(jets)
    radial, axial = laplacian_profile_factors(jets)
    sin_phi, cos_phi = jets.sin_phi, jets.cos_phi
    residuals = (
        np.maximum(np.abs(radial - lam * fj.v0), np.abs(axial - mu * gj.v0)),
        np.abs(R - (lam * fj.v0 * sin_phi - mu * gj.v0 * cos_phi)),
        np.abs(dR + jets.dphi * (lam * fj.v0 * cos_phi + mu * gj.v0 * sin_phi)),
    )
    details.update(zip(_EIGEN_RESIDUALS, (float(np.max(r)) for r in residuals)))
    worst = max(details[name] for name in _EIGEN_RESIDUALS)
    return worst, details, {"s": jets.s, **dict(zip(_EIGEN_RESIDUALS, residuals))}


def radius_rate_defect(
    jets: RegularJets, lam: float, mu: float
) -> tuple[Optional[float], dict, dict]:
    """Defect of R' = ((lam - mu)/2) sin(phi) cos(phi) at each point of
    ``jets``: the worst defect, the details ``lambda``, ``mu`` and
    ``max_defect``, and the columns ``s`` and ``defect``; with no points
    the defect is None and the columns empty.

    The relation follows from the eigen-system by differentiation, so it is
    only meaningful where those residuals are small.
    """
    details = {"lambda": lam, "mu": mu, "max_defect": None}
    if not len(jets):
        return None, details, {}
    _, dR = radii_sum_jet(jets)
    defect = np.abs(dR - (0.5 * lam - 0.5 * mu) * jets.sin_phi * jets.cos_phi)
    worst = details["max_defect"] = float(np.max(defect))
    return worst, details, {"s": jets.s, "defect": defect}


def quartic_coefficients(lam, mu) -> tuple:
    """(c4, c2, c0) of the eliminated closure equation
    c4 sin^4(phi) + c2 sin^2(phi) + c0 = 0, for floats or arrays."""
    d = lam - mu
    c4 = lam * d * d
    c2 = d * (lam * mu - lam * lam + 5.0 * lam + mu - 2.0)
    c0 = (lam + mu) * (mu - 3.0 * lam + 4.0)
    return c4, c2, c0


# The closure coefficients have no common zero off the diagonal: with the
# cofactors a, b, c below, a c4 + b c2 + c c0 = lam - mu identically, a
# certificate in the sense of the weak Nullstellensatz.  Each row is a
# monomial lam^i mu^j as (i, j), then its coefficients in 300 a, 300 b and
# 300 c.
_COFACTORS = (
    ((1, 1), (-110, -110, -66)),
    ((1, 0), (-61, -61, 157)),
    ((0, 2), (66, 66, 66)),
    ((0, 1), (591, 239, -157)),
    ((0, 0), (626, -150, 0)),
)
# Lattice points per array pass of the scan, so each temporary array holds
# about 32 KB.
BLOCK_CELLS = 4096
# Work budget of one scan: at most this many lattice points, counted as
# (span / step + 1) per axis and multiplied, which also bounds the cells.
# A box of one row keeps its axis's points in memory, 8 bytes each, and a
# byte each while `_axis` checks them, so a scan at the bound peaks at
# about 0.2 GiB (174 MiB RSS measured on the row (0, 0) x (0, 838860) at
# step 0.05); a square box at the bound takes about 0.4 s where the
# lattice pass skips nothing (4095^2 points on [20, 40]^2, 0.35 to 0.38 s
# measured on a 2-core x86-64 host) and about 0.01 s on [-10, 10]^2.
MAX_SCAN_POINTS = 2**24
# The lattice pass skips points only on boxes within _CUT_REACH of the
# origin, where no coefficient can overflow, so a skipped point hides no
# overflow.  A sample of the lattice, every _SUB_STRIDE-th point on each
# axis or sparser and the points around the common zeros, gives the bound
# on the minimum that decides what is skipped.
_CUT_REACH = 1e100
_SUB_STRIDE = 16
# The only common zeros of (c4, c2, c0), (lam, mu) = (0, 0) and (2, 2).
_COMMON_ZEROS = (0.0, 2.0)


def _identity_holds() -> bool:
    """Whether a c4 + b c2 + c c0 = lam - mu holds for every (lam, mu).

    The difference 300 (a c4 + b c2 + c c0 - (lam - mu)) is evaluated at the
    integer points {0..5}^2, in one pass through `quartic_coefficients`.
    The check is exact as long as `quartic_coefficients` stays straight-line
    + - * code with integer constants and degree at most 3 in each
    variable: the cofactors have degree at most 2 in each, so the difference
    has degree at most 5 in each variable and is the zero polynomial when it
    vanishes on a 6 x 6 grid; and every intermediate value there is an
    integer of magnitude below 2**21, so no float operation rounds, in
    whatever order the matrix product sums.  No exact polynomial type or
    computer algebra is needed.
    """
    lam, mu = np.repeat(np.arange(6.0), 6), np.tile(np.arange(6.0), 6)
    monomials = np.array([lam**i * mu**j for (i, j), _ in _COFACTORS])
    cofactors = monomials.T @ np.array([row for _, row in _COFACTORS], dtype=float)
    residual = (cofactors * np.array(quartic_coefficients(lam, mu)).T).sum(axis=1)
    return not (residual - 300.0 * (lam - mu)).any()


def _bound_terms() -> list:
    """(i, j, u) for each monomial lam^i mu^j of the cofactors: u is the
    sum of the row's absolute coefficients over 300, rounded up to a float,
    so |a| + |b| + |c| <= sum of u |lam|^i |mu|^j."""
    return [(i, j, np.nextafter(sum(map(abs, row)) / 300, math.inf))
            for (i, j), row in _COFACTORS]


def _cell_bounds(l, m, gap: float):
    """A lower bound of max(|c4|, |c2|, |c0|) on each cell minus the strip
    |lam - mu| < gap; l and m are the largest |lam| and |mu| of each cell.

    Off the strip |lam - mu| >= gap, and |a| + |b| + |c| <= U, the sum of
    u l^i m^j over `_bound_terms`, so the identity gives
    gap <= U max(|c4|, |c2|, |c0|).  U sums non-negative terms with at most
    three roundings to nearest in each and four in the sum, each off by a
    relative 2**-53 at most, so widening it by a relative 2**-48 bounds the
    exact sum; the constant term keeps U above 2, so an underflow in the
    others stays far inside that widening.  nextafter takes the rounded
    quotient below gap / U.  Each term of U is a positive constant times
    l^i m^j and each rounded operation here is monotone, so the cell with
    the largest l and m has the least bound, bit for bit, and its U
    overflows whenever another cell's does.
    """
    U = sum(u * l**i * m**j for i, j, u in _bound_terms())
    return np.nextafter(gap / (U * (1.0 + 2.0**-48)), 0.0)


@dataclass(frozen=True)
class ScanCertificate:
    """Machine-readable certificate from the contradiction scan."""

    lam_range: tuple[float, float]
    mu_range: tuple[float, float]
    step: float
    points_scanned: int
    points_skipped_diagonal: int
    min_max_coefficient: Optional[float]
    argmin: Optional[tuple[float, float]]
    argmin_coefficients: Optional[tuple[float, float, float]]
    cells_examined: int
    cell_failures: int
    cells_certified: bool
    certified_lower_bound: Optional[float]
    note: str = ""

    def to_dict(self) -> dict:
        # Shallow: every field is a number, a tuple of numbers, a string or None.
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _axis(name: str, lo: float, hi: float, step: float):
    """(points, cells) of one axis: the points lo + i*step for i up to
    (hi - lo)/step plus a millionth, and the number of cells between the
    edges lo, the later points more than a millionth of a step below hi,
    and hi; a range that is one point has none.  Raises ValueError when the
    step is so far below the range's float spacing that points coincide."""
    x = (hi - lo) / step
    points = np.arange(math.floor(x + 1e-6) + 1, dtype=float)
    points *= step
    points += lo
    if not (points[1:] > points[:-1]).all():
        raise ValueError(f"step {step!r} is below the float spacing of {name}: "
                         f"its lattice points coincide")
    cells = 0 if hi == lo else 1 + int(np.searchsorted(points[1 : math.ceil(x - 1e-6)], hi))
    return points, cells


def _max_coefficients(lam, mu):
    """max(|c4|, |c2|, |c0|) at each point, and (c4, c2, c0)."""
    coeffs = quartic_coefficients(lam, mu)
    return np.maximum(np.maximum(np.abs(coeffs[0]), np.abs(coeffs[1])), np.abs(coeffs[2])), coeffs


def _sample(axis: np.ndarray) -> np.ndarray:
    """Every s-th point of a lattice axis, s at least _SUB_STRIDE and large
    enough that at most sqrt(BLOCK_CELLS) of them are kept, and the points
    next to 0 and 2, the coordinates of the common zeros."""
    n = axis.size
    picks = list(range(0, n, max(_SUB_STRIDE, -(-n // math.isqrt(BLOCK_CELLS)))))
    for i in np.searchsorted(axis, _COMMON_ZEROS).tolist():
        picks += (max(i - 1, 0), min(i, n - 1), min(i + 1, n - 1))
    return axis[picks]


def _upper_bound(lams: np.ndarray, mus: np.ndarray, gap: float) -> float:
    """The least max-coefficient over the off-strip points of the sampled
    lattice `_sample(lams)` x `_sample(mus)`, or inf when all of them lie on
    the strip |lam - mu| < gap.

    Its least value is a lattice point's, from the same
    `quartic_coefficients`, so it lies at or above the lattice minimum, bit
    for bit.  The sample takes in the points around the common zeros,
    because the minimum tends to lie next to one when the box holds it,
    and the lower the bound, the fewer points the windows keep.
    """
    lam, mu = _sample(lams)[:, None], _sample(mus)
    m = np.where(np.abs(lam - mu) >= gap, _max_coefficients(lam, mu)[0], math.inf)
    return float(m.min())


def _window_hint(lam: np.ndarray, mus: np.ndarray, ub: float, gap: float):
    """Index ranges [lo, hi) of mus, one per row lam: mu within a little
    more than max(sqrt(ub / |lam|), gap) of lam, where |c4| = |lam| (lam -
    mu)^2 could still be at most ub or the point on the strip."""
    # Only a hint, which `_windows` checks, so an overflow, a division by
    # zero or 0 / 0 here can only widen, narrow or misplace a window.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        half = 1.01 * np.maximum(np.sqrt(ub / np.abs(lam)), gap)
        return np.searchsorted(mus, lam - half), np.searchsorted(mus, lam + half, "right")


def _windows(lam: np.ndarray, mus: np.ndarray, ub: float, gap: float):
    """Index ranges [lo, hi) of mus, one per row lam, that hold every point
    of the row on the strip |lam - mu| < gap or with |c4| <= ub.

    c4 = (lam (lam - mu)) (lam - mu), and each rounding is monotone, so
    along a row |lam - mu| and |c4| never decrease moving away from lam.
    The first point past each end of the hint is checked: when it is off
    the strip on that end's side of lam and its |c4|, from
    `quartic_coefficients` itself, exceeds ub, no point beyond it is on the
    strip or reaches ub.  Otherwise the window runs to that end of the row.
    So at most two points of a row are checked; with ub = inf every hint,
    and so every window, spans its whole row.
    """
    n = mus.size
    lo, hi = _window_hint(lam, mus, ub, gap)
    left, right = np.flatnonzero(lo > 0), np.flatnonzero(hi < n)
    row = np.concatenate((lam[left], lam[right]))
    mu = np.concatenate((mus[lo[left] - 1], mus[hi[right]]))
    d = row - mu
    far = np.abs(quartic_coefficients(row, mu)[0]) > ub
    k = left.size
    lo[left[~(far[:k] & (d[:k] >= gap))]] = 0
    hi[right[~(far[k:] & (d[k:] <= -gap))]] = n
    return lo, hi


def _pass_minimum(lam: np.ndarray, mu: np.ndarray, gap: float):
    """(points off the strip, best) over the points (lam, mu) of one pass:
    best is (max-coefficient, argmin, coefficients) of its first minimum, or
    None when every point is on the strip |lam - mu| < gap."""
    off = np.abs(lam - mu) >= gap
    lam, mu = lam[off], mu[off]
    if not lam.size:
        return 0, None
    m, coeffs = _max_coefficients(lam, mu)
    k = int(np.argmin(m))
    return lam.size, (float(m[k]), (float(lam[k]), float(mu[k])), tuple(float(c[k]) for c in coeffs))


def _lattice_minimum(lams: np.ndarray, mus: np.ndarray, gap: float):
    """(points scanned, best) over the lattice lams x mus minus the strip
    |lam - mu| < gap: best is (max-coefficient, argmin, coefficients) of
    the first minimum in row-major order, or None when every point is on
    the strip.

    `_upper_bound` bounds the minimum by ub, and only the points inside the
    `_windows` of each row are evaluated: every point outside is off the
    strip with |c4| > ub, so it cannot be the minimum or tie with it, and
    counts as scanned.  A box that reaches past _CUT_REACH has ub = inf, so
    every window is its whole row and an overflow anywhere still raises.
    The windows are built for spans of BLOCK_CELLS / 4 rows, so the check
    of their ends takes at most BLOCK_CELLS / 2 points and its temporaries
    stay below those of a pass.  The window points of a span, in row-major
    order, are gathered in passes of at most BLOCK_CELLS consecutive points,
    so one row's window may be split across passes.  Each pass holds later
    points than the passes before it, so a later pass replaces best only
    when its minimum is strictly lower.
    """
    n = mus.size
    reach = max(abs(lams[0]), abs(lams[-1]), abs(mus[0]), abs(mus[-1]))
    ub = _upper_bound(lams, mus, gap) if reach <= _CUT_REACH else math.inf
    rows = max(1, BLOCK_CELLS // 4)
    best, scanned = None, 0
    for first in range(0, lams.size, rows):
        span = lams[first : first + rows]
        lo, hi = _windows(span, mus, ub, gap)
        counts = hi - lo
        ends = np.cumsum(counts)
        total = int(ends[-1])
        scanned += span.size * n - total
        # Window point p of row i, counted across the span, is mus[p + shift[i]].
        shift = hi - ends
        for a in range(0, total, BLOCK_CELLS):
            b = min(a + BLOCK_CELLS, total)
            # Rows r to t hold points [a, b); the first and last are clipped to them.
            r, t = np.searchsorted(ends, (a, b - 1), "right").tolist()
            kept = counts[r : t + 1].copy()
            kept[0] = ends[r] - a
            kept[-1] -= ends[t] - b
            count, found = _pass_minimum(np.repeat(span[r : t + 1], kept),
                                         mus[np.arange(a, b) + np.repeat(shift[r : t + 1], kept)],
                                         gap)
            scanned += count
            if found is not None and (best is None or found[0] < best[0]):
                best = found
    return scanned, best


# An overflow would hide the lattice minimum or leave an infinite U, so it
# raises rather than report an unproved cell.  U has degree 2 and the
# lattice coefficients degree 3: neither overflows on boxes within about
# 1e100 of the origin, and U does once a range reaches past about 7e153.
@np.errstate(over="raise", invalid="raise")
def contradiction_scan(
    lam_range: tuple[float, float] = DEFAULT_SCAN_RANGE,
    mu_range: tuple[float, float] = DEFAULT_SCAN_RANGE,
    step: float = DEFAULT_SCAN_STEP,
) -> ScanCertificate:
    """Scan (lam, mu) pairs with lam != mu and certify that the closure
    coefficients (c4, c2, c0) never vanish simultaneously.

    The lattice scan reports the minimum over points of
    max(|c4|, |c2|, |c0|) with its first argmin in row-major order; it
    evaluates only the points whose |c4| can reach the minimum
    (`_lattice_minimum`), in passes of at most BLOCK_CELLS points.  The cofactor
    identity a c4 + b c2 + c c0 = lam - mu (see `_COFACTORS`) then turns
    the finite scan into a certificate on the whole box minus the diagonal
    strip |lam - mu| < step/2, split into cells with the lattice points
    inside as edges (`cells_examined` counts them).  `_cell_bounds` is
    least on the cell at the box's far corner, so its one bound there is
    `certified_lower_bound` on every cell.  `cells_certified` holds when
    the identity checks exactly (`_identity_holds`), the box has cells and
    that bound is positive; otherwise every cell fails.  A box without
    area (a range that is one point) has no cells and is never certified.

    The quartic follows from the closure system only for mu != 0: the
    elimination drops an overall factor mu, so the certificate says nothing
    about the line mu = 0.  Raises ValueError on an empty or non-finite
    range and on a step that is not finite and positive, leaves more than
    MAX_SCAN_POINTS lattice points or is so far below a range's float
    spacing that lattice points coincide, OverflowError when their number
    overflows, and FloatingPointError when the coefficients or U overflow.
    """
    for name, values in (("lam_range", lam_range), ("mu_range", mu_range), ("step", (step,))):
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{name} must be finite")
    if lam_range[1] < lam_range[0] or mu_range[1] < mu_range[0]:
        raise ValueError("empty scan range")
    if step <= 0.0:
        raise ValueError("step must be positive")
    points = ((lam_range[1] - lam_range[0]) / step + 1) * ((mu_range[1] - mu_range[0]) / step + 1)
    if math.isinf(points):
        raise OverflowError("the number of lattice points overflows")
    if points > MAX_SCAN_POINTS:
        raise ValueError(f"the box has {points:.3g} lattice points, over the work budget "
                         f"of {MAX_SCAN_POINTS}")
    lams, lam_cells = _axis("lam_range", *lam_range, step)
    mus, mu_cells = _axis("mu_range", *mu_range, step)
    gap = 0.5 * step
    scanned, best = _lattice_minimum(lams, mus, gap)
    min_max, argmin, argmin_coeffs = best or (None, None, None)
    cells = lam_cells * mu_cells if scanned else 0
    lowest = math.inf
    if cells:
        reach = (np.array([max(map(abs, r))]) for r in (lam_range, mu_range))
        lowest = float(_cell_bounds(*reach, gap)[0])
        if not _identity_holds():
            lowest = math.inf
    # One bound covers every cell: all of them hold or all fail.
    cell_failures = 0 if 0.0 < lowest < math.inf else cells
    note = ""
    if not scanned:
        note = "all lattice points fell on the diagonal"
    elif not cells:
        note = "the box has no area, so no cell was certified"
    return ScanCertificate(
        lam_range=lam_range,
        mu_range=mu_range,
        step=step,
        points_scanned=scanned,
        points_skipped_diagonal=lams.size * mus.size - scanned,
        min_max_coefficient=min_max,
        argmin=argmin,
        argmin_coefficients=argmin_coeffs,
        cells_examined=cells,
        cell_failures=cell_failures,
        cells_certified=cells > 0 and cell_failures == 0,
        certified_lower_bound=lowest if math.isfinite(lowest) else None,
        note=note,
    )
