"""Coordinate finite-type analysis: does Laplacian(x) = A x hold?

The decision pipeline fits a constant 3x3 matrix A over a grid by least
squares, checks the structural block pattern forced by uniform full-circle
theta sampling, and classifies: the null matrix (catenoid), twice the
identity (sphere), a definite rejection, or inconclusive.

The companion machinery verifies the algebra that makes the rejection a
theorem rather than an observation: residuals of the reduced eigen-system,
the derivative relation it implies, and a scan certificate showing the
closure coefficients for distinct eigenvalues never vanish simultaneously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .beltrami import laplacian_profile_factors
from .geometry import (
    DEFAULT_TOL_PARAB,
    ProfileCurve,
    grid_rows,
    radii_sum_jet,
    require_regular,
    theta_circle,
)

VERDICT_NULL = "NullType"
VERDICT_SPHERE = "SphereType"
VERDICT_NOT = "NotCoordinateFiniteType"
VERDICT_INCONCLUSIVE = "Inconclusive"

DEFAULT_TOL_FIT = 1e-6
DEFAULT_TOL_REJECT = 1e-2
DEFAULT_TOL_STRUCT = 1e-8


@dataclass(frozen=True, eq=False)
class FitReport:
    matrix: np.ndarray
    rel_residual: float
    offdiag_max: float
    diag_split: float
    lam: float
    mu: float
    verdict: str
    n_points: int
    rows_excluded: int
    rank: int
    sup_lap: float
    sup_position: float
    grid: tuple[int, int]
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "A": [[float(v) for v in row] for row in self.matrix],
            "rel_residual": self.rel_residual,
            "structure": {
                "offdiag_max": self.offdiag_max,
                "diag_split": self.diag_split,
            },
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


def _structure(A: np.ndarray) -> tuple[float, float]:
    offdiag = max(
        abs(A[0, 1]), abs(A[1, 0]), abs(A[0, 2]), abs(A[2, 0]), abs(A[1, 2]), abs(A[2, 1])
    )
    return float(offdiag), float(abs(A[0, 0] - A[1, 1]))


def fit_from_samples(
    X: np.ndarray,
    B: np.ndarray,
    grid: tuple[int, int] = (0, 0),
    rows_excluded: int = 0,
    tol_fit: float = DEFAULT_TOL_FIT,
    tol_reject: float = DEFAULT_TOL_REJECT,
) -> FitReport:
    """Least-squares fit of A from position samples X and Laplacian samples B
    (both n x 3, one row per grid point); three independent row problems
    solved through one orthogonal factorization."""
    n = X.shape[0]
    sup_lap = float(np.max(np.linalg.norm(B, axis=1))) if n else 0.0
    sup_pos = float(np.max(np.linalg.norm(X, axis=1))) if n else 0.0
    rank = int(np.linalg.matrix_rank(X)) if n else 0
    if n < 9 or rank < 3:
        return FitReport(
            matrix=np.full((3, 3), np.nan),
            rel_residual=math.nan,
            offdiag_max=math.nan,
            diag_split=math.nan,
            lam=math.nan,
            mu=math.nan,
            verdict=VERDICT_INCONCLUSIVE,
            n_points=n,
            rows_excluded=rows_excluded,
            rank=rank,
            sup_lap=sup_lap,
            sup_position=sup_pos,
            grid=grid,
            note=f"degenerate sample set: {n} points, rank {rank}",
        )
    At, *_ = np.linalg.lstsq(X, B, rcond=None)
    A = At.T
    res = float(np.sqrt(np.sum((B - X @ At) ** 2)))
    b_norm = float(np.sqrt(np.sum(B**2)))
    rel = res / b_norm if b_norm > 1e-14 else res
    offdiag, split = _structure(A)
    lam = 0.5 * float(A[0, 0] + A[1, 1])
    mu = float(A[2, 2])
    if sup_lap <= tol_fit * sup_pos and float(np.max(np.abs(A))) <= tol_fit:
        verdict = VERDICT_NULL
    elif float(np.max(np.abs(A - 2.0 * np.eye(3)))) <= tol_fit and rel <= tol_fit:
        verdict = VERDICT_SPHERE
    elif rel >= tol_reject:
        verdict = VERDICT_NOT
    else:
        verdict = VERDICT_INCONCLUSIVE
    return FitReport(
        matrix=A,
        rel_residual=rel,
        offdiag_max=offdiag,
        diag_split=split,
        lam=lam,
        mu=mu,
        verdict=verdict,
        n_points=n,
        rows_excluded=rows_excluded,
        rank=rank,
        sup_lap=sup_lap,
        sup_position=sup_pos,
        grid=grid,
    )


def fit_matrix(
    p: ProfileCurve,
    n_s: int = 32,
    n_theta: int = 32,
    tol_parab: float = DEFAULT_TOL_PARAB,
    tol_fit: float = DEFAULT_TOL_FIT,
    tol_reject: float = DEFAULT_TOL_REJECT,
) -> FitReport:
    """Fit the best constant matrix over an n_s x n_theta grid and classify.
    X and B are filled in place from per-row factors times cos/sin(theta)."""
    rows, excluded = grid_rows(p, n_s, tol_parab)
    thetas = np.array(theta_circle(n_theta))
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    X = np.empty((len(rows) * n_theta, 3))
    B = np.empty_like(X)
    if rows:
        s = np.array(rows)[:, None]
        fj, gj, _ = require_regular(p, s, tol_parab)
        radial, axial = laplacian_profile_factors(p, s, tol_parab)
        for out, rad, ax in ((X, fj.v0, gj.v0), (B, radial, axial)):
            grid = out.reshape(len(rows), n_theta, 3)
            np.multiply(rad, cos_t, out=grid[:, :, 0])
            np.multiply(rad, sin_t, out=grid[:, :, 1])
            grid[:, :, 2] = ax
    return fit_from_samples(
        X,
        B,
        grid=(n_s, n_theta),
        rows_excluded=excluded,
        tol_fit=tol_fit,
        tol_reject=tol_reject,
    )


@dataclass(frozen=True)
class StructureCheck:
    offdiag_max: float
    diag_split: float
    tol_struct: float

    @property
    def ok(self) -> bool:
        return self.offdiag_max <= self.tol_struct and self.diag_split <= self.tol_struct

    def to_dict(self) -> dict:
        return {
            "offdiag_max": self.offdiag_max,
            "diag_split": self.diag_split,
            "tol_struct": self.tol_struct,
            "ok": self.ok,
        }


def structure_check(report: FitReport, tol_struct: float = DEFAULT_TOL_STRUCT) -> StructureCheck:
    """Block-diagonality of the fitted matrix.

    On uniform full-circle theta grids the least-squares normal equations
    decouple the harmonics, so off-diagonal entries and the a11 - a22 split
    must vanish for any revolution surface, finite type or not.
    """
    return StructureCheck(
        offdiag_max=report.offdiag_max,
        diag_split=report.diag_split,
        tol_struct=tol_struct,
    )


@dataclass(frozen=True)
class EigenSystemResiduals:
    """Max residuals of the reduced eigen-system at fixed (lam, mu):

    factor:   radial = lam*f and axial = mu*g
    quotient: R = lam*f*sin(phi) - mu*g*cos(phi)
    rate:     R' = -phi'*(lam*f*cos(phi) + mu*g*sin(phi))
    """

    factor: float
    quotient: float
    rate: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.factor, self.quotient, self.rate)

    def to_dict(self) -> dict:
        return {"factor": self.factor, "quotient": self.quotient, "rate": self.rate}


def eigen_system_residuals(
    p: ProfileCurve,
    lam: float,
    mu: float,
    s_values: Sequence[float],
    tol_parab: float = DEFAULT_TOL_PARAB,
) -> EigenSystemResiduals:
    """Raises ValueError on an empty sample set."""
    s = np.asarray(s_values, dtype=float)
    fj, gj, dphi = require_regular(p, s, tol_parab)
    radial, axial = laplacian_profile_factors(p, s, tol_parab)
    R, dR = radii_sum_jet(p, s, tol_parab)
    sin_phi, cos_phi = gj.v1, fj.v1
    factor = np.maximum(np.abs(radial - lam * fj.v0), np.abs(axial - mu * gj.v0))
    quotient = np.abs(R - (lam * fj.v0 * sin_phi - mu * gj.v0 * cos_phi))
    rate = np.abs(dR + dphi * (lam * fj.v0 * cos_phi + mu * gj.v0 * sin_phi))
    return EigenSystemResiduals(
        factor=float(np.max(factor)), quotient=float(np.max(quotient)), rate=float(np.max(rate))
    )


def radius_rate_defect(
    p: ProfileCurve,
    lam: float,
    mu: float,
    s_values: Sequence[float],
    tol_parab: float = DEFAULT_TOL_PARAB,
) -> float:
    """Max defect of R' = ((lam - mu)/2) sin(phi) cos(phi) over the samples.

    The relation follows from the eigen-system by differentiation, so it is
    only meaningful where those residuals are small.  Raises ValueError on
    an empty sample set.
    """
    s = np.asarray(s_values, dtype=float)
    fj, gj, _ = require_regular(p, s, tol_parab)
    _, dR = radii_sum_jet(p, s, tol_parab)
    return float(np.max(np.abs(dR - 0.5 * (lam - mu) * gj.v1 * fj.v1)))


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
        return {
            "coeff_f": self.coeff_f,
            "coeff_g": self.coeff_g,
            "coeff_f_deriv": self.coeff_f_deriv,
            "coeff_g_deriv": self.coeff_g_deriv,
            "c4": self.c4,
            "c2": self.c2,
            "c0": self.c0,
        }


def quartic_coefficients(lam: float, mu: float) -> tuple[float, float, float]:
    """(c4, c2, c0) of the eliminated closure equation
    c4 sin^4(phi) + c2 sin^2(phi) + c0 = 0."""
    d = lam - mu
    c4 = lam * d * d
    c2 = d * (lam * mu - lam * lam + 5.0 * lam + mu - 2.0)
    c0 = (lam + mu) * (mu - 3.0 * lam + 4.0)
    return c4, c2, c0


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


# ---------------------------------------------------------------------------
# Interval arithmetic for the cell certificate.

def _imul(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(products), max(products)


def _iadd(a, b):
    return a[0] + b[0], a[1] + b[1]


def _isub(a, b):
    return a[0] - b[1], a[1] - b[0]


def _isquare(a: tuple[float, float]) -> tuple[float, float]:
    lo, hi = abs(a[0]), abs(a[1])
    upper = max(lo, hi) ** 2
    lower = 0.0 if a[0] <= 0.0 <= a[1] else min(lo, hi) ** 2
    return lower, upper


def _iscale(a, c: float):
    return _imul(a, (c, c))


def _excludes_zero(a: tuple[float, float]) -> bool:
    return a[0] > 0.0 or a[1] < 0.0


def _coeff_intervals(L, M, T):
    """Interval enclosures of (c4, c2, c0) for lam in L, mu in M and the
    difference lam - mu restricted to T."""
    c4 = _imul(L, _isquare(T))
    q = _iadd(
        _isub(_imul(L, M), _isquare(L)),
        _iadd(_iadd(_iscale(L, 5.0), M), (-2.0, -2.0)),
    )
    c2 = _imul(T, q)
    c0 = _imul(_iadd(L, M), _iadd(_isub(M, _iscale(L, 3.0)), (4.0, 4.0)))
    return c4, c2, c0


def _certify_cell(L, M, gap: float, depth: int, max_depth: int) -> tuple[int, int]:
    """Certify that (c4, c2, c0) has no common zero on (L x M) intersected
    with |lam - mu| >= gap.  Returns (cells examined, failures)."""
    examined, failures = 1, 0
    raw_lo, raw_hi = L[0] - M[1], L[1] - M[0]
    sides = []
    if raw_hi >= gap:
        sides.append((max(gap, raw_lo), raw_hi))
    if raw_lo <= -gap:
        sides.append((raw_lo, min(-gap, raw_hi)))
    for T in sides:
        c4, c2, c0 = _coeff_intervals(L, M, T)
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
    mu_zero_lambda: float
    mu_zero_min_residual: float
    mu_zero_contradiction: bool
    cells_examined: int
    cell_failures: int
    cells_certified: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "lam_range": list(self.lam_range),
            "mu_range": list(self.mu_range),
            "step": self.step,
            "points_scanned": self.points_scanned,
            "points_skipped_diagonal": self.points_skipped_diagonal,
            "min_max_coefficient": self.min_max_coefficient,
            "argmin": None if self.argmin is None else list(self.argmin),
            "argmin_coefficients": (
                None
                if self.argmin_coefficients is None
                else list(self.argmin_coefficients)
            ),
            "mu_zero_branch": {
                "lambda_forced": self.mu_zero_lambda,
                "min_abs_constraint": self.mu_zero_min_residual,
                "contradiction": self.mu_zero_contradiction,
            },
            "cells_examined": self.cells_examined,
            "cell_failures": self.cell_failures,
            "cells_certified": self.cells_certified,
            "note": self.note,
        }


def _lattice(lo: float, hi: float, step: float) -> list[float]:
    count = int(round((hi - lo) / step))
    return [lo + i * step for i in range(count + 1)]


def contradiction_scan(
    lam_range: tuple[float, float] = (-10.0, 10.0),
    mu_range: tuple[float, float] = (-10.0, 10.0),
    step: float = 0.25,
    phi_samples: int = 64,
    certify_cells: bool = True,
    max_depth: int = 24,
) -> ScanCertificate:
    """Scan (lam, mu) pairs with lam != mu and certify that the closure
    coefficients (c4, c2, c0) never vanish simultaneously.

    The lattice scan reports the minimum over points of
    max(|c4|, |c2|, |c0|) with its argmin.  An interval-arithmetic
    subdivision then converts the finite scan into a certificate on the
    whole box minus the diagonal strip |lam - mu| < step/2.  The mu = 0
    branch is checked separately: c4 = 0 forces lam = 0, and the remaining
    constraint lam*sin^2(phi) + 1 stays at 1, so it has no solution.
    """
    if lam_range[1] < lam_range[0] or mu_range[1] < mu_range[0]:
        raise ValueError("empty scan range")
    if step <= 0.0:
        raise ValueError("step must be positive")
    lams = _lattice(lam_range[0], lam_range[1], step)
    mus = _lattice(mu_range[0], mu_range[1], step)
    gap = 0.5 * step
    best: Optional[tuple[float, float, float]] = None
    best_coeffs: Optional[tuple[float, float, float]] = None
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
    # mu = 0 branch: with lam forced to 0 by c4 = 0, the surviving relation
    # reads lam*sin^2(phi) + 1 = 0, which cannot vanish.
    lam_forced = 0.0
    mu_zero_min = min(
        abs(lam_forced * math.sin(0.5 * math.pi * (j + 0.5) / phi_samples) ** 2 + 1.0)
        for j in range(phi_samples)
    )
    cells_examined = 0
    cell_failures = 0
    if certify_cells and scanned:
        for i in range(len(lams) - 1):
            for j in range(len(mus) - 1):
                e, f = _certify_cell(
                    (lams[i], lams[i + 1]),
                    (mus[j], mus[j + 1]),
                    gap,
                    0,
                    max_depth,
                )
                cells_examined += e
                cell_failures += f
    return ScanCertificate(
        lam_range=lam_range,
        mu_range=mu_range,
        step=step,
        points_scanned=scanned,
        points_skipped_diagonal=skipped,
        min_max_coefficient=None if best is None else best[0],
        argmin=None if best is None else (best[1], best[2]),
        argmin_coefficients=best_coeffs,
        mu_zero_lambda=lam_forced,
        mu_zero_min_residual=mu_zero_min,
        mu_zero_contradiction=mu_zero_min > 0.0,
        cells_examined=cells_examined,
        cell_failures=cell_failures,
        cells_certified=certify_cells and cell_failures == 0 and scanned > 0,
        note="" if scanned else "all lattice points fell on the diagonal",
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
        return {
            "max_factor_defect": self.max_factor_defect,
            "zero_set_mismatches": self.zero_set_mismatches,
            "n_samples": self.n_samples,
            "proportionality_factor": self.proportionality_factor,
        }


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
