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
from dataclasses import asdict, dataclass
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
DEFAULT_TOL_REJECT = 1e-2
DEFAULT_TOL_STRUCT = 1e-8


@dataclass(frozen=True, eq=False)
class FitReport:
    """A fit and its verdict. On a degenerate sample set (under 9 points or
    rank under 3) no matrix is fitted: `matrix`, `rel_residual`, the
    structure values, `lam` and `mu` are None, and so are `sup_lap` and
    `sup_position` when there are no points at all."""

    matrix: Optional[np.ndarray]
    rel_residual: Optional[float]
    offdiag_max: Optional[float]
    diag_split: Optional[float]
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


def _max_row_norm(M: np.ndarray) -> Optional[float]:
    return float(np.max(np.linalg.norm(M, axis=1))) if len(M) else None


def fit_from_samples(
    X: np.ndarray,
    B: np.ndarray,
    grid: tuple[int, int] = (0, 0),
    rows_excluded: int = 0,
    tol_fit: float = DEFAULT_TOL_FIT,
    tol_reject: float = DEFAULT_TOL_REJECT,
    n_points: Optional[int] = None,
    sup_lap: Optional[float] = None,
    sup_position: Optional[float] = None,
) -> FitReport:
    """Least-squares fit of A in B = X A^T, then the verdict.

    X and B are either raw samples (n x 3, one row per grid point) or a
    compressed pair KX, KB with X = Q KX and B = Q KB for one Q with
    orthonormal columns. Both give the same solution, residual, norm of B
    and singular values. A compressed pair has other rows, so it comes with
    the raw grid's point count and largest row norms of B and X; for raw
    samples these three are derived from X and B.
    """
    if n_points is None:
        n_points = X.shape[0]
        sup_lap, sup_position = _max_row_norm(B), _max_row_norm(X)
    rtol = max(n_points, 3) * np.finfo(float).eps
    rank = int(np.linalg.matrix_rank(X, rtol=rtol)) if n_points else 0
    if n_points < 9 or rank < 3:
        return FitReport(
            matrix=None,
            rel_residual=None,
            offdiag_max=None,
            diag_split=None,
            lam=None,
            mu=None,
            verdict=VERDICT_INCONCLUSIVE,
            n_points=n_points,
            rows_excluded=rows_excluded,
            rank=rank,
            sup_lap=sup_lap,
            sup_position=sup_position,
            grid=grid,
            note=f"degenerate sample set: {n_points} points, rank {rank}",
        )
    At, *_ = np.linalg.lstsq(X, B, rcond=None)
    A = At.T
    res = float(np.linalg.norm(B - X @ At))
    b_norm = float(np.linalg.norm(B))
    rel = res / b_norm if b_norm > 1e-14 else res
    offdiag, split = _structure(A)
    lam = 0.5 * float(A[0, 0] + A[1, 1])
    mu = float(A[2, 2])
    if sup_lap <= tol_fit * sup_position and float(np.max(np.abs(A))) <= tol_fit:
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
        n_points=n_points,
        rows_excluded=rows_excluded,
        rank=rank,
        sup_lap=sup_lap,
        sup_position=sup_position,
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

    The grid samples X and B are never built. Point (s_i, theta_j) has
    X = (f_i cos_j, f_i sin_j, g_i) and B = (radial_i cos_j, radial_i sin_j,
    axial_i), so every column is a Kronecker product of a profile column
    of P = [f, g, radial, axial] and a circle column of T = [cos, sin, 1].
    With thin QRs P = Q1 R1 and T = Q2 R2, X = (Q1 x Q2) KX and
    B = (Q1 x Q2) KB, where KX and KB are at most 12 x 3 columns of
    R1 x R2 and Q1 x Q2 has orthonormal columns; the fit solves that small
    problem in O(n_s + n_theta).
    """
    jets, excluded = grid_rows(p, n_s, tol_parab)
    thetas = np.array(theta_circle(n_theta))
    KX = KB = np.empty((0, 3))
    sup_lap = sup_position = None
    if len(jets):
        radial, axial = laplacian_profile_factors(jets)
        P = np.empty((len(jets), 4))
        for k, column in enumerate((jets.f.v0, jets.g.v0, radial, axial)):
            P[:, k] = column
        sup_position = float(np.max(np.hypot(P[:, 0], P[:, 1])))
        sup_lap = float(np.max(np.hypot(P[:, 2], P[:, 3])))
        T = np.column_stack((np.cos(thetas), np.sin(thetas), np.ones(n_theta)))
        # Column 3a + b of K is profile column a of R1 times circle column b of R2.
        K = np.kron(np.linalg.qr(P, mode="r"), np.linalg.qr(T, mode="r"))
        KX, KB = K[:, [0, 1, 5]], K[:, [6, 7, 11]]
    return fit_from_samples(
        KX,
        KB,
        grid=(n_s, n_theta),
        rows_excluded=excluded,
        tol_fit=tol_fit,
        tol_reject=tol_reject,
        n_points=len(jets) * n_theta,
        sup_lap=sup_lap,
        sup_position=sup_position,
    )


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
        return {**asdict(self), "ok": self.ok}


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


@dataclass(frozen=True, eq=False)
class EigenSystemResiduals:
    """Residuals of the reduced eigen-system at fixed (lam, mu), one entry
    per sample point:

    factor:   radial = lam*f and axial = mu*g
    quotient: R = lam*f*sin(phi) - mu*g*cos(phi)
    rate:     R' = -phi'*(lam*f*cos(phi) + mu*g*sin(phi))

    `as_tuple` and `to_dict` give their maxima, and raise ValueError on an
    empty sample set.
    """

    factor: np.ndarray
    quotient: np.ndarray
    rate: np.ndarray

    def as_tuple(self) -> tuple[float, float, float]:
        return tuple(float(np.max(r)) for r in (self.factor, self.quotient, self.rate))

    def to_dict(self) -> dict:
        return dict(zip(("factor", "quotient", "rate"), self.as_tuple()))


def eigen_system_residuals(jets: RegularJets, lam: float, mu: float) -> EigenSystemResiduals:
    """The eigen-system residuals at each point of ``jets``."""
    fj, gj = jets.f, jets.g
    radial, axial = laplacian_profile_factors(jets)
    R, dR = radii_sum_jet(jets)
    sin_phi, cos_phi = jets.sin_phi, jets.cos_phi
    return EigenSystemResiduals(
        factor=np.maximum(np.abs(radial - lam * fj.v0), np.abs(axial - mu * gj.v0)),
        quotient=np.abs(R - (lam * fj.v0 * sin_phi - mu * gj.v0 * cos_phi)),
        rate=np.abs(dR + jets.dphi * (lam * fj.v0 * cos_phi + mu * gj.v0 * sin_phi)),
    )


def radius_rate_defect(jets: RegularJets, lam: float, mu: float) -> np.ndarray:
    """Defect of R' = ((lam - mu)/2) sin(phi) cos(phi) at each sample point.

    The relation follows from the eigen-system by differentiation, so it is
    only meaningful where those residuals are small.
    """
    _, dR = radii_sum_jet(jets)
    return np.abs(dR - 0.5 * (lam - mu) * jets.sin_phi * jets.cos_phi)


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


def quartic_coefficients(lam, mu) -> tuple:
    """(c4, c2, c0) of the eliminated closure equation
    c4 sin^4(phi) + c2 sin^2(phi) + c0 = 0, for floats or arrays."""
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
# Interval arithmetic for the cell certificate.  An interval is a (lo, hi)
# pair whose bounds are floats or equal-shape arrays, one box per element.
# Every operation rounds to nearest and then widens each bound outward, so
# the enclosures hold under floating point.

# Subdivision depth at which an undecided side of a box counts as a failure.
MAX_DEPTH = 24
# Lattice points or cells per array pass of the scan.  A pass takes whole
# lambda rows, so each temporary array holds about 32 KB.
BLOCK_CELLS = 4096
# Work budget of one scan: at most this many lattice points, counted as
# (span / step + 1) per axis and multiplied, which also bounds the cells.
# A box of one row keeps its axis's points and cell edges in memory, about
# 40 bytes each, so the bound keeps a scan under about 0.7 GiB; a square
# box at the bound takes about 2 s (4095^2 points on [-10, 10]^2, measured
# on a 2-core x86-64 host).
MAX_SCAN_POINTS = 2**24


def _outward(lo, hi):
    """Widen (lo, hi) past the exact result of the one round-to-nearest
    operation that produced each bound: a bound moves by |bound| * 2**-52,
    at least one ulp, plus the smallest subnormal for results near zero.
    lo and hi are fresh results, and arrays are widened in place."""
    wl, wh = np.abs(lo), np.abs(hi)
    wl *= 2.0**-52
    wl += 5e-324
    wh *= 2.0**-52
    wh += 5e-324
    lo -= wl
    hi += wh
    return lo, hi


def _imul(a, b):
    p, q, r, s = a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]
    return _outward(
        np.minimum(np.minimum(p, q), np.minimum(r, s)),
        np.maximum(np.maximum(p, q), np.maximum(r, s)),
    )


def _iadd(a, b):
    return _outward(a[0] + b[0], a[1] + b[1])


def _isub(a, b):
    return _outward(a[0] - b[1], a[1] - b[0])


def _isquare(a):
    lo, hi = np.abs(a[0]), np.abs(a[1])
    lower, upper = _outward(np.minimum(lo, hi) ** 2, np.maximum(lo, hi) ** 2)
    return np.where((a[0] <= 0.0) & (0.0 <= a[1]), 0.0, np.maximum(lower, 0.0)), upper


def _iscale(a, c: float):
    """a times a positive constant c; rounding to nearest is monotone, so
    a[0] * c <= a[1] * c."""
    return _outward(a[0] * c, a[1] * c)


def _excludes_zero(a):
    return (a[0] > 0.0) | (a[1] < 0.0)


def _sides(L, M, gap: float):
    """(present, T) for each side of the diagonal strip |lam - mu| < gap:
    whether some point of the box L x M lies on that side, and an
    enclosure T of lam - mu there."""
    raw_lo, raw_hi = _isub(L, M)
    return (
        (raw_hi >= gap, (np.maximum(gap, raw_lo), raw_hi)),
        (raw_lo <= -gap, (raw_lo, np.minimum(-gap, raw_hi))),
    )


def _certify_cells(boxes: np.ndarray, gap: float) -> tuple[int, int]:
    """Certify that (c4, c2, c0) has no common zero on any box intersected
    with |lam - mu| >= gap; the columns of ``boxes`` are the boxes
    (lam_lo, lam_hi, mu_lo, mu_hi).

    Breadth first: each pass examines every box of one depth, and a box is
    halved along its longer side once per side of the diagonal strip on
    which no coefficient enclosure excludes zero.  Undecided sides at
    MAX_DEPTH count as failures.  Returns (boxes examined, failures).

    c0 does not depend on the side, and its enclosure excludes zero on
    about 99% of the boxes of a fine scan, so each pass encloses c0 on
    every box first and the sides, c4 and c2 only on the boxes where c0's
    enclosure holds zero (on every box once a bound or the gap reaches
    2**300, where they could overflow).  Each box gets the same enclosures
    and decision as when all three are enclosed everywhere.
    """
    examined = failures = 0
    for depth in range(MAX_DEPTH + 1):
        if not boxes.shape[1]:
            break
        examined += boxes.shape[1]
        L, M = boxes[:2], boxes[2:]
        c0 = _imul(_iadd(L, M), _iadd(_isub(M, _iscale(L, 3.0)), (4.0, 4.0)))
        held = ~_excludes_zero(c0)
        # While the bounds and gap stay below 2**300, no enclosure of the
        # sides, c4 or c2 can overflow.  Past that they are enclosed on every
        # box, so an overflow on a box that c0 decides still fails closed.
        rest = np.flatnonzero(held | (max(gap, np.abs(boxes).max()) >= 2.0**300))
        L, M, held = L[:, rest], M[:, rest], held[rest]
        # c2 = (lam - mu) q, and q does not depend on the side.
        q = _iadd(
            _isub(_imul(L, M), _isquare(L)),
            _iadd(_iadd(_iscale(L, 5.0), M), (-2.0, -2.0)),
        )
        undecided = np.zeros(boxes.shape[1], dtype=int)
        for present, T in _sides(L, M, gap):
            c4, c2 = _imul(L, _isquare(T)), _imul(T, q)
            undecided[rest] += present & held & ~(_excludes_zero(c4) | _excludes_zero(c2))
        if depth == MAX_DEPTH:
            failures = int(undecided.sum())
            break
        boxes = np.repeat(boxes, undecided, axis=1)
        # Row k holds the lower bound of the side to halve, row k + 1 its upper.
        k = np.where(boxes[1] - boxes[0] >= boxes[3] - boxes[2], 0, 2)
        cols = np.arange(boxes.shape[1])
        mid = 0.5 * (boxes[k, cols] + boxes[k + 1, cols])
        lower, upper = boxes.copy(), boxes
        lower[k + 1, cols] = mid
        upper[k, cols] = mid
        boxes = np.concatenate((lower, upper), axis=1)
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
    cells_examined: int
    cell_failures: int
    cells_certified: bool
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def _lattice(lo: float, hi: float, step: float) -> np.ndarray:
    """Lattice points lo + i*step up to hi; as in `_cell_edges`, a point
    within a millionth of a step past hi stands for hi and is kept."""
    return lo + np.arange(math.floor((hi - lo) / step + 1e-6) + 1) * step


def _cell_edges(lo: float, hi: float, step: float) -> np.ndarray:
    """Cell edges on one axis: lo, the lattice points strictly inside
    (lo, hi), then hi, so the cells cover [lo, hi] exactly.  A lattice
    point within a millionth of a step of hi stands for hi."""
    if hi == lo:
        return np.array([lo])
    inner = lo + np.arange(1, math.ceil((hi - lo) / step - 1e-6)) * step
    return np.concatenate(([lo], inner[inner < hi], [hi]))


def _blocks(rows: np.ndarray, cols: np.ndarray):
    """Every (row, column) pair of the (k, n) arrays rows and cols, whose
    columns are the items, in row-major order: blocks of whole rows of
    about BLOCK_CELLS pairs, each stacked as a (k_rows + k_cols, m) array."""
    per = max(1, BLOCK_CELLS // max(1, cols.shape[1]))
    for i in range(0, rows.shape[1], per):
        block = rows[:, i : i + per]
        yield np.concatenate(
            (np.repeat(block, cols.shape[1], axis=1), np.tile(cols, block.shape[1]))
        )


# An overflowed enclosure would look like it excludes zero, so overflow raises.
@np.errstate(over="raise", invalid="raise")
def contradiction_scan(
    lam_range: tuple[float, float] = (-10.0, 10.0),
    mu_range: tuple[float, float] = (-10.0, 10.0),
    step: float = 0.25,
) -> ScanCertificate:
    """Scan (lam, mu) pairs with lam != mu and certify that the closure
    coefficients (c4, c2, c0) never vanish simultaneously.

    The lattice scan reports the minimum over points of
    max(|c4|, |c2|, |c0|) with its first argmin in row-major order.  An
    interval-arithmetic subdivision then converts the finite scan into a
    certificate on the whole box minus the diagonal strip
    |lam - mu| < step/2; its cells run from lam_range[0] to lam_range[1]
    and mu_range[0] to mu_range[1], with the lattice points inside as
    edges.  Both run over blocks of whole lambda rows of about BLOCK_CELLS
    points or cells.  Every interval bound is rounded outward, so a
    certified box is certified under floating point.  A box without area
    (a range that is one point) has no cells and is never certified.

    The quartic follows from the closure system only for mu != 0: the
    elimination drops an overall factor mu (see EliminationReport), so the
    certificate says nothing about the line mu = 0.  Raises ValueError on
    an empty or non-finite range and on a step that is not finite and
    positive or leaves more than MAX_SCAN_POINTS lattice points,
    OverflowError when their number overflows, and FloatingPointError
    when the coefficients overflow.
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
    lams = _lattice(lam_range[0], lam_range[1], step)
    mus = _lattice(mu_range[0], mu_range[1], step)
    gap = 0.5 * step
    best = None  # (max-coefficient, argmin, coefficients) of the first minimum
    scanned = 0
    for lam, mu in _blocks(lams[None], mus[None]):
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
    min_max, argmin, argmin_coeffs = best or (None, None, None)
    cells_examined = cell_failures = 0
    if scanned:
        lam_edges = _cell_edges(lam_range[0], lam_range[1], step)
        mu_edges = _cell_edges(mu_range[0], mu_range[1], step)
        lam_cells = np.stack((lam_edges[:-1], lam_edges[1:]))
        mu_cells = np.stack((mu_edges[:-1], mu_edges[1:]))
        for boxes in _blocks(lam_cells, mu_cells):
            e, f = _certify_cells(boxes, gap)
            cells_examined += e
            cell_failures += f
    note = ""
    if not scanned:
        note = "all lattice points fell on the diagonal"
    elif not cells_examined:
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
        cells_examined=cells_examined,
        cell_failures=cell_failures,
        cells_certified=cells_examined > 0 and cell_failures == 0,
        note=note,
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
