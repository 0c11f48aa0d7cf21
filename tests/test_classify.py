import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import iv

from revtype import (
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT,
    VERDICT_NULL,
    VERDICT_SPHERE,
    catenoid,
    contradiction_scan,
    eigen_system_residuals,
    fit_matrix,
    quartic_coefficients,
    radius_rate_defect,
    sphere,
    structure_check,
    torus,
)
from revtype import classify, geometry
from revtype.classify import fit_columns
from revtype.geometry import grid_rows

from helpers import (
    _edges,
    _lattice,
    closure_coefficients,
    closure_groebner_basis,
    cofactor_identity_remainder,
    elimination_consistency,
    per_cell_bounds,
    reference_fit,
    reference_scan,
    require_regular,
    subdivision_certifies,
)

SQRT3 = math.sqrt(3.0)

# Frozen from the oracle run: 32x32 grid of torus(3,1) with the default
# collars; the rejection threshold itself stays at 1e-2.
TORUS_31_REL_RESIDUAL = 0.894
# Frozen scan minimum over [-10,10]^2 at step 0.25, diagonal excluded.
SCAN_MIN = 0.5
SCAN_ARGMIN = (0.5, -0.5)
# gap / U on the default box's corner cell: gap = 0.125, and the sum of the
# absolute cofactor coefficients at |lam| = |mu| = 10 is 61836 / 300.
SCAN_LOWER_BOUND = 0.125 * 300 / 61836


def _columns_fit(f, g):
    """`fit_columns` on the rows ``f``, ``g`` with random factor columns, on
    a circle of 4 thetas."""
    radial, axial = np.random.default_rng(0).uniform(-1, 1, size=(2, len(f)))
    return fit_columns(f, g, radial, axial, (len(f), 4))


class TestFit:
    def test_sphere_two_identity(self):
        report = fit_matrix(sphere(1.0).curve)
        assert report.verdict == VERDICT_SPHERE
        assert np.max(np.abs(report.matrix - 2.0 * np.eye(3))) <= 1e-8
        assert report.rel_residual <= 1e-8
        assert report.lam == pytest.approx(2.0, abs=1e-10)
        assert report.mu == pytest.approx(2.0, abs=1e-10)

    def test_catenoid_null(self):
        report = fit_matrix(catenoid(1.0).curve)
        assert report.verdict == VERDICT_NULL
        assert np.max(np.abs(report.matrix)) <= 1e-8
        assert report.sup_lap <= 1e-8 * report.sup_position

    def test_torus_rejected(self):
        report = fit_matrix(torus(3.0, 1.0).curve)
        assert report.verdict == VERDICT_NOT
        assert report.rel_residual > 0.05
        assert report.rel_residual == pytest.approx(TORUS_31_REL_RESIDUAL, abs=5e-3)

    def test_radius_covariance(self):
        small = fit_matrix(sphere(1.0).curve)
        large = fit_matrix(sphere(2.0).curve)
        assert np.allclose(small.matrix, large.matrix, atol=1e-10)

    def test_degenerate_rank_inconclusive(self):
        # g = 0 leaves the axial singular value at zero: rank 2, and no
        # division by <g, g> (a RuntimeWarning fails the test).
        f = np.random.default_rng(0).uniform(1, 2, size=20)
        report = _columns_fit(f, np.zeros(20))
        assert (report.n_points, report.rank) == (80, 2)
        assert report.verdict == VERDICT_INCONCLUSIVE
        assert "rank" in report.note
        assert report.matrix is None and report.mu is None

    def test_too_few_points_inconclusive(self):
        report = _columns_fit(np.array([1.0, 2.0]), np.array([1.0, -1.0]))
        assert (report.n_points, report.rank) == (8, 3)
        assert report.verdict == VERDICT_INCONCLUSIVE
        assert report.matrix is None

    def test_degenerate_fit_holds_none(self):
        report = fit_matrix(sphere(1.0).curve, 2, 4)
        assert (report.n_points, report.verdict) == (8, VERDICT_INCONCLUSIVE)
        for value in (report.matrix, report.rel_residual, report.lam, report.mu):
            assert value is None
        assert report.sup_lap > 0.0 and report.sup_position > 0.0
        assert report.to_dict()["A"] is None
        check = structure_check(report)
        assert check.offdiag_max is None and check.diag_split is None
        assert not check.ok
        assert not structure_check(report, tol_struct=math.inf).ok

    def test_no_points_has_no_row_norms(self):
        report = _columns_fit(np.empty(0), np.empty(0))
        assert (report.n_points, report.rank) == (0, 0)
        assert report.sup_lap is None and report.sup_position is None

    def test_rank_uses_grid_point_count(self):
        # The axial singular value |g| sqrt(n) at 3e-14 of the radial
        # |f| sqrt(n/2): above 4*eps, the threshold on a 1x4 grid, but below
        # 1000*eps, the threshold on a 250x4 grid.
        def fit(rows):
            return _columns_fit(np.ones(rows), np.full(rows, 3e-14 * math.sqrt(0.5)))
        assert fit(1).rank == 3
        assert fit(250).rank == 2

    def test_report_serialization(self):
        report = fit_matrix(sphere(1.0).curve)
        payload = report.to_dict()
        assert set(payload) >= {"A", "rel_residual", "lambda", "mu", "verdict"}
        assert "structure" not in payload
        assert structure_check(report).to_dict().keys() == {
            "offdiag_max", "diag_split", "tol_struct", "ok"}
        assert len(payload["A"]) == 3 and len(payload["A"][0]) == 3

    @pytest.mark.parametrize("entry", (sphere(1.0), catenoid(1.0), torus(3.0, 1.0)),
                             ids=("sphere", "catenoid", "torus"))
    def test_fit_never_measures_the_circle(self, monkeypatch, entry):
        # The fit reads the profile rows only; the theta circle is measured
        # by structure_check, and only for a fitted matrix.
        before = fit_matrix(entry.curve, 64, 4096)

        def forbidden(n_theta):
            raise AssertionError(f"the circle of {n_theta} thetas was measured")

        monkeypatch.setattr(classify, "_circle_structure", forbidden)
        report = fit_matrix(entry.curve, 64, 4096)
        for key in ("lam", "mu", "rel_residual", "verdict"):
            assert getattr(report, key) == getattr(before, key), key
        with pytest.raises(AssertionError, match="4096 thetas"):
            structure_check(report)
        degenerate = fit_matrix(sphere(1.0).curve, 2, 4)  # 8 points: no matrix
        assert degenerate.matrix is None
        check = structure_check(degenerate)
        assert (check.offdiag_max, check.diag_split, check.ok) == (None, None, False)


_RNG = np.random.default_rng(20)
_R, _r = float(_RNG.uniform(2, 6)), float(_RNG.uniform(0.3, 1.5))
_SPHERE_R = float(_RNG.uniform(0.3, 6))
_CATENOID_C = float(_RNG.uniform(0.3, 4))
# Case ids print the drawn parameters with :g, so they stay short and stable
# while the surface labels themselves print them exactly.
ORACLE_SURFACES = [
    pytest.param(torus(_R, _r), id=f"torus(R={_R:g},r={_r:g})"),
    pytest.param(sphere(_SPHERE_R), id=f"sphere(r={_SPHERE_R:g})"),
    pytest.param(catenoid(_CATENOID_C), id=f"catenoid(c={_CATENOID_C:g})"),
]
# Odd and minimal theta counts too, where the circle sums are least symmetric.
ORACLE_GRIDS = [(32, 32), (1024, 16), (64, 4096), (3, 4), (2, 4), (17, 5), (33, 7), (16, 4)]


class TestFitOracle:
    """The two projections against the grid-materialising reference."""

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=lambda g: "x".join(map(str, g)))
    @pytest.mark.parametrize("entry", ORACLE_SURFACES)
    def test_matches_reference(self, entry, grid):
        ref = reference_fit(entry.curve, *grid)
        report = fit_matrix(entry.curve, *grid)
        for key in ("verdict", "rank", "n_points", "rows_excluded"):
            assert getattr(report, key) == ref[key], key
        assert report.sup_lap == pytest.approx(ref["sup_lap"], rel=1e-12)
        assert report.sup_position == pytest.approx(ref["sup_position"], rel=1e-12)
        if ref["A"] is None:
            assert report.matrix is None and report.rel_residual is None
            return
        assert np.max(np.abs(report.matrix - ref["A"])) <= 1e-12
        # On exact fits (sphere, catenoid) both residuals are rounding noise
        # near 1e-15, so they agree in absolute terms only.
        assert report.rel_residual == pytest.approx(ref["rel_residual"], rel=1e-12, abs=1e-12)

    def test_allocation_stays_per_row(self):
        # No array of length n_theta either: 2**19 thetas would take 4 MiB.
        curve = torus(3.0, 1.0).curve
        fit_matrix(curve, 64, 64)  # first-call imports and caches
        for n_theta in (4096, 2**19):
            tracemalloc.start()
            try:
                report = fit_matrix(curve, 64, n_theta)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert report.n_points == 64 * n_theta
            assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB at 64x{n_theta}"


class TestStructure:
    def test_torus_block_pattern_despite_misfit(self):
        report = fit_matrix(torus(3.0, 1.0).curve)
        check = structure_check(report)
        assert report.rel_residual > 1e-2
        assert check.offdiag_max <= 1e-9
        assert check.ok

    def test_sphere_diag_split(self):
        report = fit_matrix(sphere(1.0).curve)
        assert structure_check(report).diag_split <= 1e-10

    def test_catenoid_offdiag(self):
        report = fit_matrix(catenoid(1.0).curve)
        assert structure_check(report).offdiag_max <= 1e-10

    def test_tolerance_respected(self):
        # The circle's cross sums are measured rounding noise, not zero.
        report = fit_matrix(sphere(1.0).curve)
        assert 0.0 < structure_check(report).offdiag_max <= 1e-15
        assert not structure_check(report, tol_struct=1e-30).ok

    @pytest.mark.parametrize("circle", (
        lambda n: np.where(np.arange(n) == 1, 0.1, geometry.theta_circle(n)),
        lambda n: np.pi * np.arange(n) / n,
    ), ids=("moved-angle", "half-circle"))
    def test_non_uniform_circle_fails(self, monkeypatch, circle):
        uniform = fit_matrix(sphere(1.0).curve)
        monkeypatch.setattr(classify, "theta_circle", circle)
        report = fit_matrix(sphere(1.0).curve)
        assert (report.lam, report.mu) == (uniform.lam, uniform.mu)
        check = structure_check(report)
        assert check.offdiag_max > 1e-3
        assert not check.ok


class TestEigenSystem:
    def test_sphere_exact(self):
        jets, _ = grid_rows(sphere(1.0).curve, 24)
        worst, _, _ = eigen_system_residuals(jets, 2.0, 2.0)
        assert worst <= 1e-10

    def test_catenoid_exact(self):
        jets, _ = grid_rows(catenoid(1.0).curve, 24)
        worst, _, _ = eigen_system_residuals(jets, 0.0, 0.0)
        assert worst <= 1e-10

    def test_torus_fails(self):
        jets, _ = grid_rows(torus(3.0, 1.0).curve, 24)
        _, details, _ = eigen_system_residuals(jets, 2.0, 2.0)
        assert details["factor"] > 0.1

    def test_torus_pointwise_value(self):
        # |radial - 2 f| = |3 tan(s)^2 - 3| at the torus (3, 1)
        jets = require_regular(torus(3.0, 1.0).curve, np.array([0.0]))
        _, details, _ = eigen_system_residuals(jets, 2.0, 2.0)
        assert details["factor"] == pytest.approx(3.0, rel=1e-11)

    def test_rows_hold_each_point(self):
        # per-point residuals of a batch equal those of each point alone
        curve = torus(3.0, 1.0).curve
        jets, _ = grid_rows(curve, 12)
        _, _, res = eigen_system_residuals(jets, 2.0, 2.0)
        _, _, rate = radius_rate_defect(jets, 2.0, 2.0)
        assert list(res) == ["s", "factor", "quotient", "rate"] and list(rate) == ["s", "defect"]
        for column in (*res.values(), *rate.values()):
            assert column.shape == (12,)
        for i, s in enumerate(jets.s.tolist()):
            one = require_regular(curve, np.array([s]))
            assert res["factor"][i] == eigen_system_residuals(one, 2.0, 2.0)[2]["factor"][0]
            assert rate["defect"][i] == radius_rate_defect(one, 2.0, 2.0)[2]["defect"][0]

    def test_empty_sample_set_has_no_maximum(self):
        jets = require_regular(sphere(1.0).curve, np.empty(0))
        assert eigen_system_residuals(jets, 2.0, 2.0) == (
            None, {"lambda": 2.0, "mu": 2.0, "factor": None, "quotient": None, "rate": None}, {})
        assert radius_rate_defect(jets, 2.0, 2.0) == (
            None, {"lambda": 2.0, "mu": 2.0, "max_defect": None}, {})

    def test_worst_is_largest_maximum(self):
        jets, _ = grid_rows(torus(3.0, 1.0).curve, 12)
        worst, details, columns = eigen_system_residuals(jets, 2.0, 1.0)
        maxima = [float(np.max(columns[k])) for k in ("factor", "quotient", "rate")]
        assert [details[k] for k in ("factor", "quotient", "rate")] == maxima
        assert worst == max(maxima)
        worst, details, columns = radius_rate_defect(jets, 2.0, 1.0)
        assert worst == details["max_defect"] == float(np.max(columns["defect"]))

    def test_rate_defect_sphere(self):
        jets, _ = grid_rows(sphere(1.0).curve, 24)
        assert radius_rate_defect(jets, 2.0, 2.0)[0] <= 1e-10

    def test_rate_defect_catenoid(self):
        jets, _ = grid_rows(catenoid(1.0).curve, 24)
        assert radius_rate_defect(jets, 0.0, 0.0)[0] <= 1e-10

    def test_rate_defect_reported_when_system_fails(self):
        # derivation chain: the value is reported even when the eigen-system
        # residual is large and the relation is not applicable
        jets, _ = grid_rows(torus(3.0, 1.0).curve, 8)
        _, _, columns = radius_rate_defect(jets, 3.0, 1.0)
        assert np.all(np.isfinite(columns["defect"]))

    def test_consistency_chain(self):
        # perturbing lambda by eps moves the rate defect by at most C * eps
        jets, _ = grid_rows(sphere(1.0).curve, 24)
        eps = 1e-6
        scale, _, _ = eigen_system_residuals(jets, 2.0 + eps, 2.0)
        defect, _, _ = radius_rate_defect(jets, 2.0 + eps, 2.0)
        assert scale <= 5 * eps
        assert defect <= 50 * scale


class TestClosureCoefficients:
    def test_lambda_zero_reduction(self):
        # with lam = 0: c2 = -mu(mu - 2), c0 = mu(mu + 4)
        for mu in (-4.0, -1.0, 0.5, 2.0, 3.0):
            c4, c2, c0 = quartic_coefficients(0.0, mu)
            assert c4 == 0.0
            assert c2 == pytest.approx(-mu * (mu - 2.0), rel=1e-13)
            assert c0 == pytest.approx(mu * (mu + 4.0), rel=1e-13)

    def test_spot_values(self):
        assert quartic_coefficients(0.0, 2.0)[2] == pytest.approx(12.0)
        assert quartic_coefficients(0.0, -4.0)[1] == pytest.approx(-24.0)

    def test_equal_eigenvalues_guarded(self):
        with pytest.raises(ValueError):
            closure_coefficients(1.0, 1.0, 0.5)

    def test_sin_phi_range_guarded(self):
        with pytest.raises(ValueError):
            closure_coefficients(1.0, -1.0, 0.0)
        with pytest.raises(ValueError):
            closure_coefficients(1.0, -1.0, 1.0)

    def test_hand_substitution(self):
        co = closure_coefficients(1.0, -1.0, 0.5)
        assert co.coeff_f == pytest.approx(0.5, abs=1e-15)
        # -2/sqrt(3) + sqrt(3)/2 = -1/(2 sqrt(3))
        assert co.coeff_g == pytest.approx(-1.0 / (2.0 * SQRT3), abs=1e-14)
        assert co.coeff_g == pytest.approx(-2.0 / SQRT3 + SQRT3 / 2.0, abs=1e-14)

    def test_serialization_keys(self):
        co = closure_coefficients(1.0, -1.0, 0.5)
        assert set(co.to_dict()) == {
            "coeff_f", "coeff_g", "coeff_f_deriv", "coeff_g_deriv", "c4", "c2", "c0",
        }


class TestContradictionScan:
    def test_full_box_certificate(self):
        cert = contradiction_scan()
        assert cert.points_scanned == 81 * 81 - 81
        assert cert.points_skipped_diagonal == 81
        assert cert.min_max_coefficient == pytest.approx(SCAN_MIN, abs=1e-12)
        assert cert.argmin == pytest.approx(SCAN_ARGMIN)
        assert cert.min_max_coefficient > 0.1
        assert cert.cells_certified
        assert cert.cell_failures == 0
        assert cert.cells_examined == 80 * 80
        assert cert.certified_lower_bound == pytest.approx(SCAN_LOWER_BOUND, rel=1e-12)
        assert cert.certified_lower_bound < SCAN_LOWER_BOUND

    def test_small_box(self):
        cert = contradiction_scan((-1.0, 1.0), (-1.0, 1.0), step=0.5)
        assert cert.points_scanned > 0
        assert cert.min_max_coefficient > 0.0
        assert cert.cells_certified

    def test_single_point(self):
        cert = contradiction_scan((0.0, 0.0), (2.0, 2.0), step=0.25)
        assert cert.points_scanned == 1
        assert cert.argmin_coefficients[2] == pytest.approx(12.0)

    def test_diagonal_point_skipped(self):
        cert = contradiction_scan((1.0, 1.0), (1.0, 1.0), step=0.25)
        assert cert.points_scanned == 0
        assert cert.min_max_coefficient is None
        assert "diagonal" in cert.note

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            contradiction_scan((1.0, -1.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            contradiction_scan(step=0.0)
        for kwargs, named in (
            ({"lam_range": (0.0, math.inf)}, "lam_range"),
            ({"mu_range": (math.nan, 1.0)}, "mu_range"),
            ({"step": math.inf}, "step"),
            ({"step": math.nan}, "step"),
        ):
            with pytest.raises(ValueError, match=named):
                contradiction_scan(**kwargs)

    def test_overflow_rejected(self):
        # An overflowed lattice coefficient would hide the minimum.
        with pytest.raises(FloatingPointError):
            contradiction_scan((0.0, 1e200), (0.0, 1e200), step=1e199)
        with pytest.raises(OverflowError):
            contradiction_scan((-1e308, 1e308), (0.0, 1.0), step=1.0)
        # The lattice stays finite (its only mu is 1e154), but U overflows
        # at the far edge mu = 1.9e154, so the scan raises, not certifies.
        with pytest.raises(FloatingPointError):
            contradiction_scan((0.0, 1.0), (0.0, 1.9e154), step=1e154)

    def test_far_box_certified(self):
        # The lattice coefficients (up to 6.4e307) and U (about 5.7e205)
        # stay finite, so the one cell is certified by gap / U.
        step = 1e102
        cert = contradiction_scan((1e102, 1.99e102), (-8e102, -7e102), step)
        assert cert.cells_certified and cert.cells_examined == 1 and cert.cell_failures == 0
        exact = Fraction(step) / 2 / _exact_u(1.99e102, 8e102)
        assert 0 < Fraction(cert.certified_lower_bound) <= exact
        assert cert.certified_lower_bound >= float(exact) * (1.0 - 2.0**-44)

    def test_serialization(self):
        payload = contradiction_scan((-1.0, 1.0), (-1.0, 1.0), step=1.0).to_dict()
        assert "cells_certified" in payload
        for box in (((-1.0, 1.0), (-1.0, 1.0), 1.0), ((1.0, 1.0), (1.0, 1.0), 0.25)):
            cert = contradiction_scan(*box)
            assert cert.to_dict() == dataclasses.asdict(cert)
            assert list(cert.to_dict()) == list(dataclasses.asdict(cert))

    @pytest.mark.parametrize("lam_range, mu_range, named", (
        ((1e17, 1e17 + 100), (0.0, 1.0), "lam_range"),
        ((0.0, 1.0), (1e17, 1e17 + 100), "mu_range"),
    ))
    def test_coinciding_lattice_points_rejected(self, lam_range, mu_range, named):
        # Floats near 1e17 lie 16 apart, so the lattice points of step 1 fall
        # on a handful of values and the cells would be counted over them.
        with pytest.raises(ValueError, match=f"step 1.0 is below the float spacing of {named}"):
            contradiction_scan(lam_range, mu_range, 1.0)

    def test_lattice_stays_in_box(self):
        # 1 / 0.35 = 2.86 steps: the lattice stops at 0.7, not at 1.05.
        cert = contradiction_scan((0.0, 1.0), (3.0, 3.0), 0.35)
        assert cert.points_scanned == 3 and cert.points_skipped_diagonal == 0
        assert 0.0 <= cert.argmin[0] <= 1.0 and cert.argmin[1] == 3.0
        assert classify._axis("lam_range", 0.0, 1.0, 0.35)[0].tolist() == [0.0, 0.35, 0.7]
        # A last point within a millionth of a step of hi stands for hi.
        assert classify._axis("lam_range", 0.0, 1.05, 0.35)[0].size == 4
        assert classify._axis("lam_range", -10.0, 10.0, 0.25)[0].size == 81

    @pytest.mark.parametrize("lam_range, mu_range", (
        ((0.0, 0.0), (0.0, 1.0)),
        ((0.0, 1.0), (3.0, 3.0)),
        ((0.0, 0.0), (2.0, 2.0)),
    ))
    def test_box_without_cells_is_not_certified(self, lam_range, mu_range):
        cert = contradiction_scan(lam_range, mu_range, 0.25)
        assert cert.points_scanned > 0 and cert.cells_examined == 0
        assert not cert.cells_certified
        assert "no area" in cert.note


# (lam_range, mu_range, step, cells): aligned boxes, a single point, an
# all-diagonal box, and a box with bounds near 1e102, where the lattice
# coefficients and U stay finite.
REFERENCE_BOXES = (
    ((-1.0, 1.0), (-1.0, 1.0), 0.5, 16),
    ((-1.0, 1.0), (-1.0, 1.0), 1.0, 4),
    ((-10.0, 10.0), (-10.0, 10.0), 1.0, 400),
    ((-10.0, 10.0), (-10.0, 10.0), 0.25, 6400),
    ((-0.7, 1.3), (-4.2, -3.1), 0.1, 220),
    ((0.0, 0.0), (2.0, 2.0), 0.25, 0),
    ((1.0, 1.0), (1.0, 1.0), 0.25, 0),
    ((0.0, 1e100), (-2e102, 2e102), 1e101, 40),
)

# Boxes whose ranges are not whole multiples of the step: the last cell on
# each axis is a partial one ending at the range's upper bound.
NON_ALIGNED_BOXES = (
    ((0.0, 1.0), (5.0, 6.0), 0.4, 9),
    ((-2.3, 1.7), (-1.1, 2.9), 0.35, 144),
)


# Boxes at subnormal steps: every cell's bound rounds to 0.0, so every
# cell fails.
SUBNORMAL_BOXES = (
    ((0.0, 1e-320), (0.0, 1e-320), 5e-324),
    ((0.0, 1e-320), (0.0, 1e-320), 1e-323),
    ((0.0, 4e-321), (0.0, 4e-321), 2e-323),
)


def _scan_fields(cert, names):
    return {name: getattr(cert, name) for name in names}


def _cell_fields(cert):
    return cert.cells_examined, cert.cell_failures, cert.certified_lower_bound


def _check_cells(cert, lam_range, mu_range, step):
    """The box's one corner bound gives the cell count, failures and least
    bound that a bound on every cell gives."""
    want = per_cell_bounds(lam_range, mu_range, step) if cert.points_scanned else (0, 0, None)
    assert _cell_fields(cert) == want


def _check_against_oracles(lam_range, mu_range, step, cells):
    """The lattice fields and cell count match the pointwise reference, the
    cell fields match a bound on every cell, and every box that interval
    subdivision certifies is certified."""
    want = reference_scan(lam_range, mu_range, step)
    got = contradiction_scan(lam_range, mu_range, step)
    assert _scan_fields(got, want) == want
    assert got.cells_examined == cells
    assert got.cells_certified == (cells > 0)
    _check_cells(got, lam_range, mu_range, step)
    if subdivision_certifies(lam_range, mu_range, step):
        assert got.cells_certified


def _exact_u(l, m):
    """The sum of |a| + |b| + |c| coefficients times l^i m^j, exactly."""
    return sum(Fraction(sum(map(abs, row)), 300) * Fraction(l) ** i * Fraction(m) ** j
               for (i, j), row in classify._COFACTORS)


class TestScanOracles:
    @pytest.mark.parametrize("lam_range, mu_range, step, cells", REFERENCE_BOXES)
    def test_matches_pointwise_reference(self, lam_range, mu_range, step, cells):
        _check_against_oracles(lam_range, mu_range, step, cells)

    @pytest.mark.parametrize("lam_range, mu_range, step, cells", NON_ALIGNED_BOXES)
    def test_non_aligned_box_matches_reference(self, lam_range, mu_range, step, cells):
        _check_against_oracles(lam_range, mu_range, step, cells)

    @pytest.mark.parametrize("lam_range, mu_range, step", SUBNORMAL_BOXES)
    def test_subnormal_box_fails_every_cell(self, lam_range, mu_range, step):
        cert = contradiction_scan(lam_range, mu_range, step)
        assert cert.cells_examined > 0 and not cert.cells_certified
        assert _cell_fields(cert) == (cert.cells_examined, cert.cells_examined, 0.0)
        _check_cells(cert, lam_range, mu_range, step)

    @pytest.mark.parametrize("block", (1, 7, 4096))
    def test_block_size_does_not_change_report(self, monkeypatch, block):
        boxes = (((-1.0, 1.0), (-1.0, 1.0), 0.5), ((0.0, 1.0), (5.0, 6.0), 0.4))
        bounds = [contradiction_scan(*box).certified_lower_bound for box in boxes]
        monkeypatch.setattr(classify, "BLOCK_CELLS", block)
        # Rows lam = 0.25 and 0.5 tie at the minimum 0.5625 for mu = -0.25;
        # the first in row-major order is reported, whatever the blocks.
        tie = contradiction_scan((0.25, 0.5), (-0.25, -0.25), 0.25)
        assert tie.argmin == (0.25, -0.25) and tie.min_max_coefficient == 0.5625
        for box, bound in zip(boxes, bounds):
            want = reference_scan(*box)
            got = contradiction_scan(*box)
            assert _scan_fields(got, want) == want
            assert got.certified_lower_bound == bound

    def test_default_box_certifies_with_outward_rounding(self):
        # gap / U again on each of the 6400 default-box cells, in mpmath's
        # outward-rounded interval arithmetic: each cell's bound, and so the
        # reported least bound, lies at or below the interval.
        cert = contradiction_scan()
        edges = [-10.0 + i * 0.25 for i in range(81)]
        reach = [max(abs(lo), abs(hi)) for lo, hi in zip(edges, edges[1:])]
        l, m = np.repeat(reach, 80), np.tile(reach, 80)
        bounds = classify._cell_bounds(l, m, 0.125)
        assert cert.certified_lower_bound == bounds.min() > 0.0
        terms = [(i, j, iv.mpf(sum(map(abs, row))) / 300) for (i, j), row in classify._COFACTORS]
        for lc, mc, bound in zip(l, m, bounds):
            L, M = iv.mpf(float(lc)), iv.mpf(float(mc))
            quotient = iv.mpf(0.125) / sum(u * L**i * M**j for i, j, u in terms)
            assert cert.certified_lower_bound <= bound <= quotient.a


@st.composite
def _cut_boxes(draw):
    """(lam_range, mu_range, step) of 1 to 12 lambda rows of 1 to 160
    points, so that a row's window can outgrow a 64-point pass: near the
    origin at steps 0.05 to 1, scaled toward or past the 1e100 reach of the
    cut, or on a subnormal lattice."""
    kind = draw(st.sampled_from(("near", "near", "huge", "far", "subnormal")))
    if kind == "subnormal":
        unit = 5e-324
        step = unit * draw(st.integers(1, 4))
        starts = [unit * draw(st.integers(-200, 200)) for _ in range(2)]
        ends = [0.0, 0.0]
    else:
        scale = {"near": 1.0, "huge": 1e98, "far": 2e100}[kind]
        step = draw(st.floats(0.05, 1.0)) * scale
        starts = [draw(st.floats(-10.0, 10.0)) * scale for _ in range(2)]
        ends = [draw(st.sampled_from((0.0, 0.0, 0.3, 0.9))) for _ in range(2)]
    counts = (draw(st.integers(1, 12)), draw(st.integers(1, 160)))
    return (*((lo, lo + (count - 1 + end) * step) for lo, count, end in zip(starts, counts, ends)),
            step)


def _counted_quartic(monkeypatch) -> list:
    """Record the number of points of every `quartic_coefficients` call."""
    seen = []
    quartic = classify.quartic_coefficients

    def counted(lam, mu):
        seen.append(np.broadcast(lam, mu).size)
        return quartic(lam, mu)

    monkeypatch.setattr(classify, "quartic_coefficients", counted)
    return seen


class TestLatticeCut:
    """The lattice pass evaluates only the points whose |c4| can reach the
    minimum; every report field stays that of the full pass."""

    def test_c4_is_lam_times_difference_squared(self):
        # The windows rest on c4 = (lam (lam - mu)) (lam - mu), bit for bit.
        rng = np.random.default_rng(17)
        pool = np.concatenate((
            [0.0, -0.0, 5e-324, -1e-310, 1.0, 2.0, 1e100, -1e100],
            rng.uniform(-10.0, 10.0, 400),
            rng.uniform(-1.0, 1.0, 400) * 10.0 ** rng.integers(-320, 100, 400).astype(float),
        ))
        lam, mu = rng.choice(pool, 4000), rng.choice(pool, 4000)
        c4 = quartic_coefficients(lam, mu)[0]
        assert c4.tobytes() == (lam * (lam - mu) * (lam - mu)).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(_cut_boxes())
    # Rows 0.25 and 0.5 tie at the minimum 0.5625 for mu = -0.25.
    @example(((0.0, 1.0), (-0.25, 19.75), 0.25))
    @example(((-10.0, 10.0), (-10.0, 10.0), 0.25))
    @example(((0.0, 1e-320), (0.0, 1e-320), 5e-324))
    @example(((0.0, 1e100), (-2e102, 2e102), 1e101))
    # Row lam = 0 keeps its whole window of 201 points, split across passes.
    @example(((0.0, 0.5), (-5.0, 5.0), 0.05))
    # Rows of 4 points, and rows of one point.
    @example(((-50.0, 50.0), (3.0, 3.15), 0.05))
    @example(((0.0, 50.0), (3.0, 3.0), 0.05))
    def test_matches_reference_with_small_blocks(self, box):
        # With 64-point blocks a box this small takes several spans and passes.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classify, "BLOCK_CELLS", 64)
            want = reference_scan(*box)
            got = contradiction_scan(*box)
        assert _scan_fields(got, want) == want

    def test_tie_reports_first_point(self, monkeypatch):
        monkeypatch.setattr(classify, "BLOCK_CELLS", 64)
        seen = _counted_quartic(monkeypatch)
        cert = contradiction_scan((0.0, 1.0), (-0.25, 19.75), 0.25)
        assert cert.argmin == (0.25, -0.25) and cert.min_max_coefficient == 0.5625
        tie = max(map(abs, quartic_coefficients(0.5, -0.25)))
        assert tie == cert.min_max_coefficient
        assert sum(seen) < 5 * 81

    def test_three_evaluations_per_scan(self, monkeypatch):
        # A benchmark-shaped box: the sample, one window pass and the
        # identity; the window ends are checked from lam * d * d, with no
        # evaluation of their own.
        seen = _counted_quartic(monkeypatch)
        cert = contradiction_scan((-2.5, 7.5), (-8.05, 1.95), 0.05)
        assert cert.cells_certified
        assert len(seen) == 3 and seen[-1] == 36
        assert seen[1] <= classify.BLOCK_CELLS

    @pytest.mark.parametrize("block", (4096, 64))
    @pytest.mark.parametrize("past", (1, 2))
    def test_failed_end_point_widens_its_row(self, monkeypatch, block, past):
        # The window hint of the minimum's row starts `past` points right of
        # the minimum, so that row's left end point is the minimum or its
        # neighbour, with |c4| <= ub: it fails its check, and that row
        # alone runs to its start.  At 2 the hint misses the minimum, and
        # only the widened window finds it; the report is the full pass's,
        # first argmin included.
        box = ((-2.5, 7.5), (-8.05, 1.95), 0.05)
        want = reference_scan(*box)
        lam_min, mu_min = want["argmin"]
        hint, windows = classify._window_hint, classify._windows

        def narrowed(lam, mus, ub, gap):
            lo, hi = hint(lam, mus, ub, gap)
            lo[lam == lam_min] = np.searchsorted(mus, mu_min) + past
            return lo, hi

        widened = []

        def recorded(lam, mus, ub, gap):
            start, _ = classify._window_hint(lam, mus, ub, gap)
            lo, hi = windows(lam, mus, ub, gap)
            widened.extend(lam[(start > 0) & (lo == 0)].tolist())
            return lo, hi

        monkeypatch.setattr(classify, "BLOCK_CELLS", block)
        monkeypatch.setattr(classify, "_window_hint", narrowed)
        monkeypatch.setattr(classify, "_windows", recorded)
        cert = contradiction_scan(*box)
        assert _scan_fields(cert, want) == want
        assert widened == [lam_min]

    def test_windows_check_ends_without_overflow(self, monkeypatch):
        # On a near box both ends of every hint pass, and the hint stands.
        lams, _ = classify._axis("lam_range", -10.0, 10.0, 0.25)
        ub = classify._upper_bound(lams, lams, 0.125)
        want = classify._window_hint(lams, lams, ub, 0.125)
        assert ((want[0] > 0) & (want[1] < lams.size)).sum() > lams.size // 2
        with np.errstate(over="raise"):
            got = classify._windows(lams, lams, ub, 0.125)
        assert [w.tolist() for w in got] == [w.tolist() for w in want]
        # Past _CUT_REACH, ub = inf and no end passes, so each one-point
        # hint becomes its whole row, also where lam * d * d overflows.
        lams, _ = classify._axis("lam_range", -1e104, 1e104, 1e103)
        n = lams.size

        def one_point(lam, mus, ub, gap):
            at = np.searchsorted(mus, lam)
            return at, np.minimum(at + 1, mus.size)

        with np.errstate(over="ignore"):
            assert np.isinf(lams * 1e103 * 1e103).any()
        monkeypatch.setattr(classify, "_window_hint", one_point)
        with np.errstate(over="raise"):
            lo, hi = classify._windows(lams, lams, math.inf, 5e102)
        assert lo.tolist() == [0] * n and hi.tolist() == [n] * n

    @pytest.mark.parametrize("place", ("at lam", "row start", "row end"))
    def test_any_hint_matches_reference(self, monkeypatch, place):
        # Empty windows anywhere in the row: the checks alone decide how far
        # each window reaches.
        def hint(lam, mus, ub, gap):
            at = {"at lam": np.searchsorted(mus, lam), "row start": np.zeros(lam.size, int),
                  "row end": np.full(lam.size, mus.size)}[place]
            return at, at.copy()

        monkeypatch.setattr(classify, "_window_hint", hint)
        for box in ((-10.0, 10.0), (-10.0, 10.0), 0.25), ((-3.0, 7.0), (-6.0, 4.0), 0.1):
            want = reference_scan(*box)
            assert _scan_fields(contradiction_scan(*box), want) == want
        monkeypatch.setattr(classify, "BLOCK_CELLS", 64)
        for box in (*(b[:3] for b in REFERENCE_BOXES), *(b[:3] for b in NON_ALIGNED_BOXES)):
            want = reference_scan(*box)
            assert _scan_fields(contradiction_scan(*box), want) == want

    def test_sample_on_the_strip_bounds_nothing(self, monkeypatch):
        monkeypatch.setattr(classify, "_sample", lambda axis: axis[:1])
        lams, _ = classify._axis("lam_range", -10.0, 10.0, 0.25)
        assert classify._upper_bound(lams, lams, 0.125) == math.inf
        want = reference_scan((-10.0, 10.0), (-10.0, 10.0), 0.25)
        assert _scan_fields(contradiction_scan(), want) == want

    def test_overflow_still_raises(self, monkeypatch):
        # Only c2 at mu = 9.5e153 overflows.  The box reaches past 1e100, so
        # no point is skipped, although its 96 points exceed a block.
        monkeypatch.setattr(classify, "BLOCK_CELLS", 64)
        with pytest.raises(FloatingPointError):
            contradiction_scan((1.0, 1.0), (0.0, 9.5e153), 1e152)

    def test_evaluates_a_tenth_of_the_box(self, monkeypatch):
        seen = _counted_quartic(monkeypatch)
        cert = contradiction_scan((-5.0, 5.0), (-5.0, 5.0), 0.05)
        points = cert.points_scanned + cert.points_skipped_diagonal
        assert points == 201 * 201 and cert.points_skipped_diagonal == 201
        assert sum(seen) <= 0.1 * points

    @pytest.mark.parametrize("lam_range, mu_range", (
        ((0.0, 50000.0), (3.0, 3.0)),
        ((3.0, 3.0), (0.0, 50000.0)),
        # Every point of the row lam = 0 has c4 = 0, so its window is the row.
        ((0.0, 0.0), (0.0, 50000.0)),
    ))
    def test_one_line_box_allocation(self, lam_range, mu_range):
        # A million lattice points on one axis: its points take about 8 MiB,
        # and the pass adds no array as long as the axis.
        tracemalloc.start()
        try:
            cert = contradiction_scan(lam_range, mu_range, 0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.points_scanned + cert.points_skipped_diagonal == 1_000_001
        assert peak < 12 * 2**20

    def test_passes_stay_within_a_block(self, monkeypatch):
        # 4095^2 points, and one window of 10001 points, the whole row
        # lam = 0: after the sample, every evaluation takes at most
        # BLOCK_CELLS points; the window ends need none.
        seen = _counted_quartic(monkeypatch)
        for box, points in ((((-10.0, 10.0), (-10.0, 10.0), 20.0 / 4094), 4095**2),
                            (((0.0, 0.0), (0.0, 500.0), 0.05), 10001)):
            seen.clear()
            cert = contradiction_scan(*box)
            assert cert.points_scanned + cert.points_skipped_diagonal == points
            assert len(seen) > 3 and max(seen[1:]) <= classify.BLOCK_CELLS

    def test_budget_box_allocation(self):
        # The pass over the whole budget on [-10, 10]^2 peaks at about
        # 0.36 MiB, below the 0.44 MiB of a pass over every point.
        tracemalloc.start()
        try:
            contradiction_scan((-10.0, 10.0), (-10.0, 10.0), 20.0 / 4094)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.44 * 2**20


@st.composite
def _axis_ranges(draw):
    """(lo, hi, step) of one axis of up to about 300 points: near the
    origin, on a subnormal lattice, offset by 1e15 to 1e17 (where points
    may coincide), a span within a millionth of a step or so of a whole
    number of steps, or a range that is one point."""
    kind = draw(st.sampled_from(("near", "subnormal", "offset", "whole", "point")))
    if kind == "subnormal":
        unit = 5e-324
        step = unit * draw(st.integers(1, 8))
        lo = unit * draw(st.integers(-300, 300))
        return lo, lo + unit * draw(st.integers(0, 300)), step
    step = draw(st.floats(0.01, 1.0))
    lo = draw(st.floats(-10.0, 10.0))
    if kind == "point":
        return lo, lo, step
    if kind == "offset":
        step *= 100.0
        lo = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(1e15, 1e17))
    steps = draw(st.integers(1, 300))
    if kind == "whole":
        steps += draw(st.sampled_from((-1e-6, 1e-6))) * draw(st.floats(0.5, 2.0))
    else:
        steps += draw(st.floats(-1.0, 0.0))
    return lo, lo + steps * step, step


class TestScanCells:
    @pytest.mark.parametrize("lam_range, mu_range, step, cells", NON_ALIGNED_BOXES)
    def test_cells_span_requested_box(self, monkeypatch, lam_range, mu_range, step, cells):
        reached = []
        cell_bounds = classify._cell_bounds

        def record_bounds(l, m, gap):
            reached.append((l, m))
            return cell_bounds(l, m, gap)

        monkeypatch.setattr(classify, "_cell_bounds", record_bounds)
        cert = contradiction_scan(lam_range, mu_range, step)
        assert cert.cells_certified and cert.cells_examined == cells
        edges = [np.array(_edges(*r, step)) for r in (lam_range, mu_range)]
        lam_edges, mu_edges = edges
        assert (lam_edges[0], lam_edges[-1]) == lam_range
        assert (mu_edges[0], mu_edges[-1]) == mu_range
        widest = step * (1.0 + 1e-12)
        for axis in edges:
            assert np.all(np.diff(axis) > 0.0) and np.all(np.diff(axis) <= widest)
        assert cells == (lam_edges.size - 1) * (mu_edges.size - 1)
        # One bound per scan, on float64 scalars at the box's largest |lam|
        # and |mu|: the reach of its far corner cell.
        [(l, m)] = reached
        lam_reach, mu_reach = (np.maximum(np.abs(e[:-1]), np.abs(e[1:])) for e in edges)
        assert type(l) is type(m) is np.float64
        assert l == lam_reach.max() == max(map(abs, lam_range))
        assert m == mu_reach.max() == max(map(abs, mu_range))

    @pytest.mark.parametrize("lo, hi, step, edges", (
        (0.0, 1.0, 0.4, (0.0, 0.4, 0.8, 1.0)),
        (0.0, 1.0, 0.25, (0.0, 0.25, 0.5, 0.75, 1.0)),
        (-0.7, 1.3, 0.1, tuple(-0.7 + i * 0.1 for i in range(20)) + (1.3,)),
        # 3 * 0.35 rounds to just under 1.05 and stands for it: no sliver cell.
        (0.0, 1.05, 0.35, (0.0, 0.35, 0.7, 1.05)),
        (2.0, 2.0, 0.25, (2.0,)),
        (0.0, 1e-9, 0.25, (0.0, 1e-9)),
    ))
    def test_cell_edges(self, lo, hi, step, edges):
        got = _edges(lo, hi, step)
        assert got[0] == lo and got[-1] == hi
        assert got == pytest.approx(edges, abs=1e-15)
        assert np.all(np.diff(got) > 0.0)
        assert classify._axis("lam_range", lo, hi, step)[1] == len(edges) - 1

    @settings(max_examples=300, deadline=None)
    @given(_axis_ranges())
    @example((1e17, 1e17 + 100, 1.0))
    @example((0.0, 1.05, 0.35))
    @example((2.0, 2.0, 0.25))
    def test_axis_matches_oracles(self, axis):
        # The points bit for bit as lo + i*step, the coinciding-points
        # error, and the cells between the oracle's edges.
        lo, hi, step = axis
        want = _lattice(lo, hi, step)
        if any(b <= a for a, b in zip(want, want[1:])):
            with pytest.raises(ValueError, match="its lattice points coincide"):
                classify._axis("mu_range", lo, hi, step)
            return
        points, cells = classify._axis("mu_range", lo, hi, step)
        assert points.tobytes() == np.array(want).tobytes()
        assert cells == len(_edges(lo, hi, step)) - 1

    def test_allocation_stays_per_block(self):
        # 400 x 400 cells at step 0.05; whole-box arrays would exceed the bound.
        tracemalloc.start()
        try:
            cert = contradiction_scan((-10.0, 10.0), (-10.0, 10.0), 0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.cells_certified
        assert peak < 2 * 2**20


class TestCofactorIdentity:
    def test_groebner_basis(self):
        # The only common zeros of (c4, c2, c0) are (0, 0) and (2, 2).
        assert closure_groebner_basis() == ["lam - mu", "mu**2 - 2*mu"]

    def test_identity_expands_to_zero(self):
        assert cofactor_identity_remainder() == 0
        assert classify._identity_holds()

    def test_changed_cofactor_fails_every_cell(self, monkeypatch):
        table = classify._COFACTORS
        for r, ((i, j), row) in enumerate(table):
            for k in range(3):
                changed = tuple(v + (n == k) for n, v in enumerate(row))
                patched = (*table[:r], ((i, j), changed), *table[r + 1:])
                assert cofactor_identity_remainder(patched) != 0
                monkeypatch.setattr(classify, "_COFACTORS", patched)
                cert = contradiction_scan()
                assert not (cert.cells_certified and cert.cell_failures == 0), (r, k)
                assert cert.cell_failures == cert.cells_examined == 80 * 80
                assert cert.certified_lower_bound is None

    def test_changed_quartic_fails_every_cell(self, monkeypatch):
        quartic = classify.quartic_coefficients

        def shifted(lam, mu):
            c4, c2, c0 = quartic(lam, mu)
            return c4, c2, c0 + 1.0

        monkeypatch.setattr(classify, "quartic_coefficients", shifted)
        cert = contradiction_scan()
        assert not (cert.cells_certified and cert.cell_failures == 0)
        assert cert.cell_failures == cert.cells_examined == 80 * 80


class TestCellBoundRounding:
    def test_terms_round_up(self):
        for ((i, j), row), (ti, tj, u) in zip(classify._COFACTORS, classify._bound_terms()):
            exact = Fraction(sum(map(abs, row)), 300)
            assert (ti, tj) == (i, j)
            assert exact <= Fraction(u) <= exact * (1 + Fraction(1, 2**51))

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_bounds_below_exact_quotient(self, seed):
        # |lam| and |mu| from zero and subnormals to 1e150.
        rng = np.random.default_rng(seed)
        pool = np.concatenate((
            [0.0, 5e-324, 1e-310, 2.0**-1022, 1.0, 10.0],
            rng.uniform(0.0, 1.0, 64),
            rng.uniform(0.0, 1.0, 64) * 10.0 ** rng.integers(-320, 151, 64).astype(float),
        ))
        l, m = rng.choice(pool, 300), rng.choice(pool, 300)
        for gap in (0.125, 0.025, 1e100):
            bounds = classify._cell_bounds(l, m, gap)
            for lc, mc, bound in zip(l, m, bounds):
                exact = Fraction(gap) / _exact_u(lc, mc)
                assert 0 < Fraction(bound) <= exact, (lc, mc, gap)
                assert bound >= float(exact) * (1.0 - 2.0**-44), (lc, mc, gap)


class TestElimination:
    def test_factor_is_mu_over_sincos(self):
        # D * sin * cos == mu * Q on a fine phi sweep
        report = elimination_consistency(1.0, -1.0, n_phi=100)
        assert report.max_factor_defect <= 1e-8
        assert report.zero_set_mismatches == 0
        assert report.proportionality_factor == -1.0

    def test_never_vanishing_quartic(self):
        # lam=0, mu=2: Q == 12 identically, D stays away from zero too
        report = elimination_consistency(0.0, 2.0, n_phi=64)
        assert report.zero_set_mismatches == 0
        assert report.max_factor_defect <= 1e-10

    def test_random_pairs(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            lam, mu = (float(v) for v in rng.uniform(-5, 5, size=2))
            if abs(lam - mu) < 0.1 or abs(mu) < 0.05:
                continue
            report = elimination_consistency(lam, mu, n_phi=40)
            assert report.max_factor_defect <= 1e-8, (lam, mu)

    def test_guard(self):
        with pytest.raises(ValueError):
            elimination_consistency(2.0, 2.0)
