"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS line once its assertions hold (visible with
``pytest -s`` or ``-rA``), so the suite doubles as a checklist.
"""


import numpy as np
import pytest

from revtype import (
    broken_diagonal,
    catenoid,
    contradiction_scan,
    eval_jet3,
    fit_matrix,
    grid_rows,
    operator_equivalence_residual,
    parse,
    position_identity_residual,
    quartic_coefficients,
    sphere,
    structure_check,
    torus,
    validate_profile,
)
from revtype.geometry import quotient_defects

from helpers import fd_derivatives, sample_well_behaved

GRID = (32, 32)

# Frozen oracle values: grid rel-residual of the torus(3,1) fit and the
# lattice minimum of the coefficient scan (argmin (0.5, -0.5)).
TORUS_31_REL_RESIDUAL = 0.894
SCAN_MIN = 0.5


def _ok(name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


def test_sphere_reproduction():
    for r in (0.5, 1.0, 2.0, 5.0):
        report = fit_matrix(sphere(r).curve, *GRID)
        dev = float(np.max(np.abs(report.matrix - 2.0 * np.eye(3))))
        assert dev <= 1e-6, f"r={r}: |A - 2I| = {dev}"
        assert report.rel_residual <= 1e-6, f"r={r}"
        assert report.verdict == "SphereType"
    _ok("sphere reproduction", "A = 2I for r in {1/2, 1, 2, 5}")


def test_catenoid_reproduction():
    for c in (1.0, 2.0):
        report = fit_matrix(catenoid(c).curve, *GRID)
        assert report.sup_lap <= 1e-8 * report.sup_position, f"c={c}"
        assert float(np.max(np.abs(report.matrix))) <= 1e-6, f"c={c}"
        assert report.verdict == "NullType"
    _ok("catenoid reproduction", "null matrix for c in {1, 2}")


def test_torus_negative_control():
    report = fit_matrix(torus(3.0, 1.0).curve, *GRID)
    assert report.rel_residual >= 1e-2
    assert report.verdict == "NotCoordinateFiniteType"
    assert report.rel_residual == pytest.approx(TORUS_31_REL_RESIDUAL, abs=5e-3)
    _ok("torus negative control", f"rel_residual = {report.rel_residual:.3f}")


def test_structural_identity_residual():
    worst = {}
    for mk in (sphere(1.0), catenoid(1.0), torus(3.0, 1.0)):
        jets, excluded = grid_rows(mk.curve, GRID[0])
        max_residual, _, _ = position_identity_residual(jets, GRID[1], excluded)
        assert max_residual <= 1e-8, mk.name
        worst[mk.name] = max_residual
    _ok("position-vector identity", f"max residuals {worst}")


def test_operator_formula_equivalence():
    for mk in (sphere(1.0), catenoid(1.0), torus(3.0, 1.0)):
        max_rel_diff, details, _ = operator_equivalence_residual(mk.curve, n_pairs=1000, seed=777)
        assert details["pairs"] == 1000
        assert max_rel_diff <= 1e-8, mk.name
    _ok("operator equivalence", "1000 random field/point pairs per surface")


def test_curvature_quotient_consistency():
    for mk in (sphere(1.0), catenoid(1.0), torus(3.0, 1.0)):
        worst, details, _ = quotient_defects(grid_rows(mk.curve, GRID[0])[0])
        assert details["rows_used"] > 0
        assert worst <= 1e-10, mk.name
    _ok("curvature quotient", "1/phi' + f/sin(phi) vs 2H/K from the forms")


def test_structure_invariance():
    for mk in (sphere(1.0), catenoid(1.0), torus(3.0, 1.0)):
        report = fit_matrix(mk.curve, *GRID)
        check = structure_check(report, tol_struct=1e-8)
        assert check.offdiag_max <= 1e-8, mk.name
        assert check.diag_split <= 1e-8, mk.name
    _ok("fit structure invariance", "block pattern incl. the torus")


def test_contradiction_certificate():
    cert = contradiction_scan((-10.0, 10.0), (-10.0, 10.0), step=0.25)
    assert cert.min_max_coefficient >= 0.1
    assert cert.min_max_coefficient == pytest.approx(SCAN_MIN, abs=1e-12)
    assert cert.cells_certified and cert.cell_failures == 0
    assert quartic_coefficients(0.0, 2.0)[2] == pytest.approx(12.0)
    assert quartic_coefficients(0.0, -4.0)[1] == pytest.approx(-24.0)
    _ok(
        "contradiction certificate",
        f"scan min {cert.min_max_coefficient} at {cert.argmin}, "
        f"{cert.cells_examined} cells certified",
    )


def test_jet_correctness_against_finite_differences():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        text, s0 = sample_well_behaved(rng)
        expr = parse(text)
        jet = eval_jet3(expr, s0)
        fd1, fd2, fd3 = fd_derivatives(lambda x: eval_jet3(expr, x).v0, s0)
        assert abs(jet.v1 - fd1) <= 1e-6 * (1.0 + abs(jet.v1)), text
        assert abs(jet.v2 - fd2) <= 1e-4 * (1.0 + abs(jet.v2)), text
        assert abs(jet.v3 - fd3) <= 1e-4 * (1.0 + abs(jet.v3)), text
    _ok("jet correctness", "1000 random expressions vs central differences")


def test_arclength_validation():
    for mk in (catenoid(1.0), catenoid(2.0), sphere(1.0), sphere(2.0), torus(3.0, 1.0)):
        report = validate_profile(mk.curve)
        assert report.passed, mk.name
        assert report.max_arc_defect <= 1e-10, mk.name
    broken = validate_profile(broken_diagonal().curve)
    assert not broken.passed
    assert broken.max_arc_defect == pytest.approx(1.0, abs=1e-15)
    _ok("arclength validation", "catalog passes; f = g = s rejected with defect 1")
