import math

import numpy as np
import pytest

from revtype import (
    ProfileCurve,
    broken_diagonal,
    catenoid,
    forms_at,
    grid_rows,
    load_profile,
    profile_from_dict,
    profile_to_dict,
    radii_sum_jet,
    sample_regular,
    save_profile,
    sphere,
    torus,
    validate_profile,
)
from revtype.geometry import RegularJets, quotient_defects

from helpers import (
    ParabolicPointError,
    normal_derivatives,
    point_at,
    reference_sample_regular,
    require_regular,
    tangent_basis,
)

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def surfaces():
    return {
        "catenoid": catenoid(1.0).curve,
        "sphere": sphere(1.0).curve,
        "torus": torus(3.0, 1.0).curve,
    }


class TestValidation:
    def test_catenoid_valid(self):
        curve = ProfileCurve.build("cat", "sqrt(1+s^2)", "asinh(s)", -2.0, 2.0)
        report = validate_profile(curve, n_samples=101)
        assert report.n_samples >= 101
        assert report.max_arc_defect <= 1e-12
        assert report.passed

    def test_sphere_valid(self):
        curve = ProfileCurve.build("sph", "sin(s)", "-cos(s)", 0.1, math.pi - 0.1)
        report = validate_profile(curve)
        assert report.max_arc_defect <= 1e-14
        assert report.passed

    def test_diagonal_rejected_with_defect_one(self):
        report = validate_profile(broken_diagonal().curve)
        assert not report.passed
        assert not report.arclength_ok
        assert report.max_arc_defect == pytest.approx(1.0, abs=1e-15)

    def test_torus_without_collars_fails_regularity(self):
        curve = ProfileCurve.build(
            "raw-torus", "3 + cos(s)", "sin(s)", -math.pi, math.pi
        )
        report = validate_profile(curve, n_samples=400, tol_parab=0.05)
        assert report.arclength_ok
        assert not report.nonparabolic_ok
        # the declared collars of the catalog entry restore regularity
        assert validate_profile(torus(3.0, 1.0).curve, n_samples=400).passed

    def test_nan_fails_every_check(self):
        # build() rejects a NaN parameter; constructed directly, validation
        # must still fail instead of keeping its initial worst values
        from revtype import parse

        curve = ProfileCurve("nan", parse("sqrt(c^2 + s^2)"), parse("c * asinh(s / c)"),
                             -1.0, 1.0, params=(("c", math.nan),))
        report = validate_profile(curve)
        assert math.isnan(report.max_arc_defect)
        assert not (report.arclength_ok or report.positive_radius_ok or report.nonparabolic_ok)

    def test_domain_error_reports_sample(self):
        from revtype.geometry import ProfileDomainError

        curve = ProfileCurve.build("bad", "sqrt(s)", "s", -1.0, 1.0)
        with pytest.raises(ProfileDomainError) as err:
            validate_profile(curve)
        assert err.value.s < 0
        # the batch reports its first offending sample, wherever it lies
        curve = ProfileCurve.build("bad", "sqrt(0.5 - s)", "s", -1.0, 1.0)
        with pytest.raises(ProfileDomainError) as err:
            validate_profile(curve, n_samples=101)
        assert err.value.s == min(s for s in sample_regular(curve, 101) if s >= 0.5)

    def test_sample_count_guard(self):
        with pytest.raises(ValueError):
            sample_regular(sphere(1.0).curve, 1)

    @pytest.mark.parametrize("curve, n", (
        (torus(3.0, 1.0).curve, 101),
        (torus(4.5, 0.7).curve, 1024),
        (sphere(2.0).curve, 64),
        (catenoid(0.8).curve, 1023),
        (torus(3.0, 1.0).curve, 2),  # one point in each regular interval
    ))
    def test_samples_match_pointwise_formula(self, curve, n):
        got = sample_regular(curve, n)
        want = reference_sample_regular(curve, n)
        assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.ndim == 1
        assert np.array_equal(got, want)


class TestPhi:
    """phi' and phi'' of the regular jets; both are branch-independent."""

    def test_catenoid_at_one(self):
        jets = require_regular(catenoid(1.0).curve, 1.0)
        assert jets.dphi == pytest.approx(-0.5, abs=1e-12)
        assert jets.ddphi == pytest.approx(0.5, abs=1e-12)

    def test_sphere_phi_equals_arclength(self):
        # phi = s on the unit sphere, so phi' = 1 and phi'' = 0
        curve = sphere(1.0).curve
        for s in (0.2, 1.0, math.pi / 2, 2.5, 3.0):
            jets = require_regular(curve, s)
            assert jets.dphi == pytest.approx(1.0, abs=1e-12)
            assert jets.ddphi == pytest.approx(0.0, abs=1e-12)

    def test_torus_at_zero(self):
        jets = require_regular(torus(3.0, 1.0).curve, 0.0)
        assert jets.dphi == pytest.approx(1.0, abs=1e-12)
        assert jets.ddphi == pytest.approx(0.0, abs=1e-13)

    def test_catenoid_family_dphi(self):
        # phi' = -c/(c^2+s^2), phi'' = 2cs/(c^2+s^2)^2
        for c in (0.5, 1.0, 2.0):
            curve = catenoid(c).curve
            for s in (-1.5, 0.0, 0.8):
                jets = require_regular(curve, s)
                w = c * c + s * s
                assert jets.dphi == pytest.approx(-c / w, rel=1e-12)
                assert jets.ddphi == pytest.approx(2 * c * s / w ** 2, rel=1e-12, abs=1e-12)


class TestForms:
    def test_sphere_at_pi_third(self):
        fm = forms_at(require_regular(sphere(1.0).curve, math.pi / 3))
        assert fm.e11 == pytest.approx(1.0, abs=1e-12)
        assert fm.e22 == pytest.approx(0.75, abs=1e-12)
        assert fm.h11 == pytest.approx(1.0, abs=1e-12)
        assert fm.h22 == pytest.approx(0.75, abs=1e-12)
        assert fm.R == pytest.approx(2.0, abs=1e-12)
        assert fm.H == pytest.approx(1.0, abs=1e-12)
        assert fm.K == pytest.approx(1.0, abs=1e-12)

    def test_catenoid_at_one(self):
        fm = forms_at(require_regular(catenoid(1.0).curve, 1.0))
        assert fm.h11 == pytest.approx(-0.5, abs=1e-12)
        assert fm.h22 == pytest.approx(1.0, abs=1e-12)
        assert fm.K == pytest.approx(-0.25, abs=1e-12)
        assert fm.H == pytest.approx(0.0, abs=1e-12)
        assert fm.R == pytest.approx(0.0, abs=1e-12)

    def test_torus_quotient_at_pi_quarter(self):
        fm = forms_at(require_regular(torus(3.0, 1.0).curve, math.pi / 4))
        assert fm.R == pytest.approx(2.0 + 3.0 * SQRT2, rel=1e-12)

    def test_torus_curvatures_at_outer_equator(self):
        fm = forms_at(require_regular(torus(3.0, 1.0).curve, 0.0))
        assert fm.radius == pytest.approx(4.0, abs=1e-12)
        assert fm.K == pytest.approx(0.25, abs=1e-12)
        assert fm.H == pytest.approx(0.625, abs=1e-12)

    def test_third_form_closed_forms(self, surfaces):
        for curve in surfaces.values():
            for s in sample_regular(curve, 7):
                try:
                    fm = forms_at(require_regular(curve, s))
                except ParabolicPointError:
                    continue
                assert fm.e11 == pytest.approx(fm.dphi ** 2, rel=1e-12)
                assert fm.e22 == pytest.approx(fm.sin_phi ** 2, rel=1e-12)

    def test_parabolic_point_raises(self):
        curve = ProfileCurve.build("raw-torus", "3 + cos(s)", "sin(s)", -math.pi, math.pi)
        with pytest.raises(ParabolicPointError):
            forms_at(require_regular(curve, math.pi / 2))  # sin(phi) = cos(s) = 0

    def test_quotient_against_curvature_ratios(self, surfaces):
        for name, curve in surfaces.items():
            worst, details, columns = quotient_defects(grid_rows(curve, 32)[0])
            assert details["rows_used"] == len(columns["s"]) > 0
            assert worst == details["max_residual"] <= 1e-10, name

    @pytest.mark.parametrize("n_s", (3, 17, 64))
    @pytest.mark.parametrize("mk", [
        catenoid(1.0), catenoid(0.3), sphere(1.0), sphere(100.0), torus(3.0, 1.0),
        torus(2.345678, 0.912345),
    ], ids=lambda mk: mk.curve.name)
    def test_quotient_worst_is_the_largest_row_defect(self, mk, n_s):
        _, details, columns = quotient_defects(grid_rows(mk.curve, n_s)[0])
        assert details["max_residual"] == np.max(columns["rel_defect"])


class TestPoints:
    def test_sphere_point_and_normal(self):
        pt = point_at(sphere(1.0).curve, math.pi / 2, 0.0)
        assert np.allclose(pt.position, [1.0, 0.0, 0.0], atol=1e-12)
        assert np.allclose(pt.normal, [-1.0, 0.0, 0.0], atol=1e-12)

    def test_catenoid_point(self):
        pt = point_at(catenoid(1.0).curve, 0.0, math.pi / 2)
        assert np.allclose(pt.position, [0.0, 1.0, 0.0], atol=1e-12)

    def test_torus_point(self):
        pt = point_at(torus(3.0, 1.0).curve, 0.0, 0.0)
        assert np.allclose(pt.position, [4.0, 0.0, 0.0], atol=1e-12)

    def test_theta_normalized(self):
        pt = point_at(sphere(1.0).curve, 1.0, 2.0 * math.pi + 0.3)
        assert 0.0 <= pt.theta < 2.0 * math.pi
        assert pt.theta == pytest.approx(0.3, abs=1e-12)

    def test_normal_and_tangents(self, surfaces):
        rng = np.random.default_rng(7)
        for curve in surfaces.values():
            intervals = curve.regular_intervals()
            lengths = np.array([hi - lo for lo, hi in intervals])
            for _ in range(200):
                idx = rng.choice(len(intervals), p=lengths / lengths.sum())
                lo, hi = intervals[idx]
                s = float(rng.uniform(lo, hi))
                theta = float(rng.uniform(0.0, 2.0 * math.pi))
                pt = point_at(curve, s, theta)
                assert abs(np.linalg.norm(pt.normal) - 1.0) <= 1e-12
                assert pt.position[0] ** 2 + pt.position[1] ** 2 == pytest.approx(
                    point_at(curve, s, 0.0).position[0] ** 2, rel=1e-12
                )
                x_s, x_t = tangent_basis(curve, s, theta)
                assert abs(pt.normal @ x_s) <= 1e-10
                assert abs(pt.normal @ x_t) <= 1e-10

    def test_third_form_is_gauss_map_pullback(self, surfaces):
        rng = np.random.default_rng(11)
        for curve in surfaces.values():
            for _ in range(100):
                s = None
                while s is None:
                    lo, hi = curve.regular_intervals()[
                        rng.integers(len(curve.regular_intervals()))
                    ]
                    cand = float(rng.uniform(lo, hi))
                    try:
                        fm = forms_at(require_regular(curve, cand))
                        s = cand
                    except ParabolicPointError:
                        continue
                theta = float(rng.uniform(0.0, 2.0 * math.pi))
                n_s, n_t = normal_derivatives(curve, s, theta)
                assert n_s @ n_s == pytest.approx(fm.e11, rel=1e-10, abs=1e-12)
                assert n_t @ n_t == pytest.approx(fm.e22, rel=1e-10, abs=1e-12)
                assert abs(n_s @ n_t) <= 1e-10

    def test_real_principal_curvatures(self, surfaces):
        for curve in surfaces.values():
            for s in sample_regular(curve, 50):
                try:
                    fm = forms_at(require_regular(curve, s))
                except ParabolicPointError:
                    continue
                assert fm.H ** 2 >= fm.K - 1e-12 * max(1.0, abs(fm.K))

    def test_sphere_quotient_is_diameter(self):
        for r in (0.5, 1.0, 2.0, 5.0):
            curve = sphere(r).curve
            for s in sample_regular(curve, 25):
                assert forms_at(require_regular(curve, s)).R == pytest.approx(2.0 * r, rel=1e-13)


class TestRadiiSumJet:
    def test_sphere_derivative_vanishes(self):
        R, dR = radii_sum_jet(require_regular(sphere(2.0).curve, 1.0))
        assert R == pytest.approx(4.0, rel=1e-13)
        assert abs(dR) <= 1e-12

    def test_torus_closed_form(self):
        # R = 2 + 3/cos(s), R' = 3 sin(s)/cos^2(s) for major 3, minor 1
        curve = torus(3.0, 1.0).curve
        for s in (-1.0, -0.3, 0.2, 0.7):
            R, dR = radii_sum_jet(require_regular(curve, s))
            assert R == pytest.approx(2.0 + 3.0 / math.cos(s), rel=1e-12)
            assert dR == pytest.approx(3.0 * math.sin(s) / math.cos(s) ** 2, rel=1e-11, abs=1e-11)


class TestBatches:
    """One array pass over many points gives each point's scalar result."""

    def test_forms_and_phi(self, surfaces):
        for curve in surfaces.values():
            jets, _ = grid_rows(curve, 40)
            batch = forms_at(jets)
            for i, s in enumerate(jets.s.tolist()):
                one = forms_at(require_regular(curve, s))
                for name in ("H", "K", "R", "dphi", "ddphi", "radius", "height"):
                    assert getattr(batch, name)[i] == pytest.approx(
                        getattr(one, name), rel=1e-14, abs=1e-14
                    ), name

    def test_concat_matches_one_pass(self, surfaces):
        for curve in surfaces.values():
            jets, _ = grid_rows(curve, 40)
            assert RegularJets.concat([jets]) is jets
            for parts in ([jets[:15], jets[15:]], [jets[:7], jets[7:7], jets[7:30], jets[30:]]):
                joined = RegularJets.concat(parts)
                for name in ("s", "dphi", "ddphi"):
                    assert np.array_equal(getattr(joined, name), getattr(jets, name)), name
                for name in ("f", "g"):
                    for order in ("v0", "v1", "v2", "v3"):
                        got = getattr(getattr(joined, name), order)
                        assert np.array_equal(got, getattr(getattr(jets, name), order)), name

    def test_radii_sum(self, surfaces):
        for curve in surfaces.values():
            jets, _ = grid_rows(curve, 40)
            R, dR = radii_sum_jet(jets)
            for i, s in enumerate(jets.s.tolist()):
                assert (R[i], dR[i]) == radii_sum_jet(require_regular(curve, s))

    def test_parabolic_batch_reports_first_point(self):
        curve = ProfileCurve.build("raw-torus", "3 + cos(s)", "sin(s)", -math.pi, math.pi)
        s = np.array([0.0, 0.3, math.pi / 2, -math.pi / 2])
        with pytest.raises(ParabolicPointError) as err:
            forms_at(require_regular(curve, s))
        assert err.value.s == math.pi / 2


class TestGrids:
    def test_rows_filtered_by_margin(self):
        curve = ProfileCurve.build("raw-torus", "3 + cos(s)", "sin(s)", -math.pi, math.pi)
        jets, excluded = grid_rows(curve, 64, tol_parab=0.1)
        assert excluded > 0
        for s in jets.s:
            assert abs(math.cos(s)) > 0.1

    def test_rows_respect_exclusions(self):
        curve = torus(3.0, 1.0).curve
        jets, excluded = grid_rows(curve, 32)
        assert excluded == 0
        for s in jets.s:
            for lo, hi in curve.excluded:
                assert not lo <= s <= hi


class TestProfileFiles:
    def test_roundtrip(self, tmp_path):
        curve = torus(3.0, 1.0).curve
        path = tmp_path / "torus.json"
        save_profile(curve, path)
        loaded = load_profile(path)
        assert loaded == curve

    def test_dict_roundtrip_catenoid(self):
        curve = catenoid(2.0).curve
        assert profile_from_dict(profile_to_dict(curve)) == curve

    def test_missing_fields(self):
        with pytest.raises(ValueError, match="missing fields"):
            profile_from_dict({"name": "x", "f": "s"})

    def test_unknown_fields(self):
        data = profile_to_dict(sphere(1.0).curve)
        data["surprise"] = 1
        with pytest.raises(ValueError, match="unknown fields"):
            profile_from_dict(data)

    @pytest.mark.parametrize("kwargs", [
        {"s_min": "a"},
        {"s_max": math.inf},
        {"s_min": math.nan},
        {"s_max": True},
        {"params": {"c": math.nan}},
        {"params": {"c": "1"}},
        {"params": [1.0]},
        {"excluded": [(0.0, math.nan)]},
        {"excluded": [("a", 0.5)]},
        {"excluded": [0.5]},
        {"excluded": 5},
    ])
    def test_bad_numbers_rejected(self, kwargs):
        args = {"name": "x", "f": "s", "g": "s", "s_min": -1.0, "s_max": 1.0, **kwargs}
        with pytest.raises(ValueError):
            ProfileCurve.build(**args)

    def test_empty_domain(self):
        with pytest.raises(ValueError, match="empty domain"):
            ProfileCurve.build("x", "s", "s", 1.0, 1.0)

    def test_domain_length_must_be_finite(self):
        with pytest.raises(ValueError, match=r"domain \(-1e\+308, 1e\+308\) has no finite length"):
            ProfileCurve.build("x", "s", "0 * s", -1e308, 1e308)
