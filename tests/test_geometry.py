import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revtype import (
    ProfileCurve,
    broken_diagonal,
    catalog,
    catenoid,
    curvatures,
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
from revtype import geometry
from revtype.beltrami import operator_equivalence_residual
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


def curvatures_at(curve, s):
    """H, K and R = 2H/K from the forms at regular ``s``."""
    H, K = curvatures(require_regular(curve, s))
    return H, K, 2.0 * H / K


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


@st.composite
def _tight_domains(draw):
    """A curve on a domain near +-1e17 with 0 to 4 excluded intervals,
    every regular and excluded interval 1 to 64 float spacings wide."""
    m = draw(st.integers(0, 4))
    bound = draw(st.sampled_from((1e17, -1e17))) + draw(st.integers(-(2**10), 2**10)) * 16.0
    bounds = [bound]
    for steps in draw(st.lists(st.integers(1, 64), min_size=2 * m + 1, max_size=2 * m + 1)):
        for _ in range(steps):
            bound = np.nextafter(bound, np.inf)
        bounds.append(float(bound))
    excluded = [bounds[i:i + 2] for i in range(1, 2 * m + 1, 2)]
    return ProfileCurve.build("tight", "cos(s)", "sin(s)", bounds[0], bounds[-1],
                              excluded=excluded)


class TestSampleOrder:
    """`sample_regular` places its points in order: each interval's
    increase inside it, and the intervals increase, so no sort is needed."""

    @settings(max_examples=300, deadline=None)
    @given(_tight_domains(), st.integers(2, 4096))
    def test_sorted_as_placed_inside_regular_intervals(self, curve, n):
        got = sample_regular(curve, n)
        assert got.ndim == 1 and np.all(np.diff(got) >= 0)
        assert got.tobytes() == np.sort(got).tobytes()
        intervals = np.array(curve.regular_intervals())
        inside = (got[:, None] >= intervals[:, 0]) & (got[:, None] <= intervals[:, 1])
        assert inside.any(axis=1).all()


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
        jets = require_regular(sphere(1.0).curve, math.pi / 3)
        assert jets.dphi ** 2 == pytest.approx(1.0, abs=1e-12)  # III = diag(phi'^2, sin^2 phi)
        assert jets.sin_phi ** 2 == pytest.approx(0.75, abs=1e-12)
        H, K, R = curvatures_at(sphere(1.0).curve, math.pi / 3)
        assert R == pytest.approx(2.0, abs=1e-12)
        assert H == pytest.approx(1.0, abs=1e-12)
        assert K == pytest.approx(1.0, abs=1e-12)

    def test_catenoid_at_one(self):
        H, K, R = curvatures_at(catenoid(1.0).curve, 1.0)
        assert K == pytest.approx(-0.25, abs=1e-12)
        assert H == pytest.approx(0.0, abs=1e-12)
        assert R == pytest.approx(0.0, abs=1e-12)

    def test_torus_quotient_at_pi_quarter(self):
        _, _, R = curvatures_at(torus(3.0, 1.0).curve, math.pi / 4)
        assert R == pytest.approx(2.0 + 3.0 * SQRT2, rel=1e-12)

    def test_torus_curvatures_at_outer_equator(self):
        curve = torus(3.0, 1.0).curve
        assert require_regular(curve, 0.0).f.v0 == pytest.approx(4.0, abs=1e-12)
        H, K, _ = curvatures_at(curve, 0.0)
        assert K == pytest.approx(0.25, abs=1e-12)
        assert H == pytest.approx(0.625, abs=1e-12)

    def test_parabolic_point_raises(self):
        curve = ProfileCurve.build("raw-torus", "3 + cos(s)", "sin(s)", -math.pi, math.pi)
        with pytest.raises(ParabolicPointError):
            require_regular(curve, math.pi / 2)  # sin(phi) = cos(s) = 0

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
                        jets = require_regular(curve, cand)
                        s = cand
                    except ParabolicPointError:
                        continue
                theta = float(rng.uniform(0.0, 2.0 * math.pi))
                n_s, n_t = normal_derivatives(curve, s, theta)
                assert n_s @ n_s == pytest.approx(jets.dphi ** 2, rel=1e-10, abs=1e-12)
                assert n_t @ n_t == pytest.approx(jets.sin_phi ** 2, rel=1e-10, abs=1e-12)
                assert abs(n_s @ n_t) <= 1e-10

    def test_real_principal_curvatures(self, surfaces):
        for curve in surfaces.values():
            for s in sample_regular(curve, 50):
                try:
                    H, K, _ = curvatures_at(curve, s)
                except ParabolicPointError:
                    continue
                assert H ** 2 >= K - 1e-12 * max(1.0, abs(K))

    def test_sphere_quotient_is_diameter(self):
        for r in (0.5, 1.0, 2.0, 5.0):
            curve = sphere(r).curve
            for s in sample_regular(curve, 25):
                assert curvatures_at(curve, s)[2] == pytest.approx(2.0 * r, rel=1e-13)


# Regular profiles off the arclength contract: the forms' 2H/K differs
# from 1/phi' + f/sin(phi), which holds only at unit speed.
SPEED_TWO_SPHERE = ProfileCurve.build("speed-2-sphere", "2 * sin(s)", "-2 * cos(s)", 0.1, 3.0)
DOUBLED_TORUS = ProfileCurve.build(
    "doubled-torus", "3 + cos(2 * s)", "sin(2 * s)", -math.pi / 2, math.pi / 2,
    excluded=[(q - 0.01, q + 0.01) for q in (-math.pi / 4, math.pi / 4)],
)


def _catalog_surfaces():
    """The default catalog surfaces, then seeded draws of each kind over
    the parameter ranges of the benchmark's surface stream."""
    entries = [catalog.make(name) for name in catalog.names()]
    rng = np.random.default_rng(19)
    for _ in range(20):
        entries += [torus(rng.uniform(2.0, 6.0), rng.uniform(0.3, 1.5)),
                    sphere(rng.uniform(0.3, 6.0)), catenoid(rng.uniform(0.3, 4.0))]
    return [entry.curve for entry in entries if entry.valid]


class TestQuotientAgainstForms:
    """`quotient_defects` holds R = 1/phi' + f/sin(phi) against 2H/K from
    the first and second forms, which do not assume arclength."""

    def test_speed_two_sphere_values(self):
        _, _, columns = quotient_defects(grid_rows(SPEED_TWO_SPHERE, 32)[0])
        assert np.allclose(columns["quotient"], 1.25, rtol=1e-13)
        assert np.allclose(columns["from_curvature_ratios"], 4.0, rtol=1e-13)

    @pytest.mark.parametrize("curve", (SPEED_TWO_SPHERE, DOUBLED_TORUS), ids=lambda c: c.name)
    def test_non_arclength_profile_fails(self, curve):
        assert validate_profile(curve, tol_arc=10.0).passed
        worst, _, _ = quotient_defects(grid_rows(curve, 32)[0])
        assert worst > 0.5

    @pytest.mark.parametrize("n_s", (32, 1024))
    def test_every_catalog_surface_passes(self, n_s):
        for curve in _catalog_surfaces():
            worst, _, _ = quotient_defects(grid_rows(curve, n_s)[0])
            assert worst <= 1e-10, curve.name

    def test_normal_orientation(self):
        # the normal is x_s x x_theta over its length, as in point_at:
        # inward on the sphere, where H = +1/r
        for r in (0.5, 2.0, 5.0):
            curve = sphere(r).curve
            for s in sample_regular(curve, 9):
                x_s, x_t = tangent_basis(curve, s, 0.7)
                n = np.cross(x_s, x_t)
                assert np.allclose(n / np.linalg.norm(n), point_at(curve, s, 0.7).normal)
                H, K = curvatures(require_regular(curve, s))
                assert H == pytest.approx(1.0 / r, rel=1e-12)
                assert K == pytest.approx(1.0 / r ** 2, rel=1e-12)
        # on the torus, test_catalog's test_torus_closed_curvatures holds H
        # to the closed-form torus_mean_curvature with its sign

    def test_flipped_normal_is_caught(self, monkeypatch):
        # -H with the same K sends 2H/K to -R: a relative defect of
        # 2|R|/(1 + |R|), between 1 and 2 where |R| >= 1
        H_K = geometry.curvatures
        monkeypatch.setattr(geometry, "curvatures", lambda jets: (-H_K(jets)[0], H_K(jets)[1]))
        for curve in (sphere(1.0).curve, sphere(5.0).curve, torus(3.0, 1.0).curve):
            worst, _, _ = quotient_defects(grid_rows(curve, 32)[0])
            assert 1.0 <= worst < 2.0, curve.name


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
            batch = curvatures(jets)
            for i, s in enumerate(jets.s.tolist()):
                one = require_regular(curve, s)
                for name, got, want in (("H", batch[0], curvatures(one)[0]),
                                        ("K", batch[1], curvatures(one)[1]),
                                        ("dphi", jets.dphi, one.dphi),
                                        ("ddphi", jets.ddphi, one.ddphi),
                                        ("radius", jets.f.v0, one.f.v0),
                                        ("height", jets.g.v0, one.g.v0)):
                    assert got[i] == pytest.approx(want, rel=1e-14, abs=1e-14), name

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
            require_regular(curve, s)
        assert err.value.s == math.pi / 2


class TestGrids:
    def test_rows_filtered_by_margin(self):
        curve = ProfileCurve.build("raw-torus", "3 + cos(s)", "sin(s)", -math.pi, math.pi)
        jets, excluded = grid_rows(curve, 64, tol_parab=0.1)
        assert excluded > 0
        for s in jets.s:
            assert abs(math.cos(s)) > 0.1

    def test_nan_margin_row_is_dropped(self, monkeypatch):
        # A NaN phi' leaves no margin above tol_parab, so the row is dropped
        # as a parabolic one would be, not fitted.
        jets_at = geometry._jets

        def poisoned(p, s):
            jets = jets_at(p, s)
            jets.dphi[3] = math.nan
            return jets

        monkeypatch.setattr(geometry, "_jets", poisoned)
        jets, excluded = grid_rows(torus(3.0, 1.0).curve, 32)
        assert excluded == 1 and len(jets) == 31
        assert not np.isnan(jets.dphi).any()

    @staticmethod
    def _channels(jets):
        return (jets.s, jets.f.v0, jets.f.v1, jets.f.v2, jets.f.v3,
                jets.g.v0, jets.g.v1, jets.g.v2, jets.g.v3, jets.dphi, jets.ddphi)

    def test_regular_rows_are_the_pass_uncopied(self, monkeypatch):
        passes = []
        jets_at = geometry._jets

        def recording(p, s):
            passes.append(jets_at(p, s))
            return passes[-1]

        monkeypatch.setattr(geometry, "_jets", recording)
        jets, excluded = grid_rows(torus(3.0, 1.0).curve, 32)
        (whole,) = passes
        assert excluded == 0
        for kept, evaluated in zip(self._channels(jets), self._channels(whole)):
            assert np.shares_memory(kept, evaluated)

    def test_joint_pass_matches_two_passes(self):
        curve = torus(3.0, 1.0).curve
        checked, rows = geometry.joint_pass(curve, 101, sample_regular(curve, 32))
        for view, n in ((checked, 101), (rows, 32)):
            alone = geometry._jets(curve, sample_regular(curve, n))
            for got, want in zip(self._channels(view), self._channels(alone)):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert validate_profile(curve, jets=checked) == validate_profile(curve)
        kept, excluded = grid_rows(curve, 32, jets=rows)
        assert kept is rows and excluded == 0

    def test_nan_margin_row_of_a_joint_pass_is_dropped(self):
        curve = torus(3.0, 1.0).curve
        _, rows = geometry.joint_pass(curve, 101, sample_regular(curve, 32))
        rows.dphi[3] = math.nan
        jets, excluded = grid_rows(curve, 32, jets=rows)
        assert excluded == 1 and len(jets) == 31
        assert not np.isnan(jets.dphi).any()

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

    def test_fully_excluded_domain(self):
        with pytest.raises(ValueError, match=r"regular subdomain is empty.*\[-1.0, 1.0\]"):
            ProfileCurve.build("x", "s", "s", -1.0, 1.0, excluded=[(-2.0, 0.0), (0.0, 1.0)])

    def test_directly_built_empty_subdomain(self):
        # A curve that bypasses `build` meets the rule in `regular_intervals`,
        # so every sampler of the subdomain raises the same error.
        curve = ProfileCurve("x", sphere(1.0).curve.f, sphere(1.0).curve.g, 0.0, 1.0,
                             excluded=((0.0, 1.0),))
        for sample in (curve.regular_intervals, lambda: sample_regular(curve, 8),
                       lambda: operator_equivalence_residual(curve, 8)):
            with pytest.raises(ValueError, match=r"^regular subdomain is empty$"):
                sample()

    def test_empty_domain(self):
        with pytest.raises(ValueError, match="empty domain"):
            ProfileCurve.build("x", "s", "s", 1.0, 1.0)

    def test_domain_length_must_be_finite(self):
        with pytest.raises(ValueError, match=r"domain \(-1e\+308, 1e\+308\) has no finite length"):
            ProfileCurve.build("x", "s", "0 * s", -1e308, 1e308)
