import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revtype import (
    catenoid,
    first_beltrami,
    grid_rows,
    laplacian_profile_factors,
    normal_profiles,
    operator_equivalence_residual,
    position_identity_residual,
    radii_sum_jet,
    second_beltrami,
    second_beltrami_divergence,
    sphere,
    torus,
)
from revtype import eval_jet3, expressions, geometry, parse
from revtype.beltrami import (
    DRAW_MARGIN,
    field_labels,
    field_profiles,
    random_fields,
)
from revtype.geometry import DEFAULT_TOL_PARAB, _jets, sample_regular, theta_circle

from helpers import (
    FieldPartials,
    coordinate_laplacian,
    point_at,
    reference_first_beltrami,
    reference_operator_equivalence_residual,
    reference_partials,
    reference_position_identity_residual,
    reference_position_sides,
    reference_profile_factors,
    reference_random_fields,
    reference_second_beltrami,
    reference_second_beltrami_divergence,
    require_regular,
    symbolic_coordinate_laplacian_defects,
)

SQRT2 = math.sqrt(2.0)


def angle_field(jets, theta):
    """Partials of u(s, theta) = theta; not periodic, only for the pointwise
    oracle `reference_first_beltrami`."""
    return FieldPartials(value=theta, d_s=0.0, d_ss=0.0, d_theta=1.0, d_thetatheta=0.0)


def expression_partials(text, harmonic=0, trig="cos"):
    """The `reference_partials` of text(s) * trig(harmonic theta) as a
    function of (jets, theta)."""
    profile = expression_profile(text)
    return lambda jets, theta: reference_partials(profile(jets), harmonic, trig, theta)


def expression_profile(text):
    """The profile jets (a, a', a'') of text(s) as a function of jets."""
    tree = parse(text)

    def profile(jets):
        j = eval_jet3(tree, jets.s)
        return (j.v0, j.v1, j.v2)

    return profile


def radius(jets):
    """The profile jets (f, f', f'') of the coordinate fields f cos(theta)
    and f sin(theta), harmonic 1."""
    return (jets.f.v0, jets.f.v1, jets.f.v2)


def height(jets):
    """The profile jets (g, g', g'') of the coordinate field g, harmonic 0."""
    return (jets.g.v0, jets.g.v1, jets.g.v2)


def apply(op, curve, s, theta, *fields):
    """``op`` on the partials of ``fields``, functions of (jets, theta), at
    (s, theta) of ``curve``."""
    jets = require_regular(curve, s)
    return op(jets, *(partials(jets, theta) for partials in fields))


def laplacian_at(op, curve, s, profile, k):
    """The profile of ``op`` on the field ``profile(jets)`` trig(k theta)
    at s of ``curve``."""
    jets = require_regular(curve, s)
    return op(jets, profile(jets), k)


class TestExpressionPartials:
    """The pointwise oracle's partials of a(s) trig(k theta)."""

    def test_partials_shape(self):
        jets = require_regular(sphere(1.0).curve, 0.3)
        p = expression_partials("sin(s)", harmonic=2)(jets, 0.5)
        assert p.value == pytest.approx(math.sin(0.3) * math.cos(1.0))
        assert p.d_theta == pytest.approx(-2.0 * math.sin(0.3) * math.sin(1.0))
        assert p.d_thetatheta == pytest.approx(-4.0 * p.value)

    def test_periodicity(self):
        partials = expression_partials("1 + s^2", harmonic=3, trig="sin")
        jets = require_regular(sphere(1.0).curve, 0.7)
        assert partials(jets, 1.1).value == pytest.approx(
            partials(jets, 1.1 + 2.0 * math.pi).value, abs=1e-12
        )


class TestFirstBeltrami:
    def test_angle_with_itself_on_sphere(self):
        # e^{22} = 1/sin^2(phi) = 1 at the equator
        value = apply(reference_first_beltrami, sphere(1.0).curve, math.pi / 2, 0.3,
                      angle_field, angle_field)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_cross_term_vanishes(self):
        s_field = expression_partials("s")
        for curve in (sphere(1.0).curve, torus(3.0, 1.0).curve):
            assert apply(reference_first_beltrami, curve, 1.0, 0.7, s_field,
                         angle_field) == pytest.approx(0.0, abs=1e-14)

    def test_constant_quotient_on_sphere(self):
        jets = require_regular(sphere(1.0).curve, 1.2)
        assert first_beltrami(jets, radii_sum_jet(jets), normal_profiles(jets)[1]) == (
            pytest.approx(0.0, abs=1e-12))

    @pytest.mark.parametrize("mk", [sphere(1.0), catenoid(1.0), torus(3.0, 1.0)])
    def test_matches_pointwise_oracle(self, mk):
        # The profile of the pairing of theta-free R = 2H/K with a normal
        # part, times that part's trig, is the oracle's pairing at the point.
        for s in sample_regular(mk.curve, 9):
            jets = require_regular(mk.curve, s)
            R = radii_sum_jet(jets)
            for normal, k in zip(normal_profiles(jets), (1, 0)):
                for theta, trig in ((0.4, "cos"), (2.1, "sin")):
                    t = math.cos(k * theta) if trig == "cos" else math.sin(k * theta)
                    want = reference_first_beltrami(jets, reference_partials(R, 0, "cos", theta),
                                                    reference_partials(normal, k, trig, theta))
                    assert first_beltrami(jets, R, normal) * t == pytest.approx(
                        want, rel=1e-12, abs=1e-12)


class TestSecondBeltrami:
    def test_catenoid_height_is_harmonic(self):
        curve = catenoid(1.0).curve
        assert laplacian_at(second_beltrami, curve, 1.0, height, 0) == pytest.approx(0.0, abs=1e-12)

    def test_sphere_height_eigenfunction(self):
        curve = sphere(1.0).curve
        for s in (0.3, 1.0, 2.0, 2.8):
            got = laplacian_at(second_beltrami, curve, s, height, 0)
            assert got == pytest.approx(2.0 * (-math.cos(s)), rel=1e-11, abs=1e-12)

    def test_constant_killed(self):
        for curve in (sphere(1.0).curve, catenoid(1.0).curve, torus(3.0, 1.0).curve):
            assert laplacian_at(second_beltrami, curve, 0.9, expression_profile("3.7"),
                                0) == pytest.approx(0.0, abs=1e-12)

    def test_linearity(self):
        curve = torus(3.0, 1.0).curve
        rng = np.random.default_rng(3)
        for _ in range(20):
            alpha, beta = (float(v) for v in rng.uniform(-2, 2, size=2))
            u = "sin(s) + 0.3*s^2"
            w = "cos(2*s) - s"
            combo = f"{alpha!r}*({u}) + {beta!r}*({w})"
            k = int(rng.integers(0, 3))
            s = float(rng.uniform(-1.0, 1.0))
            lhs = laplacian_at(second_beltrami, curve, s, expression_profile(combo), k)
            rhs = alpha * laplacian_at(
                second_beltrami, curve, s, expression_profile(u), k
            ) + beta * laplacian_at(second_beltrami, curve, s, expression_profile(w), k)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("op, oracle", [
        (second_beltrami, reference_second_beltrami),
        (second_beltrami_divergence, reference_second_beltrami_divergence),
    ], ids=("specialized", "divergence"))
    @pytest.mark.parametrize("mk", [sphere(1.0), catenoid(1.0), torus(3.0, 1.0)])
    def test_matches_pointwise_oracle(self, mk, op, oracle):
        # The profile result times the field's trig is the oracle's
        # pointwise operator on the field's partials.
        rng = np.random.default_rng(8)
        profile = expression_profile("sin(s) + 0.3*s^2 - 0.5*cos(0.7*s)")
        for s in sample_regular(mk.curve, 9):
            jets = require_regular(mk.curve, s)
            for k in range(4):
                theta = float(rng.uniform(0.0, 2.0 * math.pi))
                for trig, t in (("cos", math.cos(k * theta)), ("sin", math.sin(k * theta))):
                    want = oracle(jets, reference_partials(profile(jets), k, trig, theta))
                    assert op(jets, profile(jets), k) * t == pytest.approx(
                        want, rel=1e-11, abs=1e-11), (s, k, trig)


class TestProfileFactors:
    def test_sphere_factors_are_twice_coordinates(self):
        for r in (0.5, 1.0, 2.0):
            curve = sphere(r).curve
            for s in sample_regular(curve, 9):
                radial, axial = laplacian_profile_factors(require_regular(curve, s))
                assert radial == pytest.approx(2.0 * r * math.sin(s / r), rel=1e-11, abs=1e-12)
                assert axial == pytest.approx(-2.0 * r * math.cos(s / r), rel=1e-11, abs=1e-12)

    def test_catenoid_factors_vanish(self):
        curve = catenoid(1.0).curve
        for s in sample_regular(curve, 9):
            radial, axial = laplacian_profile_factors(require_regular(curve, s))
            assert abs(radial) <= 1e-12
            assert abs(axial) <= 1e-12

    def test_torus_factors_closed_form(self):
        # radial = 2 cos(s) + 3 + 3 tan(s)^2, axial = 2 sin(s) for (3, 1)
        curve = torus(3.0, 1.0).curve
        for s in (-1.2, -0.4, 0.0, math.pi / 4, 1.1):
            radial, axial = laplacian_profile_factors(require_regular(curve, s))
            want = 2.0 * math.cos(s) + 3.0 + 3.0 * math.tan(s) ** 2
            assert radial == pytest.approx(want, rel=1e-11)
            assert axial == pytest.approx(2.0 * math.sin(s), rel=1e-11, abs=1e-12)

    def test_torus_values_at_pi_quarter(self):
        jets = require_regular(torus(3.0, 1.0).curve, math.pi / 4)
        radial, axial = laplacian_profile_factors(jets)
        assert radial == pytest.approx(6.0 + SQRT2, rel=1e-12)
        assert axial == pytest.approx(SQRT2, rel=1e-12)


class TestCoordinateLaplacian:
    def test_sphere_doubles_position(self):
        curve = sphere(2.0).curve
        s = math.pi  # equator arclength for r = 2
        lap = coordinate_laplacian(require_regular(curve, s), 0.0)
        assert np.allclose(lap.vector, [4.0, 0.0, 0.0], atol=1e-11)

    def test_catenoid_null(self):
        curve = catenoid(1.0).curve
        for s, theta in ((-1.5, 0.0), (0.3, 2.0), (1.9, 4.4)):
            lap = coordinate_laplacian(require_regular(curve, s), theta)
            assert np.linalg.norm(lap.vector) <= 1e-12

    def test_sphere_eigenstructure_all_radii(self):
        for r in (0.5, 1.0, 2.0, 5.0):
            curve = sphere(r).curve
            for s in sample_regular(curve, 11):
                for theta in (0.0, 1.0, 2.5, 5.0):
                    lap = coordinate_laplacian(require_regular(curve, s), theta)
                    x = point_at(curve, s, theta).position
                    for got, want in zip(lap.vector, 2.0 * x):
                        assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_torus_at_pi_quarter(self):
        lap = coordinate_laplacian(require_regular(torus(3.0, 1.0).curve, math.pi / 4), 0.0)
        assert np.allclose(lap.vector, [6.0 + SQRT2, 0.0, SQRT2], rtol=1e-12)

    def test_vector_assembled_from_factors(self):
        lap = coordinate_laplacian(require_regular(torus(3.0, 1.0).curve, 0.7), 1.1)
        assert lap.vector[0] == lap.radial * math.cos(1.1)
        assert lap.vector[1] == lap.radial * math.sin(1.1)
        assert lap.vector[2] == lap.axial

    def test_matches_operator_on_coordinates(self):
        # the operator on the coordinate profiles against the R-form
        # radial = R sin(phi) - (cos(phi)/phi') R',
        # axial = -R cos(phi) - (sin(phi)/phi') R' of R = 2H/K
        rng = np.random.default_rng(5)
        for mk in (sphere(1.3), catenoid(0.8), torus(3.0, 1.0)):
            curve = mk.curve
            intervals = curve.regular_intervals()
            lengths = np.array([hi - lo for lo, hi in intervals])
            for _ in range(40):
                lo, hi = intervals[rng.choice(len(intervals), p=lengths / lengths.sum())]
                s = float(rng.uniform(lo, hi))
                theta = float(rng.uniform(0.0, 2.0 * math.pi))
                try:
                    jets = require_regular(curve, s)
                except Exception:
                    continue
                lap = coordinate_laplacian(jets, theta)
                radial, axial = reference_profile_factors(jets)
                want = [radial * math.cos(theta), radial * math.sin(theta), axial]
                assert np.allclose(lap.vector, want, rtol=1e-9, atol=1e-9)

    def test_r_form_is_the_operator_at_arclength(self):
        # L_1 f and L_0 g minus the R-form simplify to 0 in sympy.
        assert symbolic_coordinate_laplacian_defects() == (0, 0)


def _grid(curve, n_s, n_theta):
    """The arguments of `position_identity_residual` on an n_s x n_theta grid."""
    jets, excluded = grid_rows(curve, n_s)
    return jets, n_theta, excluded


class TestStructuralIdentity:
    @pytest.mark.parametrize("mk, bound", [
        (sphere(1.0), 1e-10),
        (catenoid(1.0), 1e-10),
        (torus(3.0, 1.0), 1e-8),
    ])
    def test_grid_residual(self, mk, bound):
        worst, details, _ = position_identity_residual(*_grid(mk.curve, 32, 32))
        assert details["points_used"] >= 900
        assert worst == details["max_residual"] <= bound

    def test_rows_collected(self):
        _, details, columns = position_identity_residual(*_grid(sphere(1.0).curve, 4, 4))
        assert [np.size(c()) for c in columns.values()] == [details["points_used"]] * 9
        assert list(columns) == ["s", "theta", "lhs1", "lhs2", "lhs3",
                                 "rhs1", "rhs2", "rhs3", "residual"]

    @pytest.mark.parametrize("n_s, n_theta", ((7, 5), (32, 32), (64, 1024)))
    @pytest.mark.parametrize("mk", [sphere(1.0), catenoid(1.0), catenoid(4.0), torus(3.0, 1.0),
                                    torus(5.0, 0.3), sphere(100.0)], ids=lambda mk: mk.curve.name)
    def test_every_angle_has_the_row_values(self, mk, n_s, n_theta):
        # Both sides evaluated by the operators at every grid point agree
        # with the per-row columns to rounding: the theta circle adds only
        # the rounding of cos and sin.
        args = _grid(mk.curve, n_s, n_theta)
        _, _, columns = position_identity_residual(*args)
        lhs, rhs = reference_position_sides(args[0], theta_circle(n_theta))
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
        got = {"residual": np.linalg.norm(lhs - rhs, axis=-1),
               **{f"{name}{k + 1}": side[..., k] for name, side in (("lhs", lhs), ("rhs", rhs))
                  for k in range(3)}}
        for name, values in got.items():
            np.testing.assert_allclose(columns[name](), values, rtol=0,
                                       atol=1e-13 * (1.0 + scale), err_msg=name)


class TestOperatorEquivalence:
    @pytest.mark.parametrize("mk", [sphere(1.0), catenoid(1.0), torus(3.0, 1.0)])
    def test_specialized_vs_divergence_form(self, mk):
        worst, details, _ = operator_equivalence_residual(mk.curve, n_pairs=150, seed=12)
        assert details["pairs"] == 150
        assert worst == details["max_rel_diff"] <= 1e-8

    @staticmethod
    def screened(monkeypatch):
        """The points of each screening pass, recorded as
        `operator_equivalence_residual` runs."""
        from revtype import beltrami

        passes = []
        screen = beltrami._jets

        def recording(p, s):
            passes.append(np.array(s))
            return screen(p, s)

        monkeypatch.setattr(beltrami, "_jets", recording)
        return passes

    @staticmethod
    def replayed_candidates(curve, n_pairs, sizes, seed=0):
        """The uniforms (3, m) of passes of ``sizes`` drawn after the fields
        at ``seed``, and the points s they place."""
        rng = np.random.default_rng(seed)
        random_fields(curve, rng, max(8, n_pairs // 50))
        u = np.concatenate([rng.random((3, m)) for m in sizes], axis=1)
        intervals = curve.regular_intervals()
        starts = np.array([lo for lo, _ in intervals])
        widths = np.array([hi - lo for lo, hi in intervals])
        cdf = np.cumsum(widths / widths.sum())
        k = (cdf / cdf[-1]).searchsorted(u[0], side="right")
        return u, starts[k] + widths[k] * u[1]

    def test_each_candidate_screened_once(self, monkeypatch):
        # At 500 pairs the torus rejects some of its first 500 candidates;
        # the second pass screens 64 new ones, twice the shortfall at least
        # 64.  Together the passes screen every drawn candidate once, in
        # draw order.
        curve = torus(3.0, 1.0).curve
        passes = self.screened(monkeypatch)
        _, details, _ = operator_equivalence_residual(curve, n_pairs=500)
        assert [len(s) for s in passes] == [500, 64]
        assert details["pairs"] == 500
        _, s = self.replayed_candidates(curve, 500, (500, 64))
        assert np.concatenate(passes).tolist() == s.tolist()

    @pytest.mark.parametrize("mk", [torus(3.0, 1.0), sphere(1.0), catenoid(1.0)])
    def test_at_most_two_short_passes(self, monkeypatch, mk):
        # At most two passes and 1.15 candidates per pair; the old draw
        # walk screened 1502 to 3005 candidates for 500 pairs.
        passes = self.screened(monkeypatch)
        for seed in range(20):
            passes.clear()
            _, details, _ = operator_equivalence_residual(mk.curve, n_pairs=500, seed=seed)
            sizes = [len(s) for s in passes]
            assert details["pairs"] == 500, seed
            assert len(sizes) <= 2 and sum(sizes) <= 1.15 * 500, (seed, sizes)

    def test_pass_sizes(self, monkeypatch):
        # The first pass draws n_pairs, a later one twice the shortfall and
        # at least 64, and the passes stop at 50 draws per pair: on the
        # all-rejected sphere r=100, 100 draws, then 24 passes of 200, then
        # the last 100.
        passes = self.screened(monkeypatch)
        _, details, _ = operator_equivalence_residual(sphere(100.0).curve, n_pairs=100)
        assert details["pairs"] == 0
        assert [len(s) for s in passes] == [100, *[200] * 24, 100]

    def test_jets_sliced_once(self, monkeypatch):
        # Only the picks are sliced out of each pass's screened candidates;
        # each field's profile is evaluated at its pairs' points, not on a
        # slice.
        passes = self.screened(monkeypatch)
        calls = []
        getitem = geometry.RegularJets.__getitem__

        def counting(jets, index):
            calls.append(index)
            return getitem(jets, index)

        monkeypatch.setattr(geometry.RegularJets, "__getitem__", counting)
        _, details, _ = operator_equivalence_residual(torus(3.0, 1.0).curve, n_pairs=500)
        assert details["pairs"] == 500
        assert len(passes) == len(calls) == 2

    def test_picks_match_one_screening_pass(self):
        # The draws of both passes, screened in one evaluation and walked
        # in order, give the same sample points and angles: the first 500
        # usable candidates.
        curve, n = torus(3.0, 1.0).curve, 500
        _, _, columns = operator_equivalence_residual(curve, n_pairs=n)
        u, s = self.replayed_candidates(curve, n, (n, 64))
        jets = _jets(curve, s)
        margin = np.minimum(np.abs(jets.dphi), np.abs(jets.sin_phi))
        usable = (margin > DEFAULT_TOL_PARAB) & (margin >= DRAW_MARGIN)
        picks = [i for i in range(len(s)) if usable[i]][:n]
        assert len(picks) == n and not usable[:n].all()
        assert columns["s"].tolist() == jets.s[picks].tolist()
        assert columns["theta"].tolist() == (2.0 * math.pi * u[2, picks]).tolist()

    def test_all_rejected_memory(self):
        # The all-rejected sphere r=100 screens its 50 * 2048 draws in
        # passes of 4096, so the peak stays near one pass's jets; the old
        # draw walk held every draw and its jets at once (about 76 MiB).
        curve = sphere(100.0).curve
        tracemalloc.start()
        try:
            _, details, _ = operator_equivalence_residual(curve, n_pairs=2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert details["pairs"] == 0
        assert peak < 4 * 2**20

    def test_cross_check_on_height(self):
        curve = sphere(1.0).curve
        s = math.pi / 3

        a = laplacian_at(second_beltrami, curve, s, height, 0)
        b = laplacian_at(second_beltrami_divergence, curve, s, height, 0)
        assert a == pytest.approx(-1.0, rel=1e-12)  # 2*(-cos(pi/3))
        assert b == pytest.approx(a, rel=1e-12)

    def test_divergence_form_on_constant(self):
        assert laplacian_at(second_beltrami_divergence, torus(3.0, 1.0).curve, 0.5,
                            expression_profile("2.0"), 0) == pytest.approx(0.0, abs=1e-12)

    def test_catenoid_radial_coordinate(self):
        curve = catenoid(1.0).curve

        a = laplacian_at(second_beltrami, curve, 1.0, radius, 1)
        b = laplacian_at(second_beltrami_divergence, curve, 1.0, radius, 1)
        assert a == pytest.approx(0.0, abs=1e-10)
        assert b == pytest.approx(a, abs=1e-10)


def same_bits(got, want) -> bool:
    """Whether two values or arrays hold the same bits, signed zeros and
    dtype included."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def assert_same_check(got, want):
    """Two (worst, details, columns) results agree bit for bit, a callable
    column compared by what it returns, as the CSV writer calls it."""
    assert repr(got[:2]) == repr(want[:2])
    assert list(got[2]) == list(want[2])
    for name in want[2]:
        column = got[2][name]
        assert same_bits(column() if callable(column) else column, want[2][name]), name


_ORACLE_SURFACES = {
    "sphere": sphere(1.0), "catenoid": catenoid(1.0), "torus": torus(3.0, 1.0),
    "sphere-r100": sphere(100.0),
}


class TestBatchedEquivalence:
    """The batched pass gives the bits of the per-field loop."""

    @pytest.mark.parametrize("n_pairs", (1, 7, 20, 500, 3000))
    @pytest.mark.parametrize("name", _ORACLE_SURFACES)
    def test_matches_per_field_loop(self, name, n_pairs):
        curve = _ORACLE_SURFACES[name].curve
        for seed in (0, 3, 11):
            got = operator_equivalence_residual(curve, n_pairs=n_pairs, seed=seed)
            want = reference_operator_equivalence_residual(curve, n_pairs=n_pairs, seed=seed)
            assert_same_check(got, want)

    @pytest.mark.parametrize("n_s, n_theta", ((2, 4), (7, 5), (32, 32), (64, 64), (200, 9)))
    @pytest.mark.parametrize("name", _ORACLE_SURFACES)
    def test_position_residual_matches_stacked_norm(self, name, n_s, n_theta):
        args = _grid(_ORACLE_SURFACES[name].curve, n_s, n_theta)
        assert_same_check(position_identity_residual(*args),
                          reference_position_identity_residual(*args))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        st.builds(torus, st.floats(2.0, 6.0), st.floats(0.3, 1.5)),
        st.builds(sphere, st.floats(0.3, 6.0)),
        st.builds(catenoid, st.floats(0.3, 4.0)),
    ), st.integers(2, 80), st.integers(4, 80))
    def test_position_residual_matches_reference_on_random_surfaces(self, mk, n_s, n_theta):
        # Bit for bit, signed zeros included: the oracle's harmonic-0 fields
        # keep every zero term, which shows first on catenoid rows where
        # R = dR = 0 exactly.
        args = _grid(mk.curve, n_s, n_theta)
        assert_same_check(position_identity_residual(*args),
                          reference_position_identity_residual(*args))


class TestTreeFields:
    """The random fields of operator equivalence: their draw stream, their
    closed-form profiles and that no text is parsed."""

    def test_seed_zero_labels_on_sphere(self):
        fields = random_fields(sphere(1.0).curve, np.random.default_rng(0), 8)
        assert list(zip(field_labels(fields).tolist(), fields.harmonic.tolist(),
                        fields.trig.tolist())) == [
            ("1.43 * sin(1.862 * s) + -1.866 * sin(0.51 * s) + 0.919 * cos(0.969 * s)"
             " + 0.363 * s^2", 0, "cos"),
            ("0.166 * sin(0.662 * s) + -0.801 * sin(1.157 * s) + -0.943 * s + -0.376 * s^2",
             0, "cos"),
            ("0.682 * cos(0.794 * s) + 0.589 * cos(0.499 * s) + -0.233 * s + 0.497 * s^2",
             0, "cos"),
            ("1.923 * sin(0.741 * s) + 0.377 * s + -0.111 * s^2", 2, "cos"),
            ("-1.46 * cos(0.907 * s) + -0.38 * s + -0.014 * s^2", 3, "sin"),
            ("1.558 * sin(1.97 * s) + 0.143 * s + -0.178 * s^2", 3, "cos"),
            ("0.377 * cos(1.453 * s) + -0.273 * s^2", 2, "cos"),
            ("0.493 * sin(1.991 * s) + 0.574 * s", 3, "cos"),
        ]

    @pytest.mark.parametrize("mk", [sphere(1.0), catenoid(1.0), torus(3.0, 1.0), sphere(100.0)])
    def test_profiles_match_parsed_labels(self, mk):
        # The closed-form profiles have the bits of the expression evaluator
        # on each parsed label, also below s = 0 and at -0.0, and the labels
        # and draws equal those of the text-built oracle.  Seeds 328, 596 and
        # 1788 draw a coefficient that rounds to -0.0 in an s^2, an s and a
        # trigonometric term.
        curve = mk.curve
        samples = sample_regular(curve, 40)
        points = np.concatenate((samples, -samples, [0.0, -0.0, -7.5]))
        signed_zero_slots = set()
        for seed in (*range(51), 328, 596, 1788):
            fields = random_fields(curve, np.random.default_rng(seed), 10)
            texts = reference_random_fields(curve, np.random.default_rng(seed), 10)
            n = len(fields)
            labels = field_labels(fields)
            got = field_profiles(fields, np.repeat(np.arange(n), len(points)),
                                 np.tile(points, n)).reshape(3, n, len(points))
            zero = (fields.coeff == 0.0) & np.signbit(fields.coeff) & fields.present
            signed_zero_slots.update(np.nonzero(zero)[1].tolist())
            for i, (text, _, k, trig) in enumerate(texts):
                assert (labels[i], fields.harmonic[i], fields.trig[i]) == (text, k, trig)
                want = eval_jet3(parse(text), points)
                for channel, v in enumerate((want.v0, want.v1, want.v2)):
                    assert same_bits(got[channel, i], v), (seed, text, channel)
        assert signed_zero_slots == {0, 3, 4}

    def test_huge_points_overflow_only_in_an_s_squared_term(self):
        # With faults raised, as the CLI runs, a point whose square
        # overflows fails a field with an s^2 term and no other, as the
        # expression evaluator does on the labels.
        fields = random_fields(sphere(1.0).curve, np.random.default_rng(0), 8)
        s = np.array([1e200])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for i, label in enumerate(field_labels(fields)):
                which = np.array([i])
                if fields.present[i, 4]:
                    for evaluate in (lambda: field_profiles(fields, which, s),
                                     lambda: eval_jet3(parse(label), s)):
                        with pytest.raises(FloatingPointError):
                            evaluate()
                else:
                    got = field_profiles(fields, which, s)
                    want = eval_jet3(parse(label), s)
                    for channel, v in enumerate((want.v0, want.v1, want.v2)):
                        assert same_bits(got[channel], v), (label, channel)

    def test_equivalence_parses_nothing(self, monkeypatch):
        curve = torus(3.0, 1.0).curve
        calls = []
        real = expressions.parse

        def counting(text):
            calls.append(text)
            return real(text)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("revtype") and getattr(module, "parse", None) is real:
                monkeypatch.setattr(module, "parse", counting)
        _, details, _ = operator_equivalence_residual(curve, n_pairs=500)
        assert details["pairs"] == 500
        assert calls == []
