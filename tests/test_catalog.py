import math
import re

import numpy as np
import pytest

from revtype import (
    broken_diagonal,
    catenoid,
    curvatures,
    fit_matrix,
    sphere,
    torus,
    validate_profile,
)
from revtype import catalog, expressions
from revtype.expressions import parse
from revtype.geometry import profile_from_dict, profile_to_dict, sample_regular

from helpers import eval_value, require_regular, torus_gauss_curvature, torus_mean_curvature


class TestEntries:
    def test_all_valid_entries_validate(self):
        for name in catalog.names():
            entry = catalog.make(name)
            report = validate_profile(entry.curve)
            if entry.valid:
                assert report.passed, name
                assert report.max_arc_defect <= 1e-10, name
            else:
                assert not report.passed, name

    def test_catenoid_waist(self):
        curve = catenoid(1.0).curve
        assert eval_value(curve.f, 0.0, curve.params_dict) == pytest.approx(1.0)
        assert eval_value(curve.g, 0.0, curve.params_dict) == pytest.approx(0.0)

    def test_catenoid_scaled(self):
        curve = catenoid(2.0).curve
        assert eval_value(curve.f, 2.0, curve.params_dict) == pytest.approx(2.0 * math.sqrt(2.0))

    def test_catenoid_arclength_identity(self):
        report = validate_profile(catenoid(1.0).curve, n_samples=101)
        assert report.max_arc_defect <= 1e-12

    def test_sphere_equator(self):
        curve = sphere(1.0).curve
        jets = require_regular(curve, math.pi / 2)
        H, K = curvatures(jets)
        assert jets.f.v0 == pytest.approx(1.0)
        assert H == pytest.approx(1.0, abs=1e-12)
        assert K == pytest.approx(1.0, abs=1e-12)

    def test_sphere_quotient_constant(self):
        curve = sphere(2.0).curve
        for s in sample_regular(curve, 15):
            H, K = curvatures(require_regular(curve, s))
            assert 2.0 * H / K == pytest.approx(4.0, rel=1e-13)

    def test_sphere_pole_collar(self):
        curve = sphere(1.0).curve
        assert curve.s_min == pytest.approx(0.05)
        assert curve.s_max == pytest.approx(math.pi - 0.05)

    def test_torus_closed_curvatures(self):
        entry = torus(3.0, 1.0)
        for s in sample_regular(entry.curve, 21):
            H, K = curvatures(require_regular(entry.curve, s))
            assert K == pytest.approx(torus_gauss_curvature(s, 3.0, 1.0), rel=1e-11)
            assert H == pytest.approx(torus_mean_curvature(s, 3.0, 1.0), rel=1e-11)

    def test_torus_outer_equator(self):
        entry = torus(3.0, 1.0)
        jets = require_regular(entry.curve, 0.0)
        H, K = curvatures(jets)
        assert jets.f.v0 == pytest.approx(4.0)
        assert K == pytest.approx(0.25)
        assert H == pytest.approx(0.625)

    def test_known_truth_matches_fit(self):
        for name in catalog.names():
            entry = catalog.make(name)
            if not entry.valid or entry.expected_verdict is None:
                continue
            report = fit_matrix(entry.curve)
            assert report.verdict == entry.expected_verdict, name
            if entry.known_matrix is not None:
                assert np.allclose(report.matrix, entry.known_matrix, atol=1e-8), name


class TestGuards:
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_catenoid_waist_positive(self, bad):
        with pytest.raises(ValueError):
            catenoid(bad)

    @pytest.mark.parametrize("bad", [0.0, -2.0])
    def test_sphere_radius_positive(self, bad):
        with pytest.raises(ValueError):
            sphere(bad)

    def test_torus_radii_ordered(self):
        with pytest.raises(ValueError):
            torus(1.0, 2.0)
        with pytest.raises(ValueError):
            torus(3.0, 0.0)

    def test_make_unknown_surface(self):
        with pytest.raises(ValueError, match="unknown catalog surface"):
            catalog.make("unduloid")

    def test_make_unknown_parameter(self):
        with pytest.raises(ValueError, match="does not take parameter"):
            catalog.make("sphere", {"c": 1.0})

    @pytest.mark.parametrize("name, key, value", [
        ("sphere", "r", math.nan),
        ("sphere", "r", math.inf),
        ("catenoid", "c", math.inf),
        ("catenoid", "half_width", -math.inf),
        ("torus", "R", math.nan),
    ])
    def test_make_names_a_non_finite_parameter(self, name, key, value):
        with pytest.raises(ValueError, match=f"parameter '{key}' must be finite, got {value}"):
            catalog.make(name, {key: value})


class TestExport:
    def test_names_listed(self):
        assert {"catenoid", "sphere", "torus", "broken-diagonal"} <= set(catalog.names())

    def test_make_with_cli_parameter_names(self):
        entry = catalog.make("torus", {"R": 4.0, "r": 0.5})
        assert "torus" in entry.curve.name
        assert require_regular(entry.curve, 0.0).f.v0 == pytest.approx(4.5)

    def test_profile_format_roundtrip(self):
        for name in ("catenoid", "sphere", "torus"):
            curve = catalog.make(name).curve
            assert profile_from_dict(profile_to_dict(curve)) == curve

    def test_broken_entry_flagged(self):
        assert not broken_diagonal().valid


class TestLabels:
    @pytest.mark.parametrize("entry, label", (
        (sphere(1.0), "sphere(r=1)"),
        (sphere(1e-160), "sphere(r=1e-160)"),
        (torus(6.5e168, 1.0), "torus(R=6.5e+168,r=1)"),
        (catenoid(1.0), "catenoid(c=1)"),
        (catenoid(1.0, half_width=1.2e77), "catenoid(c=1,half_width=1.2e+77)"),
        (torus(2.3456789, 1.0000001), "torus(R=2.3456789,r=1.0000001)"),
    ))
    def test_pinned(self, entry, label):
        assert entry.curve.name == label

    @pytest.mark.parametrize("name, params", (
        ("torus", {"R": 2.3456789, "r": 1.0000001}),
        ("torus", {"R": 3.0, "r": 1.0}),
        ("torus", {"R": 6.5e168, "r": 0.1 + 0.2}),
        ("sphere", {"r": 1.0 / 3.0}),
        ("sphere", {"r": 1e-160}),
        ("sphere", {"r": 123456.5}),
        ("catenoid", {"c": 1.0, "half_width": 1.2e77}),
        ("catenoid", {"c": 4.1e-88}),
        ("catenoid", {"c": 0.7000001, "half_width": 2.00000001}),
    ))
    def test_label_reads_back_as_the_parameters(self, name, params):
        label = catalog.make(name, params).curve.name
        assert label.startswith(f"{name}(") and label.endswith(")")
        read = {key: float(value) for key, value in re.findall(r"(\w+)=([^,)]+)", label)}
        assert read == params


# The profile texts of each catalog surface, as `catalog export` prints them.
_TEXTS = {
    "catenoid": ("sqrt(c^2 + s^2)", "c * asinh(s / c)"),
    "sphere": ("r * sin(s / r)", "-r * cos(s / r)"),
    "torus": ("R + r * cos(s / r)", "r * sin(s / r)"),
    "broken-diagonal": ("s", "s"),
}


def _drawn_params(rng: np.random.Generator) -> list:
    """Ten parameter sets per surface that takes any, drawn from the ranges
    of the benchmark's requests."""
    draws = []
    for _ in range(10):
        draws += [("torus", {"R": rng.uniform(2.0, 6.0), "r": rng.uniform(0.3, 1.5)}),
                  ("sphere", {"r": rng.uniform(0.3, 6.0)}),
                  ("catenoid", {"c": rng.uniform(0.3, 4.0)}),
                  ("catenoid", {"c": rng.uniform(0.3, 4.0), "half_width": rng.uniform(0.1, 5.0)})]
    return draws


class TestParsedOnce:
    """Each catalog profile is parsed once, at import: every entry of a kind
    holds the same two trees, with its parameters bound at evaluation."""

    def test_trees_are_the_parsed_texts(self):
        assert set(_TEXTS) == set(catalog.names())
        for name, (f, g) in _TEXTS.items():
            curve = catalog.make(name).curve
            assert (curve.f, curve.g) == (parse(f), parse(g)), name
            doc = profile_to_dict(curve)
            assert (doc["f"], doc["g"]) == (f, g), name

    def test_make_parses_nothing(self, monkeypatch):
        want = {name: (parse(f), parse(g)) for name, (f, g) in _TEXTS.items()}

        class Refuse:
            def __init__(self, text):
                raise AssertionError(f"parsed {text!r}")

        monkeypatch.setattr(expressions, "_Parser", Refuse)
        with pytest.raises(AssertionError, match="parsed 's'"):
            parse("s")
        defaults = [(name, {}) for name in catalog.names()]
        for name, params in defaults + _drawn_params(np.random.default_rng(3)):
            curve = catalog.make(name, params).curve
            assert (curve.f, curve.g) == want[name], (name, params)

    def test_entries_of_a_kind_share_their_trees(self):
        first = catalog.make("torus", {"R": 3.0, "r": 1.0}).curve
        second = catalog.make("torus", {"R": 4.5, "r": 0.25}).curve
        assert first.f is second.f and first.g is second.g
        assert first.params != second.params
        # Bound at evaluation: the outer equators are R + r apart from the axis.
        assert eval_value(first.f, 0.0, first.params_dict) == 4.0
        assert eval_value(second.f, 0.0, second.params_dict) == 4.75
