import json
import math

import numpy as np
import pytest

from revtype.cli import main

VERIFY_CHECKS = (
    "position-identity",
    "curvature-quotient",
    "operator-equivalence",
    "eigen-system",
    "radius-rate",
)


def run(argv, capsys=None):
    code = main(argv)
    return code


class TestClassify:
    def test_sphere(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["classify", "--catalog", "sphere", "--param", "r=1",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["fit"]["verdict"] == "SphereType"
        assert np.allclose(payload["fit"]["A"], 2.0 * np.eye(3), atol=1e-8)
        assert payload["config"]["surface"] == "sphere(r=1)"
        assert payload["structure"]["ok"] is True

    def test_catenoid(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["classify", "--catalog", "catenoid", "--param", "c=1",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["fit"]["verdict"] == "NullType"

    def test_torus(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["classify", "--catalog", "torus", "--param", "R=3",
                     "--param", "r=1", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["fit"]["verdict"] == "NotCoordinateFiniteType"
        assert payload["fit"]["rel_residual"] >= 1e-2

    def test_validation_failure_is_input_error(self, capsys):
        assert main(["classify", "--catalog", "broken-diagonal"]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_profile_file_source(self, tmp_path):
        profile = tmp_path / "surface.json"
        assert main(["catalog", "export", "sphere", "--param", "r=2",
                     "--out", str(profile)]) == 0
        out = tmp_path / "report.json"
        assert main(["classify", "--profile", str(profile), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["fit"]["verdict"] == "SphereType"

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        assert main(["classify", "--catalog", "sphere", "--format", "csv",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("key,value")
        assert "fit.verdict" in text

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["classify", "--catalog", "torus", "--param", "R=3", "--param", "r=1"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestVerify:
    @pytest.mark.parametrize("surface, extra", [
        (["--catalog", "sphere", "--param", "r=1"], []),
        (["--catalog", "catenoid"], []),
        (["--catalog", "torus", "--param", "R=3", "--param", "r=1"], []),
    ])
    def test_position_identity(self, tmp_path, surface, extra):
        out = tmp_path / "check.json"
        code = main(["verify", "position-identity", *surface, *extra, "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["max_residual"] <= 1e-8

    def test_curvature_quotient(self, tmp_path):
        out = tmp_path / "check.json"
        assert main(["verify", "curvature-quotient", "--catalog", "sphere",
                     "--param", "r=2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["max_residual"] <= 1e-12

    def test_operator_equivalence(self, tmp_path):
        out = tmp_path / "check.json"
        assert main(["verify", "operator-equivalence", "--catalog", "catenoid",
                     "--pairs", "100", "--out", str(out)]) == 0

    def test_radius_rate_catenoid(self, tmp_path):
        out = tmp_path / "check.json"
        assert main(["verify", "radius-rate", "--catalog", "catenoid",
                     "--lambda", "0", "--mu", "0", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["max_residual"] <= 1e-10

    def test_eigen_system_defaults_from_catalog(self, tmp_path):
        out = tmp_path / "check.json"
        assert main(["verify", "eigen-system", "--catalog", "sphere",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["details"]["lambda"] == 2.0

    def test_eigen_system_fails_on_torus(self, tmp_path):
        out = tmp_path / "check.json"
        code = main(["verify", "eigen-system", "--catalog", "torus",
                     "--param", "R=3", "--param", "r=1",
                     "--lambda", "2", "--mu", "2", "--out", str(out)])
        assert code == 2
        assert json.loads(out.read_text())["passed"] is False

    def test_eigen_system_requires_lambda_mu_without_truth(self, capsys):
        code = main(["verify", "eigen-system", "--catalog", "torus",
                     "--param", "R=3", "--param", "r=1"])
        assert code == 1
        assert "--lambda" in capsys.readouterr().err

    def test_csv_rows(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["verify", "position-identity", "--catalog", "sphere",
                     "--grid", "6x4", "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("s,theta")
        assert len(lines) == 1 + 6 * 4


def _numbers(value):
    """Every number in a decoded JSON document."""
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


class TestFailClosed:
    @pytest.mark.parametrize("check", VERIFY_CHECKS)
    def test_no_usable_points(self, tmp_path, check):
        # every point of f = g = s is parabolic, so no check has anything to test
        out = tmp_path / "check.json"
        code = main(["verify", check, "--catalog", "broken-diagonal", "--lambda", "2",
                     "--mu", "2", "--pairs", "20", "--out", str(out)])
        assert code == 2
        payload = json.loads(out.read_text())
        assert payload["passed"] is False
        assert payload["reason"]
        assert payload["max_residual"] is None
        assert -1.0 not in list(_numbers(payload))


class TestScan:
    def test_default_box_certificate(self, tmp_path):
        out = tmp_path / "cert.json"
        assert main(["scan", "--lambda-range", "-2", "2", "--mu-range", "-2", "2",
                     "--step", "0.25", "--out", str(out)]) == 0
        cert = json.loads(out.read_text())["certificate"]
        assert cert["points_scanned"] > 0
        assert cert["cells_certified"] is True
        assert cert["min_max_coefficient"] > 0.1

    def test_single_point_reports_coefficients(self, tmp_path):
        out = tmp_path / "cert.json"
        assert main(["scan", "--lambda-range", "0", "0", "--mu-range", "2", "2",
                     "--out", str(out)]) == 0
        cert = json.loads(out.read_text())["certificate"]
        assert cert["argmin_coefficients"][2] == pytest.approx(12.0)

    def test_diagonal_point_skipped(self, tmp_path):
        out = tmp_path / "cert.json"
        assert main(["scan", "--lambda-range", "1", "1", "--mu-range", "1", "1",
                     "--out", str(out)]) == 0
        cert = json.loads(out.read_text())["certificate"]
        assert cert["points_scanned"] == 0

    def test_empty_range_is_input_error(self, capsys):
        assert main(["scan", "--lambda-range", "2", "-2",
                     "--mu-range", "0", "1"]) == 1

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["scan", "--lambda-range", "-3", "3", "--mu-range", "-3", "3",
                "--step", "0.5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCatalogCommand:
    def test_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        text = capsys.readouterr().out
        for name in ("catenoid", "sphere", "torus"):
            assert name in text

    def test_export_stdout(self, capsys):
        assert main(["catalog", "export", "catenoid"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"].startswith("catenoid")


class TestErrors:
    def test_unknown_catalog_name(self, capsys):
        assert main(["classify", "--catalog", "unduloid"]) == 1

    def test_bad_param_syntax(self, capsys):
        assert main(["classify", "--catalog", "sphere", "--param", "r:1"]) == 1

    def test_missing_surface(self, capsys):
        assert main(["classify"]) == 1

    def test_both_sources(self, tmp_path, capsys):
        profile = tmp_path / "p.json"
        profile.write_text("{}")
        assert main(["classify", "--catalog", "sphere", "--profile", str(profile)]) == 1

    def test_bad_profile_file(self, tmp_path, capsys):
        profile = tmp_path / "p.json"
        profile.write_text("{\"name\": \"x\"}")
        assert main(["classify", "--profile", str(profile)]) == 1

    @pytest.mark.parametrize("field, value, named", [
        ("s_min", "a", "s_min"),
        ("s_max", math.inf, "s_max"),
        ("params", {"c": math.nan}, "'c'"),
    ])
    def test_bad_numbers_in_profile(self, tmp_path, capsys, field, value, named):
        doc = {"name": "cat", "f": "sqrt(c^2 + s^2)", "g": "c * asinh(s / c)",
               "s_min": -2.0, "s_max": 2.0, "params": {"c": 1.0}}
        doc[field] = value
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps(doc))
        assert main(["classify", "--profile", str(profile)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("check", VERIFY_CHECKS)
    def test_fully_excluded_profile(self, tmp_path, capsys, check):
        doc = {"name": "gone", "f": "sqrt(1 + s^2)", "g": "asinh(s)",
               "s_min": -1.0, "s_max": 1.0, "excluded_intervals": [[-2.0, 2.0]]}
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps(doc))
        assert main(["verify", check, "--profile", str(profile),
                     "--lambda", "0", "--mu", "0"]) == 1
        assert "regular subdomain is empty" in capsys.readouterr().err

    def test_pairs_must_be_positive(self, capsys):
        assert main(["verify", "operator-equivalence", "--catalog", "sphere",
                     "--pairs", "0"]) == 1

    def test_profile_not_found(self, capsys):
        assert main(["classify", "--profile", "/nonexistent/x.json"]) == 1

    def test_bad_grid(self, capsys):
        assert main(["classify", "--catalog", "sphere", "--grid", "banana"]) == 1

    def test_tiny_grid_rejected(self, capsys):
        assert main(["classify", "--catalog", "sphere", "--grid", "1x4"]) == 1
        assert main(["classify", "--catalog", "sphere", "--grid", "8x3"]) == 1

    def test_usage_error_exit_code(self):
        assert main(["verify", "no-such-check", "--catalog", "sphere"]) == 1
