import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import revtype
from revtype import beltrami, catalog, classify, cli, expressions, geometry
from revtype.cli import main

from helpers import (
    per_cell_bounds,
    reference_eval_jet3,
    reference_fit,
    reference_lattice_minimum,
    reference_operator_equivalence_residual,
    reference_position_identity_residual,
    reference_sample_regular,
    reference_scan,
    subdivision_certifies,
)

VERIFY_CHECKS = tuple(cli.VERIFY_TOLERANCES)


def run(argv, capsys=None):
    code = main(argv)
    return code


def captured(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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


# Tube profile of torus(3, 1) without the catalog's exclusion collars: it
# validates (parabolic margin 0.0156 over 101 samples), and the two rows of
# a 2xN grid fall exactly on its parabolic circles.
TORUS_NO_COLLARS = {"name": "torus-no-collars", "f": "R + r * cos(s / r)",
                    "g": "r * sin(s / r)", "s_min": -math.pi, "s_max": math.pi,
                    "params": {"R": 3.0, "r": 1.0}}
# Axis stretched by 2, so f'^2 + g'^2 != 1 although no point is parabolic.
STRETCHED_TORUS = {**TORUS_NO_COLLARS, "name": "stretched-torus", "g": "2*r*sin(s/r)"}


def _profile_file(tmp_path, doc) -> str:
    path = tmp_path / f"{doc['name']}.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestFailClosed:
    @pytest.mark.parametrize("check", VERIFY_CHECKS)
    def test_no_usable_points(self, tmp_path, check):
        if check == "operator-equivalence":
            # phi' = 1/r = 0.01 is under the draw margin, so no draw is usable
            surface = ["--catalog", "sphere", "--param", "r=100"]
        else:
            surface = ["--profile", _profile_file(tmp_path, TORUS_NO_COLLARS), "--grid", "2x4"]
        out = tmp_path / "check.json"
        code = main(["verify", check, *surface, "--lambda", "2", "--mu", "2",
                     "--pairs", "20", "--out", str(out)])
        assert code == 2
        payload = json.loads(out.read_text())
        assert payload["passed"] is False
        assert payload["reason"]
        assert payload["max_residual"] is None
        assert -1.0 not in list(_numbers(payload))

    @pytest.mark.parametrize("check", VERIFY_CHECKS)
    def test_details_keep_their_keys(self, tmp_path, check):
        if check == "operator-equivalence":
            empty = ["--catalog", "sphere", "--param", "r=100"]
        else:
            empty = ["--profile", _profile_file(tmp_path, TORUS_NO_COLLARS), "--grid", "2x4"]
        reports = []
        for surface in (["--catalog", "torus", "--grid", "8x8"], empty):
            _, out, _ = captured(["verify", check, *surface, "--lambda", "2", "--mu", "2",
                                  "--pairs", "20"])
            reports.append(json.loads(out))
        usable, none = reports
        assert usable["max_residual"] is not None and none["max_residual"] is None
        assert usable["details"].keys() == none["details"].keys()
        assert usable["tolerance"] == none["tolerance"] == cli.VERIFY_TOLERANCES[check]

    @pytest.mark.parametrize("check", VERIFY_CHECKS)
    @pytest.mark.parametrize("surface", ("broken-diagonal", "stretched-torus"))
    def test_invalid_profile_is_input_error(self, tmp_path, capsys, check, surface):
        if surface == "broken-diagonal":
            source = ["--catalog", surface]
        else:
            source = ["--profile", _profile_file(tmp_path, STRETCHED_TORUS)]
        assert main(["verify", check, *source, "--lambda", "2", "--mu", "2",
                     "--pairs", "20"]) == 1
        assert "profile validation FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize("check", VERIFY_CHECKS)
    def test_no_usable_points_csv(self, tmp_path, check):
        if check == "operator-equivalence":
            surface = ["--catalog", "sphere", "--param", "r=100"]
        else:
            surface = ["--profile", _profile_file(tmp_path, TORUS_NO_COLLARS), "--grid", "2x4"]
        code, out, err = captured(["verify", check, *surface, "--lambda", "2", "--mu", "2",
                                   "--pairs", "20", "--format", "csv"])
        assert (code, out, err) == (2, "empty\r\nTrue\r\n", "")


def _readme_csv_columns() -> dict[str, list[str]]:
    """The CSV column list of each command as README states it, with
    ``lhs1..3`` spelled out."""
    text = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    listed = {}
    for command, names in re.findall(r"`([a-z-]+)` writes `([^`]+)`", text):
        listed[command] = []
        for name in names.split(", "):
            stem, _, last = name.partition("..")
            listed[command] += [f"{stem[:-1]}{k}" for k in range(1, int(last) + 1)] if last else [name]
    return listed


def _readme_verify_tolerances() -> dict[str, float]:
    """The default tolerance of each check as the README "Verify checks"
    table states it, in table order."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = text.split("### Verify checks", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `([a-z-]+)` \|.*\| `([^`]+)`[^|]*\|$", table, re.M)
    return {name: float(tol) for name, tol in rows}


class TestCheckTable:
    def test_choices_are_the_table(self):
        subs = next(a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction))
        check = next(a for a in subs.choices["verify"]._actions if a.dest == "check")
        assert list(check.choices) == list(cli.VERIFY_TOLERANCES)

    def test_readme_table_matches(self):
        readme = _readme_verify_tolerances()
        assert list(readme.items()) == list(cli.VERIFY_TOLERANCES.items())

    @pytest.mark.parametrize("check", VERIFY_CHECKS)
    def test_one_grid_pass_per_check(self, monkeypatch, check):
        calls = []
        grid_rows = geometry.grid_rows
        monkeypatch.setattr(geometry, "grid_rows",
                            lambda *a, **k: calls.append(a) or grid_rows(*a, **k))
        code, _, _ = captured(["verify", check, "--catalog", "torus", "--grid", "8x8",
                               "--lambda", "2", "--mu", "2", "--pairs", "20"])
        assert code in (0, 2)
        assert len(calls) == (check != "operator-equivalence")


class TestCsvOutput:
    SURFACE = ["--catalog", "torus", "--grid", "12x8", "--lambda", "2", "--mu", "2",
               "--pairs", "30"]

    def _points(self, check, payload):
        details = payload["details"]
        if check == "position-identity":
            return details["points_used"]
        if check == "curvature-quotient":
            return details["rows_used"]
        if check == "operator-equivalence":
            return details["pairs"]
        return len(geometry.grid_rows(catalog.make("torus").curve, 12)[0])

    @pytest.mark.parametrize("check", VERIFY_CHECKS)
    def test_verify_header_and_rows(self, check):
        _, report, _ = captured(["verify", check, *self.SURFACE])
        _, out, _ = captured(["verify", check, *self.SURFACE, "--format", "csv"])
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == _readme_csv_columns()[check]
        assert len(rows) - 1 == self._points(check, json.loads(report)) > 0

    def test_classify_header_and_rows(self):
        argv = ["classify", "--catalog", "sphere"]
        _, report, _ = captured(argv)
        _, out, _ = captured(argv + ["--format", "csv"])
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == _readme_csv_columns()["classify"]
        assert len(rows) - 1 == len(cli._flatten(json.loads(report)))

    def test_csv_peak_memory_near_json(self, tmp_path):
        argv = ["verify", "position-identity", "--catalog", "torus", "--grid", "64x1024",
                "--out", str(tmp_path / "report")]
        peaks = {}
        for fmt in ("json", "csv"):
            tracemalloc.start()
            try:
                assert captured(argv + ["--format", fmt])[0] == 0
                peaks[fmt] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["csv"] <= 1.25 * peaks["json"]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestDegenerateFit:
    @pytest.mark.parametrize("source", ("sphere", "torus-no-collars"))
    def test_null_not_nan(self, tmp_path, capsys, source):
        if source == "sphere":
            surface = ["--catalog", "sphere"]  # 2 rows x 4 angles = 8 points
        else:
            surface = ["--profile", _profile_file(tmp_path, TORUS_NO_COLLARS)]  # no points
        assert main(["classify", *surface, "--grid", "2x4"]) == 2
        payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        fit = payload["fit"]
        assert fit["verdict"] == "Inconclusive"
        for key in ("A", "lambda", "mu", "rel_residual"):
            assert fit[key] is None, key
        assert fit["structure"] == {"offdiag_max": None, "diag_split": None}
        assert payload["structure"]["ok"] is False
        if fit["n_points"]:
            assert fit["sup_lap"] > 0.0 and fit["sup_position"] > 0.0
        else:
            assert fit["sup_lap"] is None and fit["sup_position"] is None

    def test_nan_in_report_is_input_error(self, monkeypatch, capsys):
        fit_matrix = classify.fit_matrix
        monkeypatch.setattr(classify, "fit_matrix", lambda *a, **k: dataclasses.replace(
            fit_matrix(*a, **k), rel_residual=math.nan))
        assert main(["classify", "--catalog", "torus"]) == 1
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("error:")


_SURFACES = st.one_of(
    st.tuples(st.just("torus"), st.fixed_dictionaries(
        {"R": st.floats(2.0, 6.0), "r": st.floats(0.3, 1.5)})),
    st.tuples(st.just("sphere"), st.fixed_dictionaries({"r": st.floats(0.3, 6.0)})),
    st.tuples(st.just("catenoid"), st.fixed_dictionaries({"c": st.floats(0.3, 4.0)})),
)


class TestClassifyProperty:
    @settings(max_examples=40, deadline=None)
    @given(_SURFACES, st.integers(2, 40), st.integers(4, 64))
    def test_strict_report_and_reference_verdict(self, surface, n_s, n_theta):
        kind, params = surface
        argv = ["classify", "--catalog", kind, "--grid", f"{n_s}x{n_theta}"]
        for name, value in params.items():
            argv += ["--param", f"{name}={value!r}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2)
        assert "Traceback" not in err.getvalue()
        fit = json.loads(out.getvalue(), parse_constant=_reject_constant)["fit"]
        assert fit["rel_residual"] is None or fit["rel_residual"] >= 0.0
        ref = reference_fit(catalog.make(kind, params).curve, n_s, n_theta)
        assert fit["verdict"] == ref["verdict"]


# Number spellings on the command line, e-notation included.
_NUMBER_TEXT = ("{!r}", "{:e}", "{:.2f}", "{:.3E}")


@st.composite
def _scan_args(draw):
    """--step, --lambda-range and --mu-range texts with at most about 40
    lattice steps per axis. Spans are drawn in steps, whole or not, and
    may be slightly negative, which makes an empty range."""
    step = draw(st.floats(0.05, 2.0))
    argv = ["scan", "--step", draw(st.sampled_from(_NUMBER_TEXT[:2])).format(step)]
    for option in ("--lambda-range", "--mu-range"):
        lo = draw(st.floats(-10.0, 10.0))
        steps = draw(st.one_of(st.integers(0, 40).map(float), st.floats(-0.5, 40.0)))
        text = draw(st.sampled_from(_NUMBER_TEXT))
        argv += [option, text.format(lo), text.format(lo + steps * step)]
    return argv


class TestScanProperty:
    @settings(max_examples=30, deadline=None)
    @given(_scan_args())
    def test_strict_report_and_reference_cells(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("error:") and not out.getvalue()
            return
        cert = json.loads(out.getvalue(), parse_constant=_reject_constant)["certificate"]
        step = float(argv[2])
        lam_range, mu_range = (tuple(map(float, r)) for r in (argv[4:6], argv[7:9]))
        want = reference_scan(lam_range, mu_range, step)
        for key, value in want.items():
            assert cert[key] == (list(value) if isinstance(value, tuple) else value), key
        # Every box that interval subdivision certifies, the scan certifies.
        if subdivision_certifies(lam_range, mu_range, step):
            assert cert["cells_certified"] and cert["cell_failures"] == 0
        # The box's one corner bound agrees with a bound on every cell.
        got = (cert["cells_examined"], cert["cell_failures"], cert["certified_lower_bound"])
        if want["points_scanned"]:
            assert got == per_cell_bounds(lam_range, mu_range, step)
        else:
            assert got == (0, 0, None)


class TestNegativeENotation:
    def test_scan_ranges(self, tmp_path):
        out = tmp_path / "cert.json"
        assert main(["scan", "--lambda-range", "-2e0", "2", "--mu-range", "-1.5e-3", "1",
                     "--step", "0.5", "--out", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        assert config["lambda_range"] == [-2.0, 2.0]
        assert config["mu_range"] == [-1.5e-3, 1.0]

    def test_verify_lambda(self, tmp_path):
        out = tmp_path / "check.json"
        # The sphere's eigenvalue is 2, so lambda = -2 fails the check: exit 2.
        assert main(["verify", "eigen-system", "--catalog", "sphere", "--lambda", "-2e0",
                     "--mu", "2", "--out", str(out)]) == 2
        assert json.loads(out.read_text())["details"]["lambda"] == -2.0

    def test_classify_tolerance_reaches_validation(self, capsys):
        assert main(["classify", "--catalog", "sphere", "--tol-fit", "-1.5e-3"]) == 1
        assert "tol_fit must be positive" in capsys.readouterr().err


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

    @pytest.mark.parametrize("extra, named", (
        (["--lambda-range", "0", "inf"], "lam_range must be finite"),
        (["--step", "inf"], "step must be finite"),
        (["--step", "nan"], "step must be finite"),
        (["--lambda-range", "0", "1e200", "--mu-range", "0", "1e200", "--step", "1e199"],
         "overflow"),
        (["--lambda-range", "1e150", "2e150", "--mu-range", "-1e150", "0", "--step", "1e149"],
         "overflow"),
        (["--lambda-range", "1e17", "1.000000000000001e17", "--step", "1"],
         "step 1.0 is below the float spacing of lam_range"),
    ))
    def test_non_finite_is_input_error(self, capsys, extra, named):
        assert main(["scan", *extra]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert named in captured.err
        assert "Traceback" not in captured.err
        assert not captured.out

    def test_far_box_is_certified(self, capsys):
        # The lattice coefficients and the cell's U stay finite.
        assert main(["scan", "--lambda-range", "1e102", "1.99e102", "--mu-range", "-8e102",
                     "-7e102", "--step", "1e102"]) == 0
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert["cells_certified"] and cert["cells_examined"] == 1
        assert cert["certified_lower_bound"] > 0.0

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["scan", "--lambda-range", "-3", "3", "--mu-range", "-3", "3",
                "--step", "0.5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", (
        ["classify", "--catalog", "sphere"],
        ["classify", "--catalog", "sphere", "--format", "csv"],
        ["verify", "eigen-system", "--catalog", "sphere"],
        ["verify", "eigen-system", "--catalog", "sphere", "--format", "csv"],
        ["scan", "--lambda-range", "-1", "1", "--mu-range", "-1", "1", "--step", "0.5"],
        ["catalog", "export", "sphere"],
    ), ids=("classify-json", "classify-csv", "verify-json", "verify-csv", "scan",
            "catalog-export"))
    def test_missing_directory_is_input_error(self, tmp_path, capsys, argv):
        path = tmp_path / "missing" / "out.json"
        assert main([*argv, "--out", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert str(path) in captured.err
        assert "Traceback" not in captured.err
        assert not path.exists()


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

    @pytest.mark.parametrize("argv, message", [
        (["--catalog", "sphere", "--param", "r=nan"], "parameter 'r' must be finite, got nan"),
        (["--catalog", "catenoid", "--param", "c=inf"], "parameter 'c' must be finite, got inf"),
        (["--catalog", "torus", "--param", "R=-inf"], "parameter 'R' must be finite, got -inf"),
    ])
    def test_non_finite_catalog_parameter_named(self, argv, message):
        assert captured(["classify", *argv]) == (1, "", f"error: {message}\n")

    def test_overflowing_domain_named(self, tmp_path):
        doc = {"name": "line", "f": "s", "g": "0 * s", "s_min": -1e308, "s_max": 1e308}
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps(doc))
        code, out, err = captured(["classify", "--profile", str(profile)])
        assert (code, out) == (1, "")
        assert err.startswith("error: bad profile file")
        assert err.endswith("domain (-1e+308, 1e+308) has no finite length\n")

    @pytest.mark.parametrize("field", ("name", "f", "g"))
    @pytest.mark.parametrize("value", (None, True, 7, ["s"], {"a": 1}),
                             ids=("null", "true", "7", "list", "object"))
    def test_non_string_profile_field(self, tmp_path, field, value):
        doc = {**TORUS_NO_COLLARS, field: value}
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps(doc))
        code, out, err = captured(["classify", "--profile", str(profile)])
        assert (code, out) == (1, "")
        assert err.startswith("error: bad profile file") and f"'{field}'" in err

    @pytest.mark.parametrize("check", VERIFY_CHECKS)
    def test_fully_excluded_profile(self, tmp_path, capsys, check):
        doc = {"name": "gone", "f": "sqrt(1 + s^2)", "g": "asinh(s)",
               "s_min": -1.0, "s_max": 1.0, "excluded_intervals": [[-2.0, 2.0]]}
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps(doc))
        assert main(["verify", check, "--profile", str(profile),
                     "--lambda", "0", "--mu", "0"]) == 1
        assert "regular subdomain is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("value", (5, {"lo": -0.5, "hi": 0.5}))
    def test_excluded_intervals_not_a_list(self, tmp_path, capsys, value):
        doc = {"name": "cat", "f": "sqrt(1 + s^2)", "g": "asinh(s)",
               "s_min": -1.0, "s_max": 1.0, "excluded_intervals": value}
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps(doc))
        assert main(["classify", "--profile", str(profile)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad profile file {profile}: excluded intervals")
        assert "Traceback" not in err

    @pytest.mark.parametrize("f", ("2 + s^(2^(10^6))", "2 + s^(1e300^1e300)"))
    def test_huge_exponent_fails_fast(self, tmp_path, f):
        # In a child process with a timeout: without the exponent bound the
        # first text takes seconds and the second does not finish.
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps({**TORUS_NO_COLLARS, "f": f}))
        timed = ("import sys, time; from revtype.cli import main; t = time.perf_counter(); "
                 "code = main(sys.argv[1:]); print(time.perf_counter() - t); sys.exit(code)")
        src = str(Path(revtype.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-c", timed, "classify", "--profile", str(profile)],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: bad profile file {profile}: exponent too large")
        assert float(proc.stdout) < 1.0

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


_BUDGET_SURFACES = (
    ["--catalog", "torus", "--param", "R=3", "--param", "r=1"],
    ["--catalog", "sphere", "--param", "r=1.5"],
    ["--catalog", "catenoid", "--param", "c=0.8"],
)
# At seed 0 and 20 pairs every surface's first 20 draws are usable, so one
# screening pass serves; the torus at 600 pairs rejects draws near its
# collars and needs a second.
_BUDGET_PAIRS = 20


class TestEvaluationBudget:
    """A command evaluates each expression once per sample set: f and g once
    for the 101-sample validation and once for the check's own points.
    Operator equivalence evaluates its random fields in closed form, with
    no expression pass."""

    @pytest.fixture
    def passes(self, monkeypatch):
        count = []
        real = expressions.eval_jet3

        def counting(*args, **kwargs):
            count.append(args[0])
            return real(*args, **kwargs)

        for module in list(sys.modules.values()):
            if (module.__name__.startswith("revtype")
                    and getattr(module, "eval_jet3", None) is real):
                monkeypatch.setattr(module, "eval_jet3", counting)
        return count

    @pytest.mark.parametrize("fmt", ("json", "csv"))
    @pytest.mark.parametrize("command", (*VERIFY_CHECKS, "classify"))
    @pytest.mark.parametrize("surface", _BUDGET_SURFACES, ids=lambda s: s[1])
    def test_four_passes_per_command(self, passes, surface, command, fmt):
        if command == "classify":
            argv = ["classify", *surface]
        else:
            argv = ["verify", command, *surface, "--lambda", "2", "--mu", "2",
                    "--pairs", str(_BUDGET_PAIRS)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--format", fmt]) in (0, 2)
        assert out.getvalue()
        assert len(passes) == 4


class TestSharedParser:
    """``main`` parses with the parser built at import, and a parse leaves
    nothing behind in it for the next call."""

    def test_main_never_builds_a_parser(self, monkeypatch):
        calls = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
        for argv, code in ((["classify", "--catalog", "sphere"], 0),
                           (["verify", "curvature-quotient", "--catalog", "catenoid"], 0),
                           (["scan", "--step", "0.5"], 0),
                           (["verify", "no-such-check"], 1)):
            assert captured(argv)[0] == code
        assert calls == []

    def test_mixed_calls_leave_no_state(self):
        first = ["classify", "--catalog", "torus", "--param", "R=4", "--param", "r=1.5"]
        sequence = (
            (first, 0),
            (["classify", "--catalog", "sphere", "--param", "r=2", "--format", "csv"], 0),
            (["verify", "eigen-system", "--catalog", "sphere", "--tol", "1e-6",
              "--lambda", "2", "--mu", "2", "--seed", "5"], 0),
            (["verify", "operator-equivalence", "--catalog", "catenoid", "--param", "c=2",
              "--pairs", "20"], 0),
            (["scan", "--lambda-range", "-1", "1", "--mu-range", "-1", "1", "--step", "0.5"], 0),
            (["catalog", "export", "catenoid", "--param", "c=3"], 0),
            (["classify", "--catalog", "torus", "--param", "R=5", "--tol-fit", "nan"], 1),
        )
        results = []
        for argv, code in sequence:
            results.append(captured(argv))
            assert results[-1][0] == code, argv
        assert captured(first) == results[0]


_NUMBER_OPTIONS = ("--tol-arc", "--tol-parab", "--tol-fit", "--tol-struct", "--tol",
                   "--lambda", "--mu")


class TestFiniteOptions:
    @pytest.mark.parametrize("value", ("nan", "inf", "=-inf", "1e400", "abc"))
    @pytest.mark.parametrize("command, option", (
        *((["classify"], option) for option in _NUMBER_OPTIONS[:4]),
        *((["verify", "eigen-system"], option) for option in _NUMBER_OPTIONS),
    ), ids=lambda x: x[0] if isinstance(x, list) else x)
    def test_rejected_at_parse_naming_the_option(self, command, option, value):
        value = [option + value] if value.startswith("=") else [option, value]
        code, out, err = captured([*command, "--catalog", "sphere", *value])
        assert code == 1
        assert f"argument {option}: expected a finite number" in err
        assert "Traceback" not in err and not out

    def test_finite_values_still_reach_the_command(self):
        code, out, _ = captured(["verify", "eigen-system", "--catalog", "sphere",
                                 "--lambda=-2e0", "--mu", "2", "--tol", "1e-3"])
        assert code == 2
        report = json.loads(out)
        assert report["details"]["lambda"] == -2.0 and report["tolerance"] == 1e-3

    @pytest.mark.parametrize("value", ("0", "-1", "-1e-300"))
    @pytest.mark.parametrize("command, option, named", (
        *((["classify"], option, option[2:].replace("-", "_")) for option in _NUMBER_OPTIONS[:4]),
        (["verify", "position-identity"], "--tol", "--tol"),
    ), ids=lambda x: x[0] if isinstance(x, list) else x)
    def test_tolerance_must_be_positive(self, command, option, named, value):
        # The sphere's position residual is about 1e-15: a tolerance of -1
        # used to report it above tolerance, exit 2.
        code, out, err = captured([*command, "--catalog", "sphere", f"{option}={value}"])
        assert code == 1 and not out
        assert err == f"error: {named} must be positive\n"


class TestWorkBudget:
    @pytest.mark.parametrize("argv, named", (
        (["classify", "--catalog", "sphere", "--grid", "1024x1025"],
         "--grid points 1049600 is over the work budget of 1048576"),
        (["verify", "position-identity", "--catalog", "sphere", "--grid", "100000000x4"],
         "--grid points 400000000"),
        (["classify", "--catalog", "sphere", "--samples", "4194305"], "--samples 4194305"),
        (["verify", "operator-equivalence", "--catalog", "sphere", "--pairs", "16385"],
         "--pairs 16385"),
        (["scan", "--lambda-range", "0", "4096", "--mu-range", "0", "4096", "--step", "1"],
         "1.68e+07 lattice points"),
        (["scan", "--lambda-range", "0", "1", "--mu-range", "0", "0", "--step", "1e-9"],
         "lattice points"),
    ))
    def test_over_budget_allocates_nothing(self, monkeypatch, argv, named):
        def forbidden(*args, **kwargs):
            raise AssertionError("a request over the budget was sampled")

        for name in ("validate_profile", "sample_regular", "grid_rows"):
            monkeypatch.setattr(geometry, name, forbidden)
        monkeypatch.setattr(classify, "_lattice", forbidden)
        code, out, err = captured(argv)
        assert code == 1
        assert err.startswith("error:") and named in err and "work budget" in err
        assert not out

    def test_benchmark_sizes_well_inside(self):
        # The largest sizes that the benchmark and the tests run use at
        # most a quarter of each bound: 64x4096 grids, the default 101
        # validation samples and 1000 pairs, and a 401 x 401 scan lattice.
        for size, bound in ((64 * 4096, cli.MAX_GRID_POINTS), (101, cli.MAX_SAMPLES),
                            (1000, cli.MAX_PAIRS), (401 ** 2, classify.MAX_SCAN_POINTS)):
            assert 4 * size <= bound


_NUMBER_TEXTS = st.one_of(
    st.floats(-10.0, 10.0).map(repr),
    st.floats(1e-12, 1.0).map("{:e}".format),
    st.sampled_from(("nan", "inf", "-inf", "1e400", "abc", "", "0", "-0.0")),
)
_VERIFY_OPTION = st.one_of(
    st.tuples(st.sampled_from(_NUMBER_OPTIONS), _NUMBER_TEXTS),
    st.tuples(st.just("--pairs"), st.integers(-3, 40).map(str)),
    st.tuples(st.just("--seed"), st.integers(-3, 1000).map(str)),
    st.tuples(st.just("--grid"), st.one_of(
        st.tuples(st.integers(0, 10), st.integers(0, 10)).map("{0[0]}x{0[1]}".format),
        st.sampled_from(("banana", "4x", "x4", "0x0")))),
    st.tuples(st.just("--catalog"), st.sampled_from(
        ("torus", "sphere", "catenoid", "broken-diagonal", "unduloid"))),
    st.tuples(st.just("--param"), st.sampled_from(("R=3", "r=1", "c=0.5", "r=-1", "x=1", "r"))),
)


class TestVerifyProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(VERIFY_CHECKS),
           st.sampled_from(("torus", "sphere", "catenoid")),
           st.lists(_VERIFY_OPTION, max_size=5))
    def test_exit_code_and_strict_report(self, check, surface, options):
        argv = ["verify", check, "--catalog", surface, "--pairs", "20"]
        for option in options:
            argv += option
        code, out, err = captured(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 1:
            assert err and not out
        else:
            report = json.loads(out, parse_constant=_reject_constant)
            assert report["passed"] is (code == 0)


_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10), st.floats(), st.text(max_size=6),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)
# Numbers and near-numbers for a perturbed field: scaled or shifted values,
# non-finite floats (json writes NaN and Infinity) and other JSON types.
_PERTURBATIONS = st.one_of(
    st.floats(-3.0, 3.0).map(lambda k: ("scale", k)),
    st.floats(-1e-3, 1e-3).map(lambda d: ("shift", d)),
    _JSON_SCALARS.map(lambda v: ("set", v)),
)


@st.composite
def _profile_documents(draw):
    """A catalog export with up to three edits: a field dropped, an extra
    field, a field of another JSON type, a perturbed number, or random
    excluded intervals; or, rarely, a document that is not an object."""
    kind, params = draw(_SURFACES)
    doc = geometry.profile_to_dict(catalog.make(kind, params).curve)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("drop", "extra", "retype", "perturb", "excluded", "whole")))
        if edit == "drop":
            doc.pop(draw(st.sampled_from(geometry.PROFILE_FIELDS)), None)
        elif edit == "extra":
            doc[draw(st.text(max_size=8))] = draw(_JSON_VALUES)
        elif edit == "retype":
            doc[draw(st.sampled_from(geometry.PROFILE_FIELDS))] = draw(_JSON_VALUES)
        elif edit == "perturb":
            params = doc.get("params") if isinstance(doc.get("params"), dict) else {}
            where, name = draw(st.sampled_from(
                [(doc, "s_min"), (doc, "s_max")] + [(params, k) for k in sorted(params)]))
            how, value = draw(_PERTURBATIONS)
            old = where.get(name)
            if how == "set" or not isinstance(old, float):
                where[name] = value
            else:
                where[name] = old * value if how == "scale" else old + value
        elif edit == "excluded":
            doc["excluded_intervals"] = draw(st.lists(
                st.lists(st.one_of(st.floats(-4.0, 4.0), _JSON_SCALARS), max_size=3),
                max_size=3))
        else:
            return draw(_JSON_VALUES)
    return doc


# Parameters too large or too small to evaluate: at some grid point a jet,
# a form or a norm overflows, divides by zero or forms nan.
_EXTREME_SURFACES = (
    ("torus", "R=6.5e168", "r=1"),
    ("torus", "R=1.34e154", "r=1"),
    ("catenoid", "c=4.1e-88"),
    ("catenoid", "half_width=1.2e77"),
    ("sphere", "r=1e-160"),
    ("sphere", "r=1e160"),
    ("catenoid", "c=1e-170"),
)


class TestFloatingPointFaults:
    @pytest.mark.parametrize("command", (["classify"], *(["verify", c] for c in VERIFY_CHECKS)),
                             ids=lambda c: c[-1])
    @pytest.mark.parametrize("surface", _EXTREME_SURFACES, ids=lambda s: "-".join(s))
    def test_fault_is_an_input_error(self, command, surface):
        params = [x for p in surface[1:] for x in ("--param", p)]
        if command[0] == "verify":
            params += ["--lambda", "2", "--mu", "2"]  # so every check runs
        code, out, err = captured([*command, "--catalog", surface[0], *params])
        assert code in (0, 1, 2)
        assert "Warning" not in err and "Traceback" not in err
        if code == 1:
            label = catalog.make(surface[0], cli._parse_params(surface[1:])).curve.name
            stages = ("validation", "fit" if command == ["classify"] else command[-1])
            assert err.startswith(f"error: {label}: ") and not out
            assert err[len(f"error: {label}: "):].startswith(
                (*(f"{stage}: " for stage in stages), "profile validation FAILED"))

    @pytest.mark.parametrize("argv, message", (
        (["classify", "--catalog", "sphere", "--param", "r=1e-160"],
         "sphere(r=1e-160): validation: overflow encountered in multiply"),
        (["verify", "position-identity", "--catalog", "torus", "--param", "R=6.5e168",
          "--param", "r=1"],
         "torus(R=6.5e+168,r=1): position-identity: overflow encountered in multiply"),
        (["classify", "--catalog", "catenoid", "--param", "c=1e-170"],
         "catenoid(c=1e-170): validation: domain error at s=-1.98019801980198e-170: "
         "sqrt of a non-positive value in 'sqrt(c^2 + s^2)'"),
    ))
    def test_message_names_surface_and_stage(self, argv, message):
        assert captured(argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", (["classify"], *(["verify", c] for c in VERIFY_CHECKS)),
                             ids=lambda c: c[-1])
    def test_unbound_parameter_names_surface_and_stage(self, tmp_path, command):
        path = tmp_path / "unbound.json"
        path.write_text(json.dumps({"name": "unbound", "f": "a + cos(s)", "g": "sin(s)",
                                    "s_min": 0.1, "s_max": 1.0}))
        assert captured([*command, "--profile", str(path)]) == (
            1, "", "error: unbound: validation: unbound parameter 'a'\n")


class TestProfileDocumentProperty:
    @settings(deadline=None)
    @given(_profile_documents(), st.sampled_from(VERIFY_CHECKS))
    def test_exit_code_and_strict_report(self, tmp_path_factory, doc, check):
        path = str(tmp_path_factory.getbasetemp() / "fuzzed-profile.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (["classify", "--profile", path, "--grid", "8x8"],
                     ["verify", check, "--profile", path, "--grid", "8x8",
                      "--lambda", "2", "--mu", "2", "--pairs", "20"]):
            code, out, err = captured(argv)
            assert code in (0, 1, 2)
            assert "Traceback" not in err
            if code in (0, 2):
                json.loads(out, parse_constant=_reject_constant)


_TORUS = ["--catalog", "torus", "--param", "R=3", "--param", "r=1"]
_SAME_BYTES_COMMANDS = (
    *(["classify", "--catalog", name, "--grid", grid]
      for name in ("torus", "sphere", "catenoid") for grid in ("1024x16", "64x4096")),
    *(["verify", check, *_TORUS, "--lambda", "2", "--mu", "2", "--format", fmt]
      for check in VERIFY_CHECKS for fmt in ("json", "csv")),
    ["verify", "operator-equivalence", *_TORUS, "--pairs", "600", "--seed", "11"],
    *(["verify", "operator-equivalence", "--catalog", name, "--pairs", "500", "--seed", "5",
       "--format", fmt]
      for name in ("sphere", "catenoid") for fmt in ("json", "csv")),
    ["scan"],
    ["scan", "--step", "0.05"],
    # Shaped like the benchmark's scan requests: 10 x 10 at step 0.05, on the
    # lattice, holding the origin.
    *(["scan", "--step", "0.05", "--lambda-range", *lam, "--mu-range", *mu]
      for lam, mu in ((("-2.50", "7.50"), ("-8.05", "1.95")),
                      (("-5.10", "4.90"), ("-4.65", "5.35")),
                      (("-5.75", "4.25"), ("-2.40", "7.60")))),
)


class TestSameBytes:
    """The scalar paths of jet evaluation, the array sampler, the batched
    Beltrami checks and the scan's cut lattice pass change no output byte:
    each command prints the same with `eval_jet3` and `sample_regular`
    swapped for their all-jet, point-by-point oracles, operator equivalence
    for its per-field loop over parsed fields, the position identity for
    its stacked norm and the scan's lattice pass for the blocked pass over
    every point."""

    def test_oracles_print_the_same_bytes(self, monkeypatch):
        program = [captured(argv) for argv in _SAME_BYTES_COMMANDS]
        monkeypatch.setattr(geometry, "eval_jet3", reference_eval_jet3)
        monkeypatch.setattr(expressions, "eval_jet3", reference_eval_jet3)
        monkeypatch.setattr(geometry, "sample_regular", reference_sample_regular)
        monkeypatch.setattr(beltrami, "operator_equivalence_residual",
                            reference_operator_equivalence_residual)
        monkeypatch.setattr(beltrami, "position_identity_residual",
                            reference_position_identity_residual)
        monkeypatch.setattr(classify, "_lattice_minimum", reference_lattice_minimum)
        for argv, got in zip(_SAME_BYTES_COMMANDS, program):
            assert got[1], argv
            assert captured(argv) == got, argv
