import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import shlex
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
    DEEP_TEXTS,
    POLAR_CAP,
    per_cell_bounds,
    reference_catalog_make,
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
_LAM_MU = ["--lambda", "2", "--mu", "2"]
# Each check's own options in the tests that run every check: lambda =
# mu = 2, since a torus or a profile file knows none, and 20 pairs.  At
# seed 0 the surfaces of `_BUDGET_SURFACES` find their 20 pairs in the first
# screening pass, 37 draws, as they find 600 in 653.
CHECK_OPTIONS = {
    "position-identity": [],
    "curvature-quotient": [],
    "operator-equivalence": ["--pairs", "20"],
    "eigen-system": _LAM_MU,
    "radius-rate": _LAM_MU,
}
# The same at operator-equivalence's default 1000 pairs.
DEFAULT_PAIRS_OPTIONS = {**CHECK_OPTIONS, "operator-equivalence": []}


def _size_option(check, grid) -> list[str]:
    """``--grid GRID`` for position-identity, ``--rows`` with GRID's n_s for
    the row checks, nothing for operator-equivalence, which draws its own
    points."""
    if check == "operator-equivalence":
        return []
    return ["--grid", grid] if check == "position-identity" else ["--rows", grid.split("x")[0]]


def _catalog_curve(surface):
    """The curve of ``surface``, ``["--catalog", NAME, "--param", NAME=VALUE, ...]``."""
    params = dict(param.split("=") for param in surface[3::2])
    return catalog.make(surface[1], {name: float(value) for name, value in params.items()}).curve


def run(argv, capsys=None):
    code = main(argv)
    return code


def _child_env() -> dict:
    """The environment with this revtype first on PYTHONPATH, for a child
    Python process."""
    src = str(Path(revtype.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


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

    def test_curvature_quotient_fails_off_arclength(self, tmp_path):
        code, out, _ = captured(["verify", "curvature-quotient", "--profile",
                                 _profile_file(tmp_path, SPEED_TWO_SPHERE), "--tol-arc", "10"])
        assert code == 2
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["max_residual"] == pytest.approx(2.75 / 2.25, rel=1e-12)

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

    def test_position_identity_does_not_depend_on_the_circle(self):
        # The operators run once per row, so the circle changes only
        # `n_theta` and `points_used`, and the JSON report's peak memory
        # barely moves with it.
        reports, peaks = [], []
        for grid in ("256x4", "256x4096"):
            tracemalloc.start()
            try:
                code, out, _ = captured(["verify", "position-identity", "--catalog", "torus",
                                         "--grid", grid])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
            reports.append(json.loads(out))
        few, many = reports
        assert (few["config"].pop("n_theta"), many["config"].pop("n_theta")) == (4, 4096)
        assert (few["details"].pop("points_used"), many["details"].pop("points_used")) == (
            256 * 4, 256 * 4096)
        assert few == many and few["details"]["at_theta"] == 0.0
        assert abs(peaks[1] - peaks[0]) <= 2**20

    @pytest.mark.parametrize("check, options", (
        ("curvature-quotient", []), ("eigen-system", _LAM_MU), ("radius-rate", _LAM_MU)))
    def test_row_checks_count_their_rows(self, check, options):
        # At tol_parab 0.05, 20 of the torus's 1000 rows are parabolic.
        code, out, _ = captured(["verify", check, "--catalog", "torus", "--tol-parab", "0.05",
                                 "--rows", "1000", *options])
        report = json.loads(out)
        assert code == (0 if check == "curvature-quotient" else 2)
        assert report["config"]["n_s"] == 1000 and "n_theta" not in report["config"]
        assert (report["details"]["rows_used"], report["details"]["rows_excluded"]) == (980, 20)

    def test_row_check_takes_more_rows_than_a_grid(self):
        # 2048 rows would be over the budget as a 2048x1024 grid.
        code, out, _ = captured(["verify", "radius-rate", "--catalog", "sphere",
                                 "--rows", "2048"])
        assert code == 0 and json.loads(out)["details"]["rows_used"] == 2048

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
# Radius 2 at speed 2: regular, but f'^2 + g'^2 = 4, so 1/phi' + f/sin(phi)
# reads 1.25 where the forms give 2H/K = 4.
SPEED_TWO_SPHERE = {"name": "speed-2-sphere", "f": "2 * sin(s)", "g": "-2 * cos(s)",
                    "s_min": 0.1, "s_max": 3.0}


def _profile_file(tmp_path, doc) -> str:
    path = tmp_path / f"{doc['name']}.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestFailClosed:
    @pytest.mark.parametrize("check", VERIFY_CHECKS)
    def test_no_usable_points(self, tmp_path, check):
        if check == "operator-equivalence":
            surface = ["--profile", _profile_file(tmp_path, POLAR_CAP)]
        else:
            surface = ["--profile", _profile_file(tmp_path, TORUS_NO_COLLARS),
                       *_size_option(check, "2x4")]
        out = tmp_path / "check.json"
        code = main(["verify", check, *surface, *CHECK_OPTIONS[check], "--out", str(out)])
        assert code == 2
        payload = json.loads(out.read_text())
        assert payload["passed"] is False
        assert payload["reason"]
        assert payload["max_residual"] is None
        assert -1.0 not in list(_numbers(payload))

    @pytest.mark.parametrize("check", VERIFY_CHECKS)
    def test_details_keep_their_keys(self, tmp_path, check):
        if check == "operator-equivalence":
            empty = ["--profile", _profile_file(tmp_path, POLAR_CAP)]
        else:
            empty = ["--profile", _profile_file(tmp_path, TORUS_NO_COLLARS),
                     *_size_option(check, "2x4")]
        reports = []
        for surface in (["--catalog", "torus", *_size_option(check, "8x8")], empty):
            _, out, _ = captured(["verify", check, *surface, *CHECK_OPTIONS[check]])
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
        assert main(["verify", check, *source, *CHECK_OPTIONS[check]]) == 1
        assert "profile validation FAILED" in capsys.readouterr().err

    @pytest.mark.parametrize("check", VERIFY_CHECKS)
    def test_no_usable_points_csv(self, tmp_path, check):
        if check == "operator-equivalence":
            surface = ["--profile", _profile_file(tmp_path, POLAR_CAP)]
        else:
            surface = ["--profile", _profile_file(tmp_path, TORUS_NO_COLLARS),
                       *_size_option(check, "2x4")]
        code, out, err = captured(["verify", check, *surface, *CHECK_OPTIONS[check],
                                   "--format", "csv"])
        assert (code, out, err) == (2, "empty\r\nTrue\r\n", "")


class TestScaleFreeDraws:
    """Operator equivalence accepts a draw by the dimensionless margin
    min(|phi' f|, |sin(phi)|), so the same draws qualify at every scale."""

    @pytest.mark.parametrize("surface", (["--catalog", "sphere", "--param", "r=25"],
                                         ["--catalog", "catenoid", "--param", "c=20"]),
                             ids=" ".join)
    def test_large_surfaces_find_every_pair(self, surface):
        # phi' = 1/25 and phi' <= 1/20 are under DRAW_MARGIN, while phi' f
        # is sin(s/25) and 20/f.
        code, out, _ = captured(["verify", "operator-equivalence", *surface])
        assert code == 0 and json.loads(out)["details"]["pairs"] == 1000

    def test_polar_cap_rejects_every_draw(self, tmp_path):
        code, out, _ = captured(["verify", "operator-equivalence", "--profile",
                                 _profile_file(tmp_path, POLAR_CAP), "--pairs", "20"])
        assert code == 2
        assert json.loads(out)["reason"] == "found 0 of 20 usable sample points in 1000 draws"


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


def _readme_fit_keys() -> list[str]:
    """The keys of a classify report's ``fit`` object as README's "Report
    schemas" section lists them, in order."""
    text = " ".join((Path(__file__).parents[1] / "README.md").read_text().split())
    listed = text.split("The `fit` object holds ", 1)[1].split(".", 1)[0]
    return re.findall(r"`([A-Za-z_]+)`", listed)


def _readme_options() -> dict[str, list[str]]:
    """The options of each command as the README option table states
    them, keyed by the command's words without its positionals."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z -]+)[A-Z ]*` \| (`--.*`) \|$", text, re.M)
    return {command.strip(): re.findall(r"`(--[a-z-]+)`", cell) for command, cell in rows}


def _subcommands(parser) -> dict:
    """The subparsers of ``parser`` by name, empty for a leaf."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subs[0].choices if subs else {}


def _tree_leaf(argv) -> argparse.ArgumentParser:
    """The subparser of ``cli._PARSER`` that the first words of ``argv``
    name, found by walking the tree: the parser of the command's options."""
    parser = cli._PARSER
    for word in argv:
        subs = _subcommands(parser)
        if not subs:
            break
        parser = subs[word]
    return parser


def _tree_leaves(parser, words=()) -> dict:
    """Every leaf of the tree under ``parser``, keyed by its words."""
    subs = _subcommands(parser)
    if not subs:
        return {words: parser}
    return {k: v for name, sub in subs.items() for k, v in _tree_leaves(sub, (*words, name)).items()}


def _parser_options(command: str) -> list[str]:
    """The option strings, help aside, that ``cli._PARSER`` gives a
    command named by its words, such as ``catalog export``."""
    parser = _tree_leaf(command.split())
    return [o for a in parser._actions for o in a.option_strings if o not in ("-h", "--help")]


def _readme_usage() -> list[list[str]]:
    """The argv of each ``revtype`` line of README's CLI usage block, its
    ``#`` comment stripped."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line.partition("#")[0])[1:]
            for line in block.splitlines() if line.startswith("revtype ")]


def _readme_quick_start() -> str:
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


class TestCheckTable:
    def test_choices_are_the_table(self):
        subs = next(a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction))
        check = next(a for a in subs.choices["verify"]._actions if a.dest == "check")
        assert list(check.choices) == list(cli.VERIFY_TOLERANCES)

    def test_readme_table_matches(self):
        readme = _readme_verify_tolerances()
        assert list(readme.items()) == list(cli.VERIFY_TOLERANCES.items())

    def test_readme_fit_keys_match(self):
        report = classify.fit_matrix(catalog.make("sphere").curve)
        assert _readme_fit_keys() == list(report.to_dict())

    def test_readme_option_lists_match(self):
        readme = _readme_options()
        assert {"classify", "scan", "catalog export",
                *(f"verify {check}" for check in VERIFY_CHECKS)} <= readme.keys()
        for command, options in readme.items():
            assert sorted(options) == sorted(_parser_options(command)), command

    def test_readme_usage_lines_parse(self):
        lines = _readme_usage()
        assert {argv[0] for argv in lines} == {"classify", "verify", "scan", "catalog"}
        assert {argv[1] for argv in lines if argv[0] == "verify"} == set(VERIFY_CHECKS)
        for argv in lines:
            cli._PARSER.parse_args(argv)

    @pytest.mark.parametrize("check", VERIFY_CHECKS)
    def test_options_of_other_checks_are_unrecognized(self, check):
        values = {"--grid": "8x8", "--rows": "8", "--lambda": "2", "--mu": "2", "--pairs": "20",
                  "--seed": "1"}
        own = _parser_options(f"verify {check}")
        others = {o for c in VERIFY_CHECKS for o in _parser_options(f"verify {c}")} - set(own)
        assert others and others <= values.keys()
        for option in sorted(others):
            code, out, err = captured(["verify", check, "--catalog", "sphere",
                                       option, values[option]])
            assert (code, out) == (1, "")
            assert err.endswith(f"error: unrecognized arguments: {option} {values[option]}\n")

    def test_options_follow_the_check_name(self):
        # Each check parses its own options, so none may come before its name.
        code, out, err = captured(["verify", "--catalog", "sphere", "position-identity"])
        assert (code, out) == (1, "")
        assert err.endswith("error: argument check: invalid choice: 'sphere' (choose from "
                            + ", ".join(f"'{check}'" for check in VERIFY_CHECKS) + ")\n")

    @pytest.mark.parametrize("argv", (
        ["classify", "--seed", "1"],
        ["verify", "eigen-system", "--tol-fit", "1"],
        ["verify", "eigen-system", "--tol-struct", "1"],
        pytest.param(["classify", "--tol-struct", "1e-8"], id="classify --tol-struct"),
    ), ids=lambda argv: argv[-2])
    def test_removed_options_are_unrecognized(self, argv):
        # classify draws nothing, no verify check reads a fit tolerance, and
        # the theta circle's structure is held to a fixed tolerance.
        code, out, err = captured([*argv, "--catalog", "sphere"])
        assert (code, out) == (1, "")
        assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[-2:])}\n")

    def test_readme_quick_start_runs(self):
        scope = {}
        exec(_readme_quick_start(), scope)
        assert scope["report"].verdict == "SphereType"
        assert np.max(np.abs(scope["lap_x3"] - scope["axial"])) <= 1e-14

    @pytest.mark.parametrize("check", VERIFY_CHECKS)
    def test_one_grid_pass_per_check(self, monkeypatch, check):
        calls = []
        grid_rows = geometry.grid_rows
        monkeypatch.setattr(geometry, "grid_rows",
                            lambda *a, **k: calls.append(a) or grid_rows(*a, **k))
        code, _, _ = captured(["verify", check, "--catalog", "torus", *_size_option(check, "8x8"),
                               *CHECK_OPTIONS[check]])
        assert code in (0, 2)
        assert len(calls) == (check != "operator-equivalence")

    @pytest.mark.parametrize("check", ("eigen-system", "radius-rate"))
    def test_missing_lambda_fails_before_the_grid_pass(self, monkeypatch, check):
        calls = []
        monkeypatch.setattr(geometry, "grid_rows", lambda *a, **k: calls.append(a))
        assert captured(["verify", check, "--catalog", "torus", "--rows", "1048576"]) == (
            1, "", "error: this check needs --lambda and --mu for the given surface\n")
        assert calls == []

    @pytest.mark.parametrize("check", ("eigen-system", "radius-rate"))
    def test_failed_validation_comes_before_missing_lambda(self, check):
        code, out, err = captured(["verify", check, "--catalog", "broken-diagonal"])
        assert (code, out) == (1, "")
        assert err.startswith("error: broken-diagonal: profile validation FAILED\n")


class TestCsvOutput:
    def _points(self, check, payload):
        details = payload["details"]
        if check == "position-identity":
            return details["points_used"]
        if check == "operator-equivalence":
            return details["pairs"]
        return details["rows_used"]

    @pytest.mark.parametrize("check", VERIFY_CHECKS)
    def test_verify_header_and_rows(self, check):
        argv = ["verify", check, "--catalog", "torus", *_size_option(check, "12x8"),
                *CHECK_OPTIONS[check]]
        _, report, _ = captured(argv)
        _, out, _ = captured(argv + ["--format", "csv"])
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == _readme_csv_columns()[check]
        assert len(rows) - 1 == self._points(check, json.loads(report)) > 0

    @pytest.mark.parametrize("surface", (
        ["--catalog", "torus"], ["--catalog", "sphere"],
        ["--catalog", "catenoid", "--param", "c=0.01"], ["--catalog", "catenoid", "--param", "c=5"],
    ), ids=" ".join)
    def test_operator_equivalence_rows_reproduce_both_values(self, surface):
        # Each row's jets, harmonic and trig at its point give its two
        # operator values bit for bit: the CSV states every field it checks.
        code, out, _ = captured(["verify", "operator-equivalence", *surface, "--pairs", "300",
                                 "--seed", "9", "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 300

        def column(name, kind=float):
            return np.array([kind(row[name]) for row in rows])

        jets = geometry._jets(_catalog_curve(surface), column("s"))
        profile = (column("a"), column("da"), column("dda"))
        k, theta = column("harmonic", int), column("theta")
        t = np.where(column("trig", str) == "cos", np.cos(k * theta), np.sin(k * theta))
        for name, operator in (("specialized", beltrami.second_beltrami),
                               ("divergence_form", beltrami.second_beltrami_divergence)):
            assert (operator(jets, profile, k) * t).tobytes() == column(name).tobytes(), name

    def test_classify_header_and_rows(self):
        argv = ["classify", "--catalog", "sphere"]
        _, report, _ = captured(argv)
        _, out, _ = captured(argv + ["--format", "csv"])
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == _readme_csv_columns()["classify"]
        assert len(rows) - 1 == len(cli._flatten(json.loads(report)))

    def test_csv_peak_memory_near_json(self, tmp_path):
        # The JSON report holds per-row profiles alone and the CSV report has
        # a line per grid point, so the CSV peak is held to the JSON peak
        # plus the report's nine columns as float arrays: the writer never
        # holds a whole report as Python values.
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
        assert peaks["csv"] <= 1.25 * (peaks["json"] + 9 * 8 * 64 * 1024)


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
        assert "structure" not in fit
        structure = payload["structure"]
        assert (structure["offdiag_max"], structure["diag_split"]) == (None, None)
        assert structure["ok"] is False
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
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("error:") and not out.getvalue()
            return
        cert = json.loads(out.getvalue(), parse_constant=_reject_constant)["certificate"]
        # Exit 2 exactly when no cell is certified; the report is written either way.
        assert (code == 2) == (not cert["cells_certified"])
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
        assert capsys.readouterr().err.endswith(
            "error: argument --tol-fit: expected a positive number, got '-1.5e-3'\n")


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
        # One point has no cells, so nothing is certified: exit 2, report written.
        assert main(["scan", "--lambda-range", "0", "0", "--mu-range", "2", "2",
                     "--out", str(out)]) == 2
        cert = json.loads(out.read_text())["certificate"]
        assert cert["argmin_coefficients"][2] == pytest.approx(12.0)
        assert cert["cells_certified"] is False

    def test_diagonal_point_skipped(self, tmp_path):
        out = tmp_path / "cert.json"
        assert main(["scan", "--lambda-range", "1", "1", "--mu-range", "1", "1",
                     "--out", str(out)]) == 2
        cert = json.loads(out.read_text())["certificate"]
        assert cert["points_scanned"] == 0
        assert cert["cells_certified"] is False

    @pytest.mark.parametrize("extra, failures, note", (
        # The bound rounds to 0.0 on every cell of a subnormal lattice.
        (["--step", "1e-323", "--lambda-range", "0", "1e-321", "--mu-range", "0", "1e-321"],
         10201, ""),
        (["--lambda-range", "0", "1", "--mu-range", "3", "3"], 0, "no area"),
        (["--lambda-range", "0", "1", "--mu-range", "0", "1", "--step", "2"], 0, "diagonal"),
    ))
    def test_uncertified_box_exits_2(self, capsys, extra, failures, note):
        # A box that certifies no cell is reported in full, with exit 2, as a
        # check with no usable points is.
        assert main(["scan", *extra]) == 2
        captured = capsys.readouterr()
        cert = json.loads(captured.out)["certificate"]
        assert cert["cells_certified"] is False and cert["cell_failures"] == failures
        assert note in cert["note"] and not captured.err

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

    def test_python_m_revtype(self):
        proc = subprocess.run([sys.executable, "-m", "revtype", "catalog", "list"],
                              capture_output=True, text=True, timeout=60, env=_child_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == captured(["catalog", "list"])

    def test_closed_stdout_in_process(self):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        with contextlib.redirect_stdout(Closed()), contextlib.redirect_stderr(err):
            assert main(["catalog", "list"]) == 1
        assert err.getvalue() == ""

    def test_closed_stdout_child(self):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "revtype", "catalog", "list"],
                                  stdout=write, stderr=subprocess.PIPE, text=True,
                                  timeout=60, env=_child_env())
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "")

    def test_export_stdout(self, capsys):
        assert main(["catalog", "export", "catenoid"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"].startswith("catenoid")


def _usage_error(argv) -> str:
    """The last stderr line of a command that must be a usage error: exit 1,
    nothing on stdout and no traceback."""
    code, out, err = captured(argv)
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    return err.splitlines()[-1]


class TestErrors:
    def test_unknown_catalog_name(self, capsys):
        assert main(["classify", "--catalog", "unduloid"]) == 1

    def test_bad_param_syntax(self):
        for param in ("r:1", "r", "r=one"):
            assert _usage_error(["classify", "--catalog", "sphere", "--param", param]) == (
                f"revtype classify: error: argument --param: expected NAME=VALUE, got {param!r}")

    def test_missing_surface(self):
        assert _usage_error(["classify"]) == (
            "revtype classify: error: one of the arguments --catalog --profile is required")

    def test_both_sources(self, tmp_path):
        profile = tmp_path / "p.json"
        profile.write_text("{}")
        assert _usage_error(["classify", "--catalog", "sphere", "--profile", str(profile)]) == (
            "revtype classify: error: argument --profile: not allowed with argument --catalog")

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

    @pytest.mark.parametrize("command", (
        ["classify"], *(["verify", check, *CHECK_OPTIONS[check]] for check in VERIFY_CHECKS),
    ), ids=("classify", *VERIFY_CHECKS))
    def test_fully_excluded_profile(self, tmp_path, capsys, command):
        doc = {"name": "gone", "f": "sqrt(1 + s^2)", "g": "asinh(s)",
               "s_min": -1.0, "s_max": 1.0, "excluded_intervals": [[-2.0, 2.0]]}
        profile = tmp_path / "p.json"
        profile.write_text(json.dumps(doc))
        assert main([*command, "--profile", str(profile)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad profile file {profile}: regular subdomain is empty")

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
        proc = subprocess.run([sys.executable, "-c", timed, "classify", "--profile", str(profile)],
                              capture_output=True, text=True, timeout=60, env=_child_env())
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: bad profile file {profile}: exponent too large")
        assert float(proc.stdout) < 1.0

    @pytest.mark.parametrize("command", (["classify"], ["verify", "position-identity"]),
                             ids=lambda c: c[-1])
    @pytest.mark.parametrize("content", (
        *(json.dumps({**TORUS_NO_COLLARS, "f": text}) for text in DEEP_TEXTS.values()),
        json.dumps({**TORUS_NO_COLLARS, "f": "2 + 1e999 * s"}),
        "[" * 100000 + "]" * 100000,
    ), ids=(*DEEP_TEXTS, "1e999", "nested-arrays"))
    def test_deep_or_out_of_range_profile(self, tmp_path, command, content):
        profile = tmp_path / "p.json"
        profile.write_text(content)
        code, out, err = captured([*command, "--profile", str(profile)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: bad profile file {profile}: ") and "Traceback" not in err

    def test_pairs_must_be_positive(self):
        assert _usage_error(["verify", "operator-equivalence", "--catalog", "sphere",
                             "--pairs", "0"]) == (
            "revtype verify operator-equivalence: error: argument --pairs: expected at least 1, "
            "got '0'")

    @pytest.mark.parametrize("command", (["classify"], *(["verify", c] for c in VERIFY_CHECKS)),
                             ids=lambda c: c[-1])
    def test_param_with_profile(self, tmp_path, command):
        # The file does not exist: the rule holds before it is read.
        missing = str(tmp_path / "missing.json")
        assert captured([*command, "--profile", missing, "--param", "r=7"]) == (
            1, "", "error: --param sets a --catalog parameter, not a --profile file's\n")

    def test_profile_not_found(self, capsys):
        assert main(["classify", "--profile", "/nonexistent/x.json"]) == 1

    def test_bad_grid(self):
        for grid in ("banana", "4x", "x4", "4x4x4"):
            assert _usage_error(["classify", "--catalog", "sphere", "--grid", grid]) == (
                f"revtype classify: error: argument --grid: expected N_SxN_THETA, got {grid!r}")

    def test_tiny_grid_rejected(self):
        for grid in ("1x4", "8x3"):
            assert _usage_error(["classify", "--catalog", "sphere", "--grid", grid]) == (
                f"revtype classify: error: argument --grid: expected at least 2x4, got {grid!r}")

    def test_usage_error_exit_code(self):
        assert main(["verify", "no-such-check", "--catalog", "sphere"]) == 1


_BUDGET_SURFACES = (
    ["--catalog", "torus", "--param", "R=3", "--param", "r=1"],
    ["--catalog", "sphere", "--param", "r=1.5"],
    ["--catalog", "catenoid", "--param", "c=0.8"],
)


class TestEvaluationBudget:
    """A command evaluates f and g once, in one pass over the validation
    samples and the next stage's samples: `classify` and the grid checks
    the grid's profile samples, operator equivalence the first screening
    pass of its draws, which on these surfaces holds every pair.  Its
    random fields are drawn as profile jets, with no expression pass."""

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
    def test_four_passes_per_command(self, monkeypatch, passes, surface, command, fmt):
        screens = []
        screen = beltrami._jets
        monkeypatch.setattr(beltrami, "_jets", lambda p, s: screens.append(s) or screen(p, s))
        if command == "classify":
            argv = ["classify", *surface]
        else:
            argv = ["verify", command, *surface, *CHECK_OPTIONS[command]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--format", fmt]) in (0, 2)
        assert out.getvalue()
        # No screening pass of its own: the joint pass screened the draws.
        assert screens == []
        curve = _catalog_curve(surface)
        assert passes == [curve.f, curve.g]


def _benchmark_shapes(profile: str) -> list[list[str]]:
    """One command of each shape that the benchmark sends: `classify` at
    its tall and wide grids on a catalog surface and on the profile file
    ``profile``, the five verify checks with their options, and a scan box
    on the step lattice."""
    surface = ["--catalog", "torus", "--param", "R=3.5", "--param", "r=0.75"]
    return [
        ["classify", *surface, "--grid", "1024x16"],
        ["classify", "--profile", profile, "--grid", "64x4096"],
        ["verify", "position-identity", *surface, "--grid", "64x64"],
        ["verify", "curvature-quotient", *surface],
        ["verify", "operator-equivalence", *surface, "--pairs", "500", "--seed", "4242"],
        ["verify", "eigen-system", *surface, "--lambda", "2", "--mu", "2"],
        ["verify", "radius-rate", *surface, "--lambda", "2", "--mu", "2"],
        ["scan", "--step", "0.05", "--lambda-range", "-2.50", "7.50",
         "--mu-range", "-8.05", "1.95"],
    ]


def _json_dumps_oracle(value) -> str:
    """The layout that `cli._json_text` reproduces, from the stdlib."""
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


def _captured_with_out(argv) -> tuple[int, str, str]:
    """`captured`, with the text of the command's ``--out`` file, if it
    wrote one, after its stdout."""
    code, out, err = captured(argv)
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        out += path.read_text() if path.exists() else ""
    return code, out, err


class TestCommandFloor:
    """README's usage lines outside ``catalog`` and one command of each
    benchmark shape run with argparse's parse and the stdlib's indented
    JSON encoder out of reach, and print the bytes that those give."""

    def test_no_argparse_parse_or_indented_encoder(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        # The file that README's ``classify --profile`` line reads.
        profile = str(tmp_path / "my_surface.json")
        geometry.save_profile(catalog.make("sphere", {"r": 2.0}).curve, profile)
        corpus = [*(argv for argv in _readme_usage() if argv[0] != "catalog"),
                  *_benchmark_shapes(profile)]
        with monkeypatch.context() as m:
            m.setattr(cli, "_read", lambda leaf, rest: None)
            m.setattr(cli, "_json_text", _json_dumps_oracle)
            program = [_captured_with_out(argv) for argv in corpus]

        def forbidden(*args, **kwargs):
            raise AssertionError("argparse parse or indented stdlib encoder called")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", forbidden)
        monkeypatch.setattr(json.encoder, "_make_iterencode", forbidden)
        for argv, got in zip(corpus, program):
            assert got[1], argv
            assert _captured_with_out(argv) == got, argv


class TestLinearAlgebraBudget:
    """The fit is two projections, so `classify` runs with numpy's
    least-squares and factorization routines out of reach."""

    @pytest.mark.parametrize("grid", ("32x32", "64x4096"))
    @pytest.mark.parametrize("surface", _BUDGET_SURFACES, ids=lambda s: s[1])
    def test_classify_calls_no_solver(self, monkeypatch, surface, grid):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg solver called")

        for name in ("qr", "lstsq", "matrix_rank", "svd"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        code, out, err = captured(["classify", *surface, "--grid", grid])
        assert (code, err) == (0, "")
        assert json.loads(out)["fit"]["rank"] == 3


class TestProfilePassBudget:
    """The profile pass makes no no-op NumPy call: the margin already has
    the shape of its samples, so it is not broadcast, and the samples are
    sorted as placed, so they are not sorted."""

    @pytest.mark.parametrize("words, options", (
        (["classify"], ["--grid", "32x32"]), (["classify"], ["--grid", "64x4096"]),
        *((["verify", check], CHECK_OPTIONS[check])
          for check in ("curvature-quotient", "eigen-system", "radius-rate"))),
        ids=("classify-32x32", "classify-64x4096", "curvature-quotient", "eigen-system",
             "radius-rate"))
    @pytest.mark.parametrize("surface", _BUDGET_SURFACES, ids=lambda s: s[1])
    def test_no_broadcast_or_sort(self, monkeypatch, surface, words, options):
        def forbidden(*args, **kwargs):
            raise AssertionError("no-op NumPy call")

        monkeypatch.setattr(np, "broadcast_to", forbidden)
        monkeypatch.setattr(np, "sort", forbidden)
        code, out, err = captured([*words, *surface, *options])
        assert code in (0, 2) and err == ""
        assert json.loads(out)


class TestParseBudget:
    """A catalog surface's profiles were parsed when `revtype.catalog` was
    imported, so a command on one parses nothing; a profile file's f and g
    are parsed once each."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        texts = []
        real = expressions.parse

        def counting(text):
            texts.append(text)
            return real(text)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("revtype") and getattr(module, "parse", None) is real:
                monkeypatch.setattr(module, "parse", counting)
        return texts

    def test_catalog_command_parses_nothing(self, parsed):
        assert captured(["verify", "radius-rate", "--catalog", "sphere"])[0] == 0
        assert parsed == []

    def test_profile_file_parses_its_texts_once(self, parsed, tmp_path):
        path = tmp_path / "sphere.json"
        assert main(["catalog", "export", "sphere", "--out", str(path)]) == 0
        assert parsed == []
        assert captured(["verify", "radius-rate", "--profile", str(path),
                         "--lambda", "2", "--mu", "2"])[0] == 0
        assert parsed == ["r * sin(s / r)", "-r * cos(s / r)"]


class TestReportDicts:
    """The records of a classify report are flat: `to_dict` is `asdict`
    plus the derived key, with every value a number, a string, a bool or
    None."""

    def test_shallow_and_equal_to_asdict(self):
        curve = catalog.make("sphere").curve
        validation = geometry.validate_profile(curve)
        fitted = classify.structure_check(classify.fit_matrix(curve))
        unfitted = classify.StructureCheck(None, None, 1e-8)
        for record, extra in ((validation, {"passed": True}),
                              (fitted, {"ok": True}), (unfitted, {"ok": False})):
            got = record.to_dict()
            assert got == {**dataclasses.asdict(record), **extra}
            assert all(v is None or type(v) in (int, float, str, bool) for v in got.values())

    @pytest.mark.parametrize("command", ("classify", *(f"verify {c}" for c in VERIFY_CHECKS)),
                             ids=lambda command: command.split()[-1])
    def test_config_holds_what_the_command_reads(self, command):
        # `config` is the surface and every value option of the command's
        # own parser, save those that pick the surface or the output and
        # those that the report gives outside `config`: --tol as
        # `tolerance`, --lambda and --mu in `details` and --samples as
        # `validation.n_samples`.
        elsewhere = {"--catalog", "--profile", "--param", "--out", "--format",
                     "--tol", "--lambda", "--mu", "--samples"}
        values = {"--grid": "8x6", "--rows": "8", "--tol-arc": "1e-9", "--tol-parab": "1e-4",
                  "--tol-fit": "1e-6", "--pairs": "20", "--seed": "3"}
        echoed = [o for o in _parser_options(command) if o not in elsewhere]
        code, out, _ = captured([*command.split(), "--catalog", "sphere",
                                 *(x for o in echoed for x in (o, values[o]))])
        assert code == 0
        want = {"surface": "sphere(r=1)"}
        for option in echoed:
            if option == "--grid":
                want["n_s"], want["n_theta"] = 8, 6
            elif option == "--rows":
                want["n_s"] = 8
            else:
                want[option[2:].replace("-", "_")] = json.loads(values[option])
        assert json.loads(out)["config"] == want


class TestSharedParser:
    """``main`` parses with the parser built at import: with the table of
    the leaf that argv names, or with the whole tree.  A parse leaves
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
            (["verify", "eigen-system", "--catalog", "sphere", "--tol", "1e-6", *_LAM_MU], 0),
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


# Command lines that a leaf parses in part or that no leaf parses: the
# usage errors of each level, an abbreviated option, words after ``--``,
# and the help of the levels above the leaves.
_DISPATCH_CORPUS = (
    [], ["-h"], ["verify", "-h"], ["catalog", "-h"], ["verify", "nope"], ["classif"],
    ["verify"], ["catalog"],
    ["verify", "--catalog", "sphere", "position-identity"],
    ["classify", "--catalog", "sphere", "extra"],
    ["catalog", "list", "extra"],
    ["scan", "--step", "0.5", "--"],
    ["classify", "--", "--catalog", "sphere"],
    ["classify", "--cat", "sphere", "--grid", "8x8"],
    ["verify", "position-identity", "--catalog", "sphere", "--pairs", "20"],
    ["classify", "--catalog", "sphere", "--format", "xml"],
    ["classify", "--catalog", "sphere", "--grid", "1x1"],
    ["catalog", "export"],
)


class TestLeafDispatch:
    """A command that names a leaf, a command with no further subcommand,
    is read by `cli._read` in one pass or, when it declines the line, by
    the whole tree, with the bytes that the whole tree gives."""

    @pytest.fixture
    def parses(self, monkeypatch):
        parsers = []
        real = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            parsers.append(self)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        return parsers

    def test_table_holds_the_tree_leaves(self):
        tree = _tree_leaves(cli._PARSER)
        assert list(cli._PARSER.leaves) == list(tree)
        assert all(cli._PARSER.leaves[words] is leaf for words, leaf in tree.items())

    def test_reader_or_whole_tree(self, parses, tmp_path, monkeypatch):
        # `_read` reads README's usage lines and the benchmark's shapes
        # with no argparse parse, save ``catalog export``, whose NAME is a
        # positional.  ``catalog export`` and every `_DISPATCH_CORPUS` line
        # take exactly the parses that the whole tree takes.
        monkeypatch.chdir(tmp_path)
        profile = str(tmp_path / "surface.json")
        geometry.save_profile(catalog.make("sphere").curve, profile)
        exports = [argv for argv in _readme_usage() if argv[:2] == ["catalog", "export"]]
        assert exports
        for argv in [*_readme_usage(), *_benchmark_shapes(profile)]:
            if argv not in exports:
                parses.clear()
                captured(argv)
                assert parses == [], argv
        assert {_tree_leaf(argv) for argv in _readme_usage()} == set(cli._PARSER.leaves.values())
        corpus = [*exports, *_DISPATCH_CORPUS]
        with monkeypatch.context() as m:
            m.setattr(cli._PARSER, "leaves", {})
            tree = []
            for argv in corpus:
                parses.clear()
                captured(argv)
                tree.append(list(parses))
        for argv, want in zip(corpus, tree):
            parses.clear()
            captured(argv)
            assert want[0] is cli._PARSER and parses == want, argv

    def test_whole_tree_prints_the_same_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        corpus = [*_readme_usage(), *_DISPATCH_CORPUS,
                  *([*words, "-h"] for words in cli._PARSER.leaves)]
        program = [captured(argv) for argv in corpus]
        monkeypatch.setattr(cli._PARSER, "leaves", {})
        for argv, got in zip(corpus, program):
            assert captured(argv) == got, argv

    def test_main_reads_sys_argv(self, parses, monkeypatch):
        # As the ``revtype`` script and ``python -m revtype`` call it.
        argv = ["verify", "radius-rate", "--catalog", "sphere"]
        monkeypatch.setattr(sys, "argv", ["revtype", *argv])
        got = captured(None)
        assert parses == []
        assert got[0] == 0
        assert got == captured(argv)


# Value words for any option: good and bad ones, negative numbers in
# e-notation and words that argparse reads as options.
_VALUE_WORDS = ("sphere", "torus", "8x8", "1x1", "2", "0", "20", "-2e0", "-1.5e-3", "-.5",
                "1e-8", "nan", "abc", "", "r=2", "R=-1e0", "csv", "json", "xml", "-x", "p.json")


def _converts(action, word) -> bool:
    """Whether ``word`` is a value that ``action`` takes."""
    try:
        value = action.type(word) if action.type else word
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return False
    return action.choices is None or value in action.choices


@st.composite
def _leaf_lines(draw, leaf):
    """The words after a leaf's own.  Half the lines hold only its exact
    options, each with as many values as it takes, mostly good ones, and
    half mix in missing values, abbreviations, ``--opt=value``, ``--``,
    ``-h`` and bare words.  A clean line names a surface first, a mixed
    one may; either may repeat options."""
    options = sorted(o for a in leaf._actions for o in a.option_strings
                     if o not in ("-h", "--help"))
    clean = bool(options) and draw(st.booleans())
    kinds = ("option",) if clean else ("word", "dashdash", "help") + (
        ("option",) * 8 + ("abbrev", "equals") if options else ())
    named = "--catalog" in options and (clean or draw(st.booleans()))
    line = ["--catalog", "sphere"] if named else []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(kinds))
        option = draw(st.sampled_from(options)) if options else ""
        action = leaf._option_string_actions.get(option)
        n = (action.nargs or 1) if action else 0
        good = [w for w in _VALUE_WORDS if action and _converts(action, w)]
        # In a clean line, one value in eight is drawn from every word.
        values = [draw(st.sampled_from(good if clean and draw(st.integers(0, 7)) else _VALUE_WORDS))
                  for _ in range(draw(st.integers(n if clean else min(n, 1), n)))]
        if kind == "option":
            line += [option, *values]
        elif kind == "abbrev":
            line += [option[:draw(st.integers(3, len(option) - 1))], *values]
        elif kind == "equals":
            line.append(f"{option}={values[0]}")
        elif kind == "dashdash":
            line.append("--")
        elif kind == "help":
            line.append(draw(st.sampled_from(("-h", "--help"))))
        else:
            line.append(draw(st.sampled_from(_VALUE_WORDS)))
    return line


def _parse_outcome(parse, argv) -> tuple:
    """The namespace's sorted items, or the exit code, of ``parse(argv)``,
    and its stdout and stderr; repr compares NaN values and types too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = repr(sorted(vars(parse(argv)).items()))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _argparse_leaf_parse(leaf):
    """A leaf's own argparse parse, with the whole tree's error for words
    that it does not take: the reference for what `cli._parse` must print
    for a line that `cli._read` declines."""
    def parse(rest):
        args, extra = leaf.parse_known_args(rest)
        if extra:
            cli._PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
        return args

    return parse


class TestLeafReader:
    """`cli._read` reads a line into the namespace that the leaf's argparse
    parse gives, or declines it, and `cli._parse` then prints what that
    parse prints."""

    @pytest.mark.parametrize("words", list(cli._PARSER.leaves), ids=" ".join)
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_same_namespace_and_bytes_as_argparse(self, words, data):
        leaf = cli._PARSER.leaves[words]
        rest = data.draw(_leaf_lines(leaf))
        want = _parse_outcome(_argparse_leaf_parse(leaf), rest)
        assert _parse_outcome(cli._parse, [*words, *rest]) == want
        read = cli._read(leaf, list(rest))
        if read is not None:
            assert repr(sorted(vars(read).items())) == want[0]


_NUMBER_OPTIONS = ("--tol-arc", "--tol-parab", "--tol-fit", "--tol", "--lambda", "--mu")
# A number option that no command takes any more.
_REMOVED_NUMBER_OPTIONS = ("--tol-struct",)


class TestFiniteOptions:
    @pytest.mark.parametrize("value", ("nan", "inf", "=-inf", "1e400", "abc"))
    @pytest.mark.parametrize("command, option", (
        *((["classify"], option)
          for option in (*_NUMBER_OPTIONS[:3], *_REMOVED_NUMBER_OPTIONS)),
        *((["verify", "eigen-system"], option)
          for option in (*_NUMBER_OPTIONS, *_REMOVED_NUMBER_OPTIONS)),
    ), ids=lambda x: x[0] if isinstance(x, list) else x)
    def test_rejected_at_parse_naming_the_option(self, command, option, value):
        value = [option + value] if value.startswith("=") else [option, value]
        error = _usage_error([*command, "--catalog", "sphere", *value])
        if option in _parser_options(" ".join(command)):
            assert f"error: argument {option}: expected a finite number, got " in error
        else:  # verify takes no --tol-fit, and no command --tol-struct
            assert error.endswith(f"error: unrecognized arguments: {' '.join(value)}")

    def test_finite_values_still_reach_the_command(self):
        code, out, _ = captured(["verify", "eigen-system", "--catalog", "sphere",
                                 "--lambda=-2e0", "--mu", "2", "--tol", "1e-3"])
        assert code == 2
        report = json.loads(out)
        assert report["details"]["lambda"] == -2.0 and report["tolerance"] == 1e-3

    @pytest.mark.parametrize("value", ("0", "-1", "-1e-300"))
    @pytest.mark.parametrize("command, option, dest", (
        *((["classify"], option, option[2:].replace("-", "_")) for option in _NUMBER_OPTIONS[:3]),
        (["verify", "position-identity"], "--tol", "tol"),
    ), ids=lambda x: x[0] if isinstance(x, list) else x)
    def test_tolerance_must_be_positive(self, command, option, dest, value):
        # The sphere's position residual is about 1e-15: a tolerance of -1
        # used to report it above tolerance, exit 2.
        assert _usage_error([*command, "--catalog", "sphere", f"{option}={value}"]).endswith(
            f"error: argument {option}: expected a positive number, got {value!r}")
        args = cli._PARSER.parse_args([*command, "--catalog", "sphere", f"{option}=5e-324"])
        assert getattr(args, dest) == 5e-324

    @pytest.mark.parametrize("command", (
        ["classify"], ["verify", "radius-rate"], ["verify", "operator-equivalence"],
    ), ids=" ".join)
    def test_seed_must_be_non_negative(self, command):
        # Operator equivalence draws from the seed; classify and the grid
        # checks draw nothing and take no --seed.
        error = _usage_error([*command, "--catalog", "sphere", "--seed", "-1"])
        if command[-1] == "operator-equivalence":
            assert error == ("revtype verify operator-equivalence: "
                             "error: argument --seed: expected at least 0, got '-1'")
        else:
            assert error == "revtype: error: unrecognized arguments: --seed -1"

    def test_seed_is_64_bits(self):
        # The generator takes a 64-bit seed: the largest runs, one more is a
        # usage error rather than a seed folded onto another.
        argv = ["verify", "operator-equivalence", "--catalog", "sphere", "--pairs", "5"]
        code, out, _ = captured([*argv, "--seed", str(2**64 - 1)])
        assert code == 0 and json.loads(out)["config"]["seed"] == 2**64 - 1
        assert _usage_error([*argv, "--seed", str(2**64)]) == (
            "revtype verify operator-equivalence: error: argument --seed: expected at most "
            f"{2**64 - 1}, got '{2**64}'")


class TestWorkBudget:
    @pytest.mark.parametrize("argv, named", (
        (["classify", "--catalog", "sphere", "--grid", "1024x1025"],
         "--grid: 1049600 points is over the work budget of 1048576"),
        (["verify", "position-identity", "--catalog", "sphere", "--grid", "100000000x4"],
         "--grid: 400000000 points"),
        (["classify", "--catalog", "sphere", "--samples", "4194305"], "--samples: 4194305"),
        (["verify", "operator-equivalence", "--catalog", "sphere", "--pairs", "16385"],
         "--pairs: 16385"),
        (["scan", "--lambda-range", "0", "4096", "--mu-range", "0", "4096", "--step", "1"],
         "1.68e+07 lattice points"),
        (["scan", "--lambda-range", "0", "1", "--mu-range", "0", "0", "--step", "1e-9"],
         "lattice points"),
        (["verify", "radius-rate", "--catalog", "sphere", "--rows", "1048577"],
         "--rows: 1048577"),
    ))
    def test_over_budget_allocates_nothing(self, monkeypatch, argv, named):
        def forbidden(*args, **kwargs):
            raise AssertionError("a request over the budget was sampled")

        for name in ("validate_profile", "sample_regular", "grid_rows"):
            monkeypatch.setattr(geometry, name, forbidden)
        monkeypatch.setattr(classify, "_axis", forbidden)
        error = _usage_error(argv)
        assert "error: " in error and named in error and "work budget" in error

    @pytest.mark.parametrize("samples", ("1", "0", "-5"))
    def test_samples_under_two_is_a_usage_error(self, monkeypatch, samples):
        def forbidden(*args, **kwargs):
            raise AssertionError("a request with too few samples was sampled")

        for name in ("validate_profile", "sample_regular", "grid_rows"):
            monkeypatch.setattr(geometry, name, forbidden)
        assert _usage_error(["classify", "--catalog", "sphere", "--samples", samples]) == (
            f"revtype classify: error: argument --samples: expected at least 2, got {samples!r}")

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
_VERIFY_VALUES = {
    **dict.fromkeys(_NUMBER_OPTIONS, _NUMBER_TEXTS),
    "--pairs": st.integers(-3, 40).map(str),
    "--seed": st.integers(-3, 1000).map(str),
    "--grid": st.one_of(
        st.tuples(st.integers(0, 10), st.integers(0, 10)).map("{0[0]}x{0[1]}".format),
        st.sampled_from(("banana", "4x", "x4", "0x0"))),
    "--rows": st.one_of(st.integers(-3, 40).map(str), st.sampled_from(("banana", "8x8", ""))),
    "--catalog": st.sampled_from(("torus", "sphere", "catenoid", "broken-diagonal", "unduloid")),
    "--param": st.sampled_from(("R=3", "r=1", "c=0.5", "r=-1", "x=1", "r")),
}


def _verify_option(check):
    """An option of ``verify CHECK``'s own parser and a value text for it."""
    own = _parser_options(f"verify {check}")
    return st.one_of(*(st.tuples(st.just(option), values)
                       for option, values in _VERIFY_VALUES.items() if option in own))


class TestVerifyProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(VERIFY_CHECKS), st.sampled_from(("torus", "sphere", "catenoid")),
           st.data())
    def test_exit_code_and_strict_report(self, check, surface, data):
        argv = ["verify", check, "--catalog", surface, *CHECK_OPTIONS[check]]
        for option in data.draw(st.lists(_verify_option(check), max_size=5)):
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
            params += DEFAULT_PAIRS_OPTIONS[command[-1]]  # so every check runs
        code, out, err = captured([*command, "--catalog", surface[0], *params])
        assert code in (0, 1, 2)
        assert "Warning" not in err and "Traceback" not in err
        if code == 1:
            label = catalog.make(surface[0], dict(map(cli._param, surface[1:]))).curve.name
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

    @pytest.mark.parametrize("command", (["classify"], *(["verify", c] for c in VERIFY_CHECKS
                                                         if c != "operator-equivalence")),
                             ids=lambda c: c[-1])
    def test_grid_fault_keeps_its_stage(self, tmp_path, command):
        # Only the grid sample s = 0.25 of a 2x4 grid meets the domain error,
        # so the one pass over validation and grid samples faults, and the
        # error names the grid's stage as when validation ran first alone.
        path = tmp_path / "gridfault.json"
        path.write_text(json.dumps({"name": "gridfault", "s_min": 0, "s_max": 1, "g": "sin(s)",
                                    "f": "2 + cos(s) + 0 * sqrt((s - 0.25)^2)"}))
        stage = "fit" if command == ["classify"] else command[-1]
        options = ["--grid", "2x4"] if command == ["classify"] else [
            *_size_option(stage, "2x4"), *CHECK_OPTIONS[stage]]
        assert captured([*command, "--profile", str(path), *options]) == (
            1, "", f"error: gridfault: {stage}: domain error at s=0.25: sqrt of a non-positive "
                   "value in 'sqrt((s - 0.25)^2)'\n")

    def test_first_draw_fault_keeps_its_stage(self, tmp_path):
        # Only operator-equivalence's first draw meets the domain error, so
        # the one pass over validation samples and first draws faults, and
        # the error names the check as when validation ran first alone.
        curve = geometry.ProfileCurve.build("drawfault", "2 + cos(s)", "sin(s)", 0.0, 1.0)
        s0 = float(beltrami.candidate_points(curve, 0, 0, 1)[0])
        path = tmp_path / "drawfault.json"
        path.write_text(json.dumps({"name": "drawfault", "s_min": 0, "s_max": 1, "g": "sin(s)",
                                    "f": f"2 + cos(s) + 0 * sqrt((s - {s0!r})^2)"}))
        assert captured(["verify", "operator-equivalence", "--profile", str(path),
                         "--pairs", "20"]) == (
            1, "", f"error: drawfault: operator-equivalence: domain error at s={s0!r}: sqrt of "
                   f"a non-positive value in 'sqrt((s - {s0!r})^2)'\n")

    @pytest.mark.parametrize("surface", ("sphere", "torus"))
    def test_radius_rate_coefficient_does_not_overflow(self, surface):
        # lambda - mu overflows to inf; half of each does not, so the defect
        # is finite and far above tolerance.
        code, out, err = captured(["verify", "radius-rate", "--catalog", surface,
                                   "--lambda", "1e308", "--mu", "-1e308"])
        assert (code, err) == (2, "")
        report = json.loads(out, parse_constant=_reject_constant)
        assert report["details"]["max_defect"] == report["max_residual"]
        assert 1e307 < report["max_residual"] <= 5e307

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
                     ["verify", check, "--profile", path, *_size_option(check, "8x8"),
                      *CHECK_OPTIONS[check]]):
            code, out, err = captured(argv)
            assert code in (0, 1, 2)
            assert "Traceback" not in err
            if code in (0, 2):
                json.loads(out, parse_constant=_reject_constant)


_TORUS = ["--catalog", "torus", "--param", "R=3", "--param", "r=1"]
_SAME_BYTES_COMMANDS = (
    *(["classify", "--catalog", name, "--grid", grid]
      for name in ("torus", "sphere", "catenoid") for grid in ("1024x16", "64x4096")),
    *(["verify", check, *_TORUS, *DEFAULT_PAIRS_OPTIONS[check], "--format", fmt]
      for check in VERIFY_CHECKS for fmt in ("json", "csv")),
    # Catenoid rows where R = dR = 0 exactly, the neck among them.
    ["verify", "position-identity", "--catalog", "catenoid", "--grid", "11x27", "--format", "csv"],
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
    # Lattices of at most 4096 points, and rows of 4 points.
    *(["scan", "--step", step, "--lambda-range", *lam, "--mu-range", *mu]
      for lam, mu, step in ((("-1.5", "1.5"), ("-1.5", "1.5"), "0.05"),
                            (("0", "3"), ("0", "3"), "0.1"),
                            (("0", "1"), ("-10", "10"), "0.25"),
                            (("20", "23"), ("25", "28"), "0.05"),
                            (("-50", "50"), ("3", "3.15"), "0.05"))),
    # Windows split across passes: the row lam = 0 keeps all 10001 points.
    ["scan", "--lambda-range", "0", "0", "--mu-range", "0", "500", "--step", "0.05"],
    ["scan", "--lambda-range", "3", "3", "--mu-range", "0", "500"],
)


class TestSameBytes:
    """The scalar paths of jet evaluation, the array sampler, the batched
    Beltrami checks, the scan's cut lattice pass, the catalog's parsed
    trees and the JSON writer change no output byte: each command prints
    the same with `eval_jet3` and `sample_regular` swapped for their
    all-jet, point-by-point oracles, operator equivalence for its per-pair
    loop over the pointwise Beltrami oracles, the position identity for its
    stacked norm, the scan's lattice pass for the blocked pass over every
    point, `catalog.make` for a catalog that parses its texts on every call
    and `cli._json_text` for ``json.dumps``."""

    def test_oracles_print_the_same_bytes(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        commands = [*_SAME_BYTES_COMMANDS, ["catalog", "export", "torus"],
                    ["catalog", "export", "torus", "--out", "torus.json"]]
        program = [_captured_with_out(argv) for argv in commands]
        monkeypatch.setattr(geometry, "eval_jet3", reference_eval_jet3)
        monkeypatch.setattr(expressions, "eval_jet3", reference_eval_jet3)
        monkeypatch.setattr(geometry, "sample_regular", reference_sample_regular)
        monkeypatch.setattr(beltrami, "operator_equivalence_residual",
                            reference_operator_equivalence_residual)
        monkeypatch.setattr(beltrami, "position_identity_residual",
                            reference_position_identity_residual)
        monkeypatch.setattr(classify, "_lattice_minimum", reference_lattice_minimum)
        monkeypatch.setattr(catalog, "make", reference_catalog_make)
        monkeypatch.setattr(cli, "_json_text", _json_dumps_oracle)
        for argv, got in zip(commands, program):
            assert got[1], argv
            assert _captured_with_out(argv) == got, argv


_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from((10**40, -(2**100))),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from((-0.0, 5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1e16, 1e-7)),
    st.text(), st.text(st.characters(max_codepoint=0x1F)),
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=24,
)


class TestJsonWriter:
    """`cli._write_json` writes what ``json.dumps(payload, indent=2,
    sort_keys=True, allow_nan=False)`` writes, and a newline, and fails as
    it fails, save that a key which is not a str is a TypeError."""

    @settings(max_examples=300, deadline=None)
    @given(_JSON_TREES)
    def test_same_text_as_json_dumps(self, payload):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._write_json(None, payload)
        assert out.getvalue() == _json_dumps_oracle(payload) + "\n"

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf, np.float64("nan"),
                                     np.float64("-inf")), ids=repr)
    def test_non_finite_float_is_the_same_value_error(self, capsys, bad):
        payload = {"a": [1.0, {"b": bad}]}
        with pytest.raises(ValueError) as want:
            _json_dumps_oracle(payload)
        with pytest.raises(ValueError) as got:
            cli._write_json(None, payload)
        assert str(got.value) == str(want.value)
        assert capsys.readouterr().out == ""

    def test_nan_message(self):
        with pytest.raises(ValueError, match="^Out of range float values are not JSON "
                                             "compliant: nan$"):
            cli._json_text([math.nan])

    @pytest.mark.parametrize("bad", (np.int64(3), np.bool_(True), object()),
                             ids=("int64", "bool_", "object"))
    def test_unknown_type_is_the_same_type_error(self, bad):
        with pytest.raises(TypeError) as want:
            _json_dumps_oracle({"a": [bad]})
        with pytest.raises(TypeError) as got:
            cli._json_text({"a": [bad]})
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("payload", ({1: "a"}, {None: 1}, {1.5: 2}, {True: 0},
                                         {"a": {2: 3}}), ids=repr)
    def test_non_str_key_is_a_type_error(self, payload):
        _json_dumps_oracle(payload)  # which coerces the key
        with pytest.raises(TypeError):
            cli._json_text(payload)
