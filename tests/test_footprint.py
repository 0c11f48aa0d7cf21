"""Which modules each leaf command loads, run in a fresh interpreter.

A command imports only what it runs: no command loads ``numpy.random``
(operator equivalence draws from its own counter-based generator), and
``csv`` is loaded by a report written as CSV, never by a JSON one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the argv given as JSON through `cli.main`, with its output dropped,
# and prints the exit code and the names of the loaded modules.
_PROBE = """
import contextlib, io, json, sys
from revtype import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

_SURFACE = ["--catalog", "torus"]
# One command line per leaf, each run as JSON (or text) and, where the
# command has ``--format``, as CSV.
_LEAVES = {
    "classify": ["classify", *_SURFACE],
    "position-identity": ["verify", "position-identity", *_SURFACE],
    "curvature-quotient": ["verify", "curvature-quotient", *_SURFACE],
    "operator-equivalence": ["verify", "operator-equivalence", *_SURFACE, "--pairs", "50"],
    "eigen-system": ["verify", "eigen-system", *_SURFACE, "--lambda", "2", "--mu", "2"],
    "radius-rate": ["verify", "radius-rate", *_SURFACE, "--lambda", "2", "--mu", "2"],
    "scan": ["scan"],
    "catalog-list": ["catalog", "list"],
    "catalog-export": ["catalog", "export", "torus"],
}
_WITH_FORMAT = ("classify", "position-identity", "curvature-quotient", "operator-equivalence",
                "eigen-system", "radius-rate")


def _loaded(argv: list[str]) -> tuple[int, set[str]]:
    """The exit code of ``argv`` and the modules loaded by a fresh
    interpreter that imports the CLI and runs it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    result = json.loads(proc.stdout)
    return result["code"], set(result["modules"])


@pytest.mark.parametrize("leaf", _LEAVES)
def test_default_output_loads_neither_random_nor_csv(leaf):
    code, modules = _loaded(_LEAVES[leaf])
    assert code in (0, 2)
    assert "numpy.random" not in modules
    assert "csv" not in modules


@pytest.mark.parametrize("leaf", _WITH_FORMAT)
def test_csv_output_loads_csv_and_no_random(leaf):
    code, modules = _loaded([*_LEAVES[leaf], "--format", "csv"])
    assert code in (0, 2)
    assert "numpy.random" not in modules
    assert "csv" in modules
