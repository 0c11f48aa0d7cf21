"""Tiny-size smoke test of the benchmark.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at smoke sizes with tracing off and on, through the
same correctness gate as a full run, and checks that a seed fixes the
generated inputs.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from workloads import WORKLOADS, RequestStream, TINY  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(cwd, workload, trace, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_gate(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace_overhead_ratio"]["value"] > 0


def _inputs(workload, seed, workdir):
    stream = RequestStream(workload, seed, str(workdir), TINY)
    stream.prepare(12)
    argvs = [[a.replace(str(workdir), "<dir>") for c in r.commands for a in c.argv]
             for r in stream.requests]
    files = {name: (workdir / name).read_bytes() for name in sorted(os.listdir(workdir))}
    return argvs, files


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_inputs(workload, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = _inputs(workload, 7, dirs[0])
    assert first == _inputs(workload, 7, dirs[1])
    assert first != _inputs(workload, 8, dirs[2])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
