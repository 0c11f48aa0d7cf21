"""Seeded request streams, request execution and the correctness gate.

A request is a list of ``revtype`` command lines, each with the exit code it
must return and a check of its report.  ``classify-*`` and ``scan-*``
requests are one command; a ``verify-suite`` request is the five verify
checks on one surface.  Request ``i`` of a stream depends only on the seed
and ``i``, so one seed always yields the same argv lists and profile files.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

KINDS = ("torus", "sphere", "catenoid")
# Every third pass over the kinds sends the surfaces as --profile files.
PROFILE_PASS = 2

VERIFY_CHECKS = (
    "position-identity",
    "curvature-quotient",
    "operator-equivalence",
    "eigen-system",
    "radius-rate",
)
# On the torus no constant matrix exists, so the two lambda/mu checks
# run with lambda = mu = 2 and must report a residual above tolerance.
TORUS_FAILING_CHECKS = ("eigen-system", "radius-rate")

EXIT_OK, EXIT_INCONCLUSIVE = 0, 2


@dataclass(frozen=True)
class Sizes:
    tall_grid: str
    wide_grid: str
    verify_grid: str
    pairs: int
    scan_step: float
    scan_box: float


FULL = Sizes("1024x16", "64x4096", "64x64", 500, 0.05, 10.0)
TINY = Sizes("24x8", "8x32", "8x8", 20, 0.5, 2.0)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expect_exit: int
    check: Callable[[dict], Optional[str]]


@dataclass(frozen=True)
class Request:
    index: int
    label: str
    commands: tuple[Command, ...]


@dataclass
class Outcome:
    latency_s: float
    outputs: list[str] = field(default_factory=list)
    error: Optional[str] = None
    reports: list[dict] = field(default_factory=list)


def _draw_params(rng: random.Random, kind: str) -> dict[str, float]:
    if kind == "torus":
        # R >= 2 > 1.5 >= r keeps R > r for every draw.
        return {"R": round(rng.uniform(2.0, 6.0), 6), "r": round(rng.uniform(0.3, 1.5), 6)}
    if kind == "sphere":
        return {"r": round(rng.uniform(0.3, 6.0), 6)}
    return {"c": round(rng.uniform(0.3, 4.0), 6)}


def _param_args(params: dict[str, float]) -> list[str]:
    out: list[str] = []
    for name, value in params.items():
        out += ["--param", f"{name}={value!r}"]
    return out


def _verdict_check(expected: str) -> Callable[[dict], Optional[str]]:
    def check(report: dict) -> Optional[str]:
        got = report.get("fit", {}).get("verdict")
        if got != expected:
            return f"verdict {got} != expected {expected}"
        if report.get("expected_verdict", expected) != expected:
            return f"report expects {report['expected_verdict']}, catalog says {expected}"
        return None

    return check


def _passed_check(want: bool) -> Callable[[dict], Optional[str]]:
    def check(report: dict) -> Optional[str]:
        if report.get("passed") is not want:
            return f"passed={report.get('passed')} (want {want})"
        return None

    return check


def _scan_check(report: dict) -> Optional[str]:
    cert = report.get("certificate", {})
    low = cert.get("min_max_coefficient")
    if cert.get("cells_certified") is not True:
        return "cells_certified is not true"
    if cert.get("cell_failures") != 0:
        return f"cell_failures={cert.get('cell_failures')}"
    if low is None or not low > 0.0:
        return f"min_max_coefficient={low}"
    return None


class RequestStream:
    """Lazily generated, seed-determined requests of one workload.

    Profile files for ``--profile`` requests are written into ``workdir``
    when their request is generated; ``prepare(n)`` generates the first
    ``n`` requests up front, which is the benchmark's input set-up.
    """

    def __init__(self, workload: str, seed: int, workdir: str, sizes: Sizes = FULL):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.workdir = workdir
        self.sizes = sizes
        self.rng = random.Random(f"{workload}/{seed}")
        self.requests: list[Request] = []

    def prepare(self, n: int) -> None:
        while len(self.requests) < n:
            self.requests.append(self._generate(len(self.requests)))

    def get(self, i: int) -> Request:
        self.prepare(i + 1)
        return self.requests[i]

    def _generate(self, i: int) -> Request:
        if self.workload == "scan-certificate":
            return self._scan(i)
        kind = KINDS[i % len(KINDS)]
        params = _draw_params(self.rng, kind)
        if self.workload == "verify-suite":
            return self._verify(i, kind, params)
        return self._classify(i, kind, params)

    def _surface_args(self, i: int, kind: str, params: dict[str, float]) -> tuple[list[str], str]:
        from revtype import catalog, geometry

        entry = catalog.make(kind, params)
        if (i // len(KINDS)) % 3 != PROFILE_PASS:
            return ["--catalog", kind, *_param_args(params)], entry.expected_verdict
        path = os.path.join(self.workdir, f"{self.workload}-{i:06d}.json")
        geometry.save_profile(entry.curve, path)
        return ["--profile", path], entry.expected_verdict

    def _classify(self, i: int, kind: str, params: dict[str, float]) -> Request:
        surface, expected = self._surface_args(i, kind, params)
        grid = self.sizes.tall_grid if self.workload == "classify-tall" else self.sizes.wide_grid
        argv = ("classify", *surface, "--grid", grid)
        label = f"{self.workload}#{i} {surface[0][2:]} {kind} {params}"
        return Request(i, label, (Command(argv, EXIT_OK, _verdict_check(expected)),))

    def _verify(self, i: int, kind: str, params: dict[str, float]) -> Request:
        surface = ["--catalog", kind, *_param_args(params)]
        commands = []
        for check in VERIFY_CHECKS:
            argv = ["verify", check, *surface]
            if check == "position-identity":
                argv += ["--grid", self.sizes.verify_grid]
            elif check == "operator-equivalence":
                argv += ["--pairs", str(self.sizes.pairs), "--seed", str(self.rng.randrange(1 << 16))]
            elif kind == "torus" and check in TORUS_FAILING_CHECKS:
                argv += ["--lambda", "2", "--mu", "2"]
            fails = kind == "torus" and check in TORUS_FAILING_CHECKS
            expect = EXIT_INCONCLUSIVE if fails else EXIT_OK
            commands.append(Command(tuple(argv), expect, _passed_check(not fails)))
        return Request(i, f"verify-suite#{i} {kind} {params}", tuple(commands))

    def _scan(self, i: int) -> Request:
        step, box = self.sizes.scan_step, self.sizes.scan_box
        # Lower corners on the step lattice, boxes inside [-10, 10]^2.
        slots = int(round((20.0 - box) / step))
        lam0 = -10.0 + step * self.rng.randint(0, slots)
        mu0 = -10.0 + step * self.rng.randint(0, slots)
        bounds = [f"{v:.2f}" for v in (lam0, lam0 + box, mu0, mu0 + box)]
        argv = ("scan", "--step", f"{step:g}", "--lambda-range", *bounds[:2], "--mu-range", *bounds[2:])
        label = f"scan-certificate#{i} lambda {bounds[:2]} mu {bounds[2:]}"
        return Request(i, label, (Command(argv, EXIT_OK, _scan_check),))


WORKLOADS = ("classify-tall", "classify-wide", "verify-suite", "scan-certificate")


def clear_caches() -> None:
    """Empty every ``functools`` cache in the loaded ``revtype`` modules, so
    each request starts as cold as a fresh CLI process."""
    for name, module in list(sys.modules.items()):
        if name == "revtype" or name.startswith("revtype."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def execute(request: Request) -> Outcome:
    """Run a request's commands in order through ``revtype.cli.main``
    (looked up per command, so a traced wrapper is picked up) and apply
    the gate.

    Only the ``main`` calls are timed.  A wrong exit code, a failed report
    check, an exception or a traceback on stderr makes the request failed.
    """
    from revtype import cli

    outcome = Outcome(latency_s=0.0)
    for cmd in request.commands:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = cli.main(list(cmd.argv))
                finally:
                    outcome.latency_s += time.perf_counter() - t0
        except Exception as exc:  # the gate records any crash as a failure
            outcome.error = f"{' '.join(cmd.argv)}: {type(exc).__name__}: {exc}"
            return outcome
        text = out.getvalue()
        outcome.outputs.append(text)
        if "Traceback" in err.getvalue():
            outcome.error = f"{' '.join(cmd.argv)}: traceback on stderr"
            return outcome
        if code != cmd.expect_exit:
            tail = err.getvalue().strip().splitlines()[-1:] or [""]
            outcome.error = f"{' '.join(cmd.argv)}: exit {code} (want {cmd.expect_exit}) {tail[0]}"
            return outcome
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            outcome.error = f"{' '.join(cmd.argv)}: report is not JSON"
            return outcome
        outcome.reports.append(report)
        problem = cmd.check(report)
        if problem:
            outcome.error = f"{' '.join(cmd.argv)}: {problem}"
            return outcome
    return outcome
