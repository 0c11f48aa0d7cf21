#!/usr/bin/env python3
"""revtype benchmark: one closed-loop client driving ``revtype.cli.main``.

    python3 perfbench/run.py --workload classify-tall --seed 1 --seconds 25 --trace 0

Run from any directory; the program is imported from ``src/`` next to this
directory.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a separate traced run.
End-to-end timings are scaled to a reference host speed (see
``calibration_seconds``); the unscaled values are printed on lines before
the result, which also describe the environment and every metric in words.
The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Requests generated at set-up per second of measurement; later requests
# are generated between timed calls.
POOL_PER_SECOND = 30
SETUP_REPEATS = 5
WARMUP_REQUESTS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The shared host's CPU speed swings by up to 1.7x in phases of seconds,
# for any code, so raw run medians drift with it.  A fixed pure-Python
# loop is timed after every request and set-up, and each time is scaled
# to a host on which that loop takes REFERENCE_CALIBRATION_S.
CALIBRATION_LOOPS = 150_000
REFERENCE_CALIBRATION_S = 0.0125


def pin_environment() -> dict:
    """Unset REVTYPE_THREADS (it changes report bytes and starts a thread
    pool) and cap BLAS threads at nproc; children inherit both."""
    os.environ.pop("REVTYPE_THREADS", None)
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in BLAS_THREAD_VARS:
        try:
            cap = min(int(os.environ[var]), nproc)
        except (KeyError, ValueError):
            cap = nproc
        os.environ[var] = str(max(1, cap))
    return {"nproc": nproc, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}


def describe_environment(pinned: dict) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        blas_name = "unknown"
    return {
        **pinned,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "revtype_threads": os.environ.get("REVTYPE_THREADS", "unset"),
    }


def parse_args(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes: small grids, few pairs, coarse scan")
    return ap.parse_args(argv)


def fresh_import_seconds() -> float:
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); import revtype"],
        check=True,
    )
    return time.perf_counter() - t0


def set_up(args, workdir: str, sizes, repeats: int):
    """Fresh-interpreter import plus input generation, ``repeats`` times;
    returns the median seconds, scaled like the latencies and unscaled,
    and the last stream."""
    from workloads import RequestStream

    scaled, raw, stream = [], [], None
    pool = max(8, int(POOL_PER_SECOND * args.seconds))
    before = calibration_seconds()
    for _ in range(repeats):
        t_import = fresh_import_seconds()
        t0 = time.perf_counter()
        stream = RequestStream(args.workload, args.seed, workdir, sizes)
        stream.prepare(pool)
        raw.append(t_import + time.perf_counter() - t0)
        after = calibration_seconds()
        scaled.append(raw[-1] * REFERENCE_CALIBRATION_S * 2 / (before + after))
        before = after
    return statistics.median(scaled), statistics.median(raw), stream


def replay(request) -> dict:
    """The request in a fresh interpreter: report bytes and peak RSS."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "replay.py")],
        input=json.dumps([list(c.argv) for c in request.commands]),
        capture_output=True, text=True, check=True, timeout=150,
    )
    return json.loads(proc.stdout)


def calibration_seconds() -> float:
    """Wall time of a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    rank; below 21 samples that percentile lies under the median, and the
    median stands in."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 21:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Loop:
    """Closed loop over fresh requests until the deadline; at least one."""

    def __init__(self, stream, seconds: float):
        self.stream = stream
        self.seconds = seconds
        self.failures: list[str] = []
        self.attempted = 0

    def run(self, step) -> None:
        deadline = time.perf_counter() + self.seconds
        while self.attempted == 0 or time.perf_counter() < deadline:
            request = self.stream.get(self.attempted)
            self.attempted += 1
            problem = step(request)
            if problem:
                self.failures.append(f"{request.label}: {problem}")


def run_checked(request, reference: dict):
    """The request's outcome and failure, if any, including report bytes
    that differ from the first request's replay."""
    from workloads import execute

    outcome = execute(request)
    if outcome.error:
        return outcome, outcome.error
    if request.index == 0 and outcome.outputs != reference["outputs"]:
        return outcome, "report bytes differ between two runs of the first request"
    return outcome, None


def run_plain(loop: Loop, reference: dict) -> tuple[list[float], list[float]]:
    """Raw latencies and, for each, the mean calibration time measured
    just before and just after it."""
    from workloads import clear_caches

    latencies: list[float] = []
    calibrations: list[float] = []
    before = calibration_seconds()

    def step(request):
        nonlocal before
        clear_caches()
        outcome, problem = run_checked(request, reference)
        after = calibration_seconds()
        if not problem:
            latencies.append(outcome.latency_s)
            calibrations.append((before + after) / 2)
        before = after
        return problem

    loop.run(step)
    return latencies, calibrations


def timing_metrics(latencies: list[float]) -> tuple[dict, float]:
    tail_s, rank = tail(latencies) if latencies else (0.0, 0.0)
    return {
        "requests_per_s": (len(latencies) / sum(latencies) if latencies else 0.0, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3 if latencies else 0.0, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
    }, rank


def run_traced(loop: Loop, reference: dict) -> tuple[dict, list[str]]:
    """Each request runs plain, then traced on emptied caches again; the
    traced run's spans are summarized per request."""
    import tracing
    from revtype import geometry
    from workloads import clear_caches

    cache_info = getattr(getattr(geometry, "_fg_jets", None), "cache_info", None)
    tracer = tracing.Tracer()
    acc = Accumulator()

    def step(request):
        clear_caches()
        plain, problem = run_checked(request, reference)
        if problem:
            return problem
        clear_caches()
        before = cache_info() if cache_info else None
        tracer.install()
        tracer.request = request.index
        try:
            with tracer.span("request"):
                traced, problem = run_checked(request, reference)
        finally:
            tracer.uninstall()
        after = cache_info() if cache_info else None
        spans = tracer.take()
        if problem:
            return f"traced: {problem}"
        if traced.outputs != plain.outputs:
            return "tracing changed the report bytes"
        summary = tracing.summarize(spans)
        problem = check_nesting(spans, summary)
        if problem:
            return problem
        acc.add(summary, traced, plain, before, after)
        return None

    loop.run(step)
    reported = sorted({name for *_, name in SPAN_METRICS})
    absent = [name for name in reported if name not in tracer.names]
    if cache_info is None:
        absent.append("geometry._fg_jets.cache_info")
    return acc.metrics(), absent


def check_nesting(spans: list, summary: dict) -> str | None:
    """Children lie inside their parents and all self times add up to the
    request span."""
    root = spans[0]
    if root[0] != "request" or root[3] != -1:
        return "first span is not the request root"
    for name, start, end, parent, _ in spans[1:]:
        p = spans[parent] if parent >= 0 else None
        if p is None or start < p[1] or end > p[2]:
            return f"span {name} is not nested in a parent"
    span_s = root[2] - root[1]
    if abs(sum(summary["self"].values()) - span_s) > 1e-9 * max(1.0, span_s):
        return "self times do not add up to the request span"
    return None


# (metric, unit, field, span name): per-request mean of a span statistic.
# Functions missing from the traced program are reported as absent.
SPAN_METRICS = (
    ("cli.main.self_ms", "ms", "self", "cli.main"),
    ("catalog.make.ms", "ms", "total", "catalog.make"),
    ("expressions.parse.calls", "count", "calls", "expressions.parse"),
    ("expressions.parse.ms", "ms", "total", "expressions.parse"),
    ("expressions.eval_jet3.calls", "count", "calls", "expressions.eval_jet3"),
    ("expressions.eval_jet3.self_ms", "ms", "self", "expressions.eval_jet3"),
    ("geometry.grid_rows.calls", "count", "calls", "geometry.grid_rows"),
    ("geometry.grid_rows.ms", "ms", "total", "geometry.grid_rows"),
    ("geometry.validate_profile.ms", "ms", "total", "geometry.validate_profile"),
    ("geometry.require_regular.calls", "count", "calls", "geometry.require_regular"),
    ("geometry.require_regular.self_ms", "ms", "self", "geometry.require_regular"),
    ("geometry.radii_sum_jet.calls", "count", "calls", "geometry.radii_sum_jet"),
    ("geometry.radii_sum_jet.self_ms", "ms", "self", "geometry.radii_sum_jet"),
    ("geometry.forms_at.ms", "ms", "total", "geometry.forms_at"),
    ("beltrami.laplacian_profile_factors.calls", "count", "calls", "beltrami.laplacian_profile_factors"),
    ("beltrami.laplacian_profile_factors.self_ms", "ms", "self", "beltrami.laplacian_profile_factors"),
    ("beltrami.first_beltrami.calls", "count", "calls", "beltrami.first_beltrami"),
    ("beltrami.first_beltrami.self_ms", "ms", "self", "beltrami.first_beltrami"),
    ("beltrami.second_beltrami.self_ms", "ms", "self", "beltrami.second_beltrami"),
    ("beltrami.second_beltrami_divergence.self_ms", "ms", "self", "beltrami.second_beltrami_divergence"),
    ("beltrami.position_identity_residual.self_ms", "ms", "self", "beltrami.position_identity_residual"),
    ("beltrami.operator_equivalence_residual.self_ms", "ms", "self", "beltrami.operator_equivalence_residual"),
    ("classify.fit_matrix.self_ms", "ms", "self", "classify.fit_matrix"),
    ("classify.fit_from_samples.ms", "ms", "total", "classify.fit_from_samples"),
    ("classify.eigen_system_residuals.ms", "ms", "total", "classify.eigen_system_residuals"),
    ("classify.radius_rate_defect.ms", "ms", "total", "classify.radius_rate_defect"),
    ("classify.contradiction_scan.ms", "ms", "total", "classify.contradiction_scan"),
)
LAYER_TOTALS = ("cli", "catalog", "expressions", "geometry", "beltrami", "classify")


class Accumulator:
    """Sums over traced requests; metrics are per-request means or pooled
    ratios (a ratio with nothing attempted reads 0)."""

    def __init__(self):
        self.n = 0
        self.sums: dict[str, float] = {}
        self.traced_s = self.plain_s = 0.0

    def _add(self, key: str, value: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + value

    def add(self, summary: dict, traced, plain, before, after) -> None:
        self.n += 1
        self.traced_s += traced.latency_s
        self.plain_s += plain.latency_s
        for field in ("calls", "total", "self"):
            for name, value in summary[field].items():
                self._add(f"{field}:{name}", value)
                layer = name.split(".", 1)[0]
                if field == "self":
                    self._add(f"layer:{layer if layer in LAYER_TOTALS else 'harness'}", value)
        oe = "beltrami.operator_equivalence_residual"
        self._add("oe_pairs", summary["pairs"].get((oe, "beltrami.second_beltrami"), 0))
        self._add("oe_draws", summary["pairs"].get((oe, "geometry.require_regular"), 0))
        if before is not None:
            self._add("fg_lookups", (after.hits + after.misses) - (before.hits + before.misses))
            self._add("fg_hits", after.hits - before.hits)
            self._add("fg_size", after.currsize - before.currsize)
        for report in traced.reports:
            if "fit" in report:
                self._add("fit_points", report["fit"].get("n_points", 0))
            if "certificate" in report:
                self._add("cells", report["certificate"].get("cells_examined", 0))

    def metrics(self) -> dict:
        n = max(self.n, 1)
        get = self.sums.get

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out: dict[str, tuple[float, str]] = {}
        for metric, unit, field, name in SPAN_METRICS:
            scale = 1.0 if field == "calls" else 1e3
            out[metric] = (get(f"{field}:{name}", 0.0) * scale / n, unit)
        out["geometry.fg_jets.lookups"] = (get("fg_lookups", 0.0) / n, "count")
        out["geometry.fg_jets.hit_ratio"] = (ratio(get("fg_hits", 0.0), get("fg_lookups", 0.0)), "ratio")
        out["geometry.fg_jets.currsize"] = (get("fg_size", 0.0) / n, "count")
        out["beltrami.operator_equivalence.accept_ratio"] = (
            ratio(get("oe_pairs", 0.0), get("oe_draws", 0.0)), "ratio")
        out["classify.fit.points"] = (get("fit_points", 0.0) / n, "count")
        out["classify.scan.cells_examined"] = (get("cells", 0.0) / n, "count")
        out["classify.scan.cells_per_s"] = (
            ratio(get("cells", 0.0), get("total:classify.contradiction_scan", 0.0)), "1/s")
        for layer in LAYER_TOTALS + ("harness",):
            out[f"{layer}.self_ms"] = (get(f"layer:{layer}", 0.0) * 1e3 / n, "ms")
        out["request.ms"] = (get("total:request", 0.0) * 1e3 / n, "ms")
        out["trace_overhead_ratio"] = (ratio(self.traced_s, self.plain_s), "ratio")
        return out


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "revtype", "__init__.py")):
        print(f"error: no revtype sources under {SRC}", file=sys.stderr)
        return 2
    pinned = pin_environment()
    sys.path[:0] = [HERE, SRC]
    args = parse_args(argv)
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    env = describe_environment(pinned)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_s, raw_setup_s, stream = set_up(args, workdir, sizes, 1 if args.trace or args.tiny else SETUP_REPEATS)
        warm = workloads.RequestStream(args.workload, args.seed + 1_000_003, workdir + "-warm", sizes)
        os.makedirs(warm.workdir, exist_ok=True)
        for i in range(WARMUP_REQUESTS):
            workloads.clear_caches()
            workloads.execute(warm.get(i))
        first = replay(stream.get(0))
        loop = Loop(stream, args.seconds)
        if args.trace:
            layer, absent = run_traced(loop, first)
        else:
            latencies, calibrations = run_plain(loop, first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(workdir + "-warm", ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    for failure in loop.failures:
        print(f"FAILED {failure}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        if absent:
            print("absent " + " ".join(absent))
        metrics = layer
    else:
        scaled = [lat * REFERENCE_CALIBRATION_S / cal for lat, cal in zip(latencies, calibrations)]
        metrics, rank = timing_metrics(scaled)
        raw, _ = timing_metrics(latencies)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (first["maxrss_kib"] / 1024.0, "MiB")
        if calibrations:
            print(f"calibration loop median {statistics.median(calibrations) * 1e3:.3f} ms; "
                  f"timings are scaled to a loop time of {REFERENCE_CALIBRATION_S * 1e3:g} ms")
        raw["setup_s"] = (raw_setup_s, "s")
        for name, (value, unit) in raw.items():
            print(f"{args.workload} unscaled {name} = {value:.6g} {unit}")
        print(f"latency_tail_ms is p{rank:.1f} of {len(latencies)} samples")
    print(f"failure_ratio = {len(loop.failures) / loop.attempted:.6g} "
          f"({len(loop.failures)} of {loop.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
