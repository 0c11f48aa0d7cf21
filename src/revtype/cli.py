"""Command-line front end.

Subcommands:

    classify   validate a surface, fit the coordinate matrix, classify
    verify     validate a surface, run one named residual check over a grid
    scan       scan (lambda, mu) pairs for the closure-coefficient certificate
    catalog    list built-in surfaces or export one to a profile file

Exit codes: 0 success / definite verdict / check passed, 1 usage or input
error or a file that cannot be read or written, 2 inconclusive verdict or
check above tolerance.  Reports embed the full effective configuration and
contain no timestamps, so rerunning a command with the same inputs and seed
reproduces the output byte for byte.
A check that finds no usable sample points fails with exit 2 and a reason.
A command runs with NumPy overflow, division by zero and invalid operations
raised, so such a fault is an input error (exit 1), not a warning, and its
message names the surface and the stage: validation, fit or the check.  So
does the message of a profile domain error or an unbound parameter.

The tolerances (``--tol-arc``, ``--tol-parab``, ``--tol-fit``,
``--tol-struct``, ``--tol``) and ``--lambda``/``--mu`` must be finite
numbers: NaN or an infinity is a usage error (exit 1) that names the option.
A tolerance must also be positive.
The ``scan`` options are checked by `classify.contradiction_scan`.

Work budget: a request whose size is over a budget exits 1 with ``error:``
before any sample is allocated.  The budgets are MAX_GRID_POINTS for
``n_s * n_theta`` of ``--grid``, MAX_SAMPLES for ``--samples``, MAX_PAIRS
for ``--pairs`` and `classify.MAX_SCAN_POINTS` for the lattice of ``scan``.

The parser is built once, when this module is imported, and `main` reuses
it: a parse keeps its results in a fresh namespace, so no call leaves state
behind for the next.  A one-shot ``revtype`` process still builds it once.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import re
import sys
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import beltrami, catalog, classify, geometry
from .expressions import EvalError, ExpressionError
from .geometry import ProfileCurve, ProfileDomainError, ProfileError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2

# Work budget.  Each bound keeps the peak memory of the heaviest command
# that it limits under about 1 GiB, scaled linearly from peaks measured on
# torus(3, 1) at a quarter of the bound or less: about 0.15 KiB per grid
# point (position-identity, as JSON or CSV alike), 0.15 KiB per validation
# sample, and 1.2 KiB per pair (operator-equivalence as CSV, every pair
# found; when nearly every draw is rejected, as on sphere r=100, the draws
# are screened in passes of at most twice the pairs, so the peak is lower).
MAX_GRID_POINTS = 2**20
MAX_SAMPLES = 2**22
MAX_PAIRS = 2**14

# Rows per block of CSV output: the writer holds one block of Python
# values at a time, never a whole report.
CSV_BLOCK = 4096


class InputError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    surface: str
    n_s: int
    n_theta: int
    tol_arc: float
    tol_parab: float
    tol_fit: float
    tol_struct: float
    seed: int

    def __post_init__(self):
        if self.n_s < 2:
            raise InputError("grid needs at least 2 profile samples")
        if self.n_theta < 4:
            raise InputError("grid needs at least 4 circle samples")
        _within_budget("--grid points", self.n_s * self.n_theta, MAX_GRID_POINTS)
        for name in ("tol_arc", "tol_parab", "tol_fit", "tol_struct"):
            if getattr(self, name) <= 0.0:
                raise InputError(f"{name} must be positive")

    def to_dict(self) -> dict:
        return asdict(self)


def _within_budget(what: str, size: int, budget: int) -> None:
    if size > budget:
        raise InputError(f"{what} {size} is over the work budget of {budget}")


def _finite_float(text: str) -> float:
    """argparse type of the tolerance and eigenvalue options."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_params(pairs: Optional[list[str]]) -> dict[str, float]:
    params: dict[str, float] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise InputError(f"--param expects name=value, got {pair!r}")
        name, _, value = pair.partition("=")
        try:
            params[name.strip()] = float(value)
        except ValueError:
            raise InputError(f"parameter {name!r} has non-numeric value {value!r}") from None
    return params


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        a, _, b = text.lower().partition("x")
        return int(a), int(b)
    except ValueError:
        raise InputError(f"--grid expects N_SxN_THETA, e.g. 32x32, got {text!r}") from None


def _load_surface(args) -> tuple[str, ProfileCurve, Optional[catalog.CatalogEntry]]:
    if args.profile and args.catalog:
        raise InputError("give either --catalog or --profile, not both")
    if args.profile:
        try:
            curve = geometry.load_profile(args.profile)
        except FileNotFoundError:
            raise InputError(f"profile file not found: {args.profile}") from None
        except (json.JSONDecodeError, ValueError, ExpressionError) as exc:
            raise InputError(f"bad profile file {args.profile}: {exc}") from None
        return curve.name, curve, None
    if not args.catalog:
        raise InputError("a surface is required: --catalog NAME or --profile FILE")
    try:
        entry = catalog.make(args.catalog, _parse_params(args.param))
    except (ValueError, TypeError) as exc:
        raise InputError(str(exc)) from None
    return entry.curve.name, entry.curve, entry


def _write_json(path: Optional[str], payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: Optional[str], columns: dict) -> None:
    """One CSV row per point of ``columns``, arrays or lists of one size
    keyed by header name, written CSV_BLOCK rows at a time.  No columns
    writes the header ``empty`` and the row ``True``."""
    if not columns:
        columns = {"empty": [True]}
    flat = [np.ravel(c) for c in columns.values()]
    fh = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        for i in range(0, flat[0].size, CSV_BLOCK):
            writer.writerows(zip(*(c[i:i + CSV_BLOCK].tolist() for c in flat)))
    finally:
        if path:
            fh.close()


def _config_from_args(args, surface_label: str) -> RunConfig:
    n_s, n_theta = _parse_grid(args.grid)
    return RunConfig(
        surface=surface_label,
        n_s=n_s,
        n_theta=n_theta,
        tol_arc=args.tol_arc,
        tol_parab=args.tol_parab,
        tol_fit=args.tol_fit,
        tol_struct=args.tol_struct,
        seed=args.seed,
    )


@contextlib.contextmanager
def _stage(label: str, stage: str):
    """Name the surface and the stage in an evaluation fault raised inside,
    a floating-point fault (``sphere(r=1e-160): validation: overflow
    encountered in multiply``), a profile domain error or an unbound
    parameter."""
    try:
        yield
    except (ArithmeticError, ProfileDomainError, EvalError) as exc:
        raise InputError(f"{label}: {stage}: {exc}") from None


def _validate(curve: ProfileCurve, config: RunConfig, n_samples: int = 101):
    validation = geometry.validate_profile(
        curve, n_samples=n_samples, tol_arc=config.tol_arc, tol_parab=config.tol_parab
    )
    if not validation.passed:
        raise InputError(f"{config.surface}: profile validation FAILED\n"
                         + json.dumps(validation.to_dict(), indent=2, sort_keys=True))
    return validation


def cmd_classify(args) -> int:
    label, curve, entry = _load_surface(args)
    config = _config_from_args(args, label)
    _within_budget("--samples", args.samples, MAX_SAMPLES)
    with _stage(label, "validation"):
        validation = _validate(curve, config, args.samples)
    with _stage(label, "fit"):
        report = classify.fit_matrix(
            curve,
            n_s=config.n_s,
            n_theta=config.n_theta,
            tol_parab=config.tol_parab,
            tol_fit=config.tol_fit,
        )
        structure = classify.structure_check(report, tol_struct=config.tol_struct)
    payload = {
        "config": config.to_dict(),
        "validation": validation.to_dict(),
        "fit": report.to_dict(),
        "structure": structure.to_dict(),
    }
    if entry is not None and entry.expected_verdict:
        payload["expected_verdict"] = entry.expected_verdict
    if args.format == "csv":
        flat = sorted(_flatten(payload).items())
        _write_csv(args.out, {"key": [k for k, _ in flat],
                              "value": [json.dumps(v, sort_keys=True) for _, v in flat]})
    else:
        _write_json(args.out, payload)
    if args.out:
        rel = "none" if report.rel_residual is None else f"{report.rel_residual:.3e}"
        print(f"{label}: verdict {report.verdict} (rel_residual {rel})")
    return EXIT_OK if report.verdict != classify.VERDICT_INCONCLUSIVE else EXIT_INCONCLUSIVE


def _flatten(payload: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in payload.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(_flatten(value, name))
        else:
            flat[name] = value
    return flat


def _lam_mu_defaults(args, entry) -> tuple[float, float]:
    lam, mu = args.lam, args.mu
    if lam is None or mu is None:
        if entry is not None and entry.known_matrix is not None:
            known = entry.known_matrix
            lam = known[0][0] if lam is None else lam
            mu = known[2][2] if mu is None else mu
        else:
            raise InputError("this check needs --lambda and --mu for the given surface")
    return float(lam), float(mu)


_NO_ROWS = "no usable points: every grid row is parabolic within tol_parab"

# Default tolerance of each verify check, keyed by check name.  A check
# returns (worst, details, columns): `worst` is None exactly when no point
# was usable, `details` has the same keys either way, and `columns`, the
# per-point arrays of the CSV report, is empty exactly when `worst` is None.
VERIFY_TOLERANCES = {
    "position-identity": 1e-8,
    "curvature-quotient": 1e-10,
    "operator-equivalence": 1e-8,
    "eigen-system": 1e-8,
    "radius-rate": 1e-8,
}


def _run_check(args, config: RunConfig, curve: ProfileCurve, entry):
    """(worst, details, columns) of the check named by ``args.check``.  The
    grid checks share one `geometry.grid_rows` pass; operator-equivalence
    draws its own points."""
    check = args.check
    if check == "operator-equivalence":
        return beltrami.operator_equivalence_residual(
            curve, n_pairs=args.pairs, seed=config.seed, tol_parab=config.tol_parab
        )
    lam_mu = _lam_mu_defaults(args, entry) if check in ("eigen-system", "radius-rate") else ()
    jets, excluded = geometry.grid_rows(curve, config.n_s, config.tol_parab)
    if check == "position-identity":
        return beltrami.position_identity_residual(jets, config.n_theta, excluded)
    if check == "curvature-quotient":
        return geometry.quotient_defects(jets)
    if check == "eigen-system":
        return classify.eigen_system_residuals(jets, *lam_mu)
    return classify.radius_rate_defect(jets, *lam_mu)


def cmd_verify(args) -> int:
    if args.tol is not None and args.tol <= 0.0:
        raise InputError("--tol must be positive")
    label, curve, entry = _load_surface(args)
    config = _config_from_args(args, label)
    check = args.check
    tol = VERIFY_TOLERANCES[check] if args.tol is None else args.tol
    if check == "operator-equivalence":
        if args.pairs < 1:
            raise InputError("--pairs must be at least 1")
        _within_budget("--pairs", args.pairs, MAX_PAIRS)
    with _stage(label, "validation"):
        _validate(curve, config)
    with _stage(label, check):
        worst, details, columns = _run_check(args, config, curve, entry)
    reason: Optional[str] = None
    if check == "operator-equivalence" and details["pairs"] < args.pairs:
        reason = (f"found {details['pairs']} of {args.pairs} usable sample points "
                  f"in {50 * args.pairs} draws")
    elif worst is None:
        reason = _NO_ROWS
    passed = reason is None and worst <= tol
    payload = {
        "config": config.to_dict(),
        "check": check,
        "tolerance": tol,
        "max_residual": worst,
        "passed": passed,
        "details": details,
    }
    if reason is not None:
        payload["reason"] = reason
    if args.format == "csv":
        _write_csv(args.out, columns)
    else:
        _write_json(args.out, payload)
    if args.out:
        print(f"{label}: {check} " + (f"FAIL: {reason}" if reason else
              f"max residual {worst:.3e} (tol {tol:.1e}) -> {'pass' if passed else 'FAIL'}"))
    return EXIT_OK if passed else EXIT_INCONCLUSIVE


def cmd_scan(args) -> int:
    cert = classify.contradiction_scan(
        lam_range=tuple(args.lambda_range),
        mu_range=tuple(args.mu_range),
        step=args.step,
    )
    payload = {
        "config": {
            "lambda_range": list(args.lambda_range),
            "mu_range": list(args.mu_range),
            "step": args.step,
        },
        "certificate": cert.to_dict(),
    }
    _write_json(args.out, payload)
    if args.out:
        if cert.min_max_coefficient is None:
            print("scan: no off-diagonal lattice points")
        else:
            print(
                f"scan: min max-coefficient {cert.min_max_coefficient:.6g} at "
                f"(lambda, mu) = {cert.argmin}; cells certified: {cert.cells_certified}"
            )
    return EXIT_OK


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog.names():
            entry = catalog.make(name)
            tag = "" if entry.valid else "  [invalid by design]"
            print(f"{name}: {entry.description}{tag}")
        return EXIT_OK
    entry = catalog.make(args.name, _parse_params(args.param))
    if args.out:
        geometry.save_profile(entry.curve, args.out)
        print(f"wrote {args.out}")
    else:
        _write_json(None, geometry.profile_to_dict(entry.curve))
    return EXIT_OK


def _add_surface_options(sub):
    sub.add_argument("--catalog", help="built-in surface name")
    sub.add_argument("--param", action="append", metavar="NAME=VALUE",
                     help="surface parameter (repeatable)")
    sub.add_argument("--profile", help="path to a profile definition file")
    sub.add_argument("--grid", default="32x32", help="grid as N_SxN_THETA (default 32x32)")
    sub.add_argument("--tol-arc", type=_finite_float, default=geometry.DEFAULT_TOL_ARC)
    sub.add_argument("--tol-parab", type=_finite_float, default=geometry.DEFAULT_TOL_PARAB)
    sub.add_argument("--tol-fit", type=_finite_float, default=classify.DEFAULT_TOL_FIT)
    sub.add_argument("--tol-struct", type=_finite_float, default=classify.DEFAULT_TOL_STRUCT)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", help="write the report to this path")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads negative numbers in e-notation, such as
    -2e0 or -1.5e-3, as values rather than option flags. Subparsers are
    made with the parent's class, so every subcommand inherits this."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="revtype",
        description="Third-form Beltrami operators and finite-type classification "
        "of surfaces of revolution.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_classify = subs.add_parser("classify", help="fit the coordinate matrix and classify")
    _add_surface_options(p_classify)
    p_classify.add_argument("--samples", type=int, default=101,
                            help="validation sample count (default 101)")
    p_classify.set_defaults(func=cmd_classify)

    p_verify = subs.add_parser("verify", help="run one residual check")
    p_verify.add_argument("check", choices=tuple(VERIFY_TOLERANCES))
    _add_surface_options(p_verify)
    p_verify.add_argument("--tol", type=_finite_float, default=None,
                          help="override the check tolerance")
    p_verify.add_argument("--lambda", dest="lam", type=_finite_float, default=None)
    p_verify.add_argument("--mu", type=_finite_float, default=None)
    p_verify.add_argument("--pairs", type=int, default=1000,
                          help="random pairs for operator-equivalence")
    p_verify.set_defaults(func=cmd_verify)

    p_scan = subs.add_parser("scan", help="closure-coefficient contradiction scan")
    p_scan.add_argument("--lambda-range", nargs=2, type=float, default=(-10.0, 10.0))
    p_scan.add_argument("--mu-range", nargs=2, type=float, default=(-10.0, 10.0))
    p_scan.add_argument("--step", type=float, default=0.25)
    p_scan.add_argument("--out", help="write the certificate to this path")
    p_scan.set_defaults(func=cmd_scan)

    p_cat = subs.add_parser("catalog", help="list or export built-in surfaces")
    cat_subs = p_cat.add_subparsers(dest="action", required=True)
    p_list = cat_subs.add_parser("list")
    p_list.set_defaults(func=cmd_catalog, action="list")
    p_export = cat_subs.add_parser("export")
    p_export.add_argument("name")
    p_export.add_argument("--param", action="append", metavar="NAME=VALUE")
    p_export.add_argument("--out", help="output profile file path")
    p_export.set_defaults(func=cmd_catalog, action="export")

    return parser


_PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (InputError, ProfileError, ExpressionError, ValueError, ArithmeticError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
