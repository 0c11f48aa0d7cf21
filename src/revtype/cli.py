"""Command-line front end.

Subcommands:

    classify   validate a surface, fit the coordinate matrix, classify
    verify     run one named residual check over a grid
    scan       scan (lambda, mu) pairs for the closure-coefficient certificate
    catalog    list built-in surfaces or export one to a profile file

Exit codes: 0 success / definite verdict / check passed, 1 usage or input
error, 2 inconclusive verdict or check above tolerance.  Reports embed the
full effective configuration and contain no timestamps, so rerunning a
command with the same inputs and seed reproduces the output byte for byte.
A check that finds no usable sample points fails with exit 2 and a reason.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import beltrami, catalog, classify, geometry
from .expressions import ExpressionError
from .geometry import ProfileCurve, ProfileError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2


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
        for name in ("tol_arc", "tol_parab", "tol_fit", "tol_struct"):
            if getattr(self, name) <= 0.0:
                raise InputError(f"{name} must be positive")

    def to_dict(self) -> dict:
        return {
            "surface": self.surface,
            "n_s": self.n_s,
            "n_theta": self.n_theta,
            "tol_arc": self.tol_arc,
            "tol_parab": self.tol_parab,
            "tol_fit": self.tol_fit,
            "tol_struct": self.tol_struct,
            "seed": self.seed,
        }


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
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: Optional[str], rows: list[dict]) -> None:
    if not rows:
        rows = [{"empty": True}]
    fieldnames = list(rows[0].keys())
    fh = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
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


def cmd_classify(args) -> int:
    label, curve, entry = _load_surface(args)
    config = _config_from_args(args, label)
    validation = geometry.validate_profile(
        curve, n_samples=args.samples, tol_arc=config.tol_arc, tol_parab=config.tol_parab
    )
    if not validation.passed:
        print(f"{label}: profile validation FAILED", file=sys.stderr)
        print(json.dumps(validation.to_dict(), indent=2, sort_keys=True), file=sys.stderr)
        return EXIT_INPUT
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
        rows = [{"key": k, "value": json.dumps(v, sort_keys=True)} for k, v in sorted(_flatten(payload).items())]
        _write_csv(args.out, rows)
    else:
        _write_json(args.out, payload)
    if args.out:
        print(f"{label}: verdict {report.verdict} (rel_residual {report.rel_residual:.3e})")
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


def cmd_verify(args) -> int:
    label, curve, entry = _load_surface(args)
    config = _config_from_args(args, label)
    check = args.check
    collect = args.format == "csv"
    details: dict = {}
    rows: list[dict] = []
    worst: Optional[float] = None
    reason: Optional[str] = None
    if check == "position-identity":
        tol = args.tol if args.tol is not None else 1e-8
        rep = beltrami.position_identity_residual(
            curve, config.n_s, config.n_theta, config.tol_parab, collect_rows=collect
        )
        worst = rep.max_residual
        details = rep.to_dict()
        rows = rep.rows or []
        if not rep.points_used:
            reason = _NO_ROWS
    elif check == "curvature-quotient":
        tol = args.tol if args.tol is not None else 1e-10
        worst, used = geometry.quotient_consistency(curve, config.n_s, config.tol_parab)
        details = {"max_residual": worst, "rows_used": used}
        if not used:
            reason = _NO_ROWS
        elif collect:
            grid, _ = geometry.grid_rows(curve, config.n_s, config.tol_parab)
            fm = geometry.forms_at(curve, np.array(grid), config.tol_parab)
            rebuilt = (fm.kappa1 + fm.kappa2) / (fm.kappa1 * fm.kappa2)
            defect = np.abs(fm.R - rebuilt) / (1.0 + np.abs(fm.R))
            keys = ("s", "quotient", "from_curvature_ratios", "rel_defect")
            columns = zip(grid, fm.R.tolist(), rebuilt.tolist(), defect.tolist())
            rows = [dict(zip(keys, values)) for values in columns]
    elif check == "operator-equivalence":
        tol = args.tol if args.tol is not None else 1e-8
        if args.pairs < 1:
            raise InputError("--pairs must be at least 1")
        rep = beltrami.operator_equivalence_residual(
            curve,
            n_pairs=args.pairs,
            seed=config.seed,
            tol_parab=config.tol_parab,
            collect_rows=collect,
        )
        worst = rep.max_rel_diff
        details = rep.to_dict()
        rows = rep.rows or []
        if rep.pairs < args.pairs:
            reason = (f"found {rep.pairs} of {args.pairs} usable sample points "
                      f"in {50 * args.pairs} draws")
    elif check in ("eigen-system", "radius-rate"):
        tol = args.tol if args.tol is not None else 1e-8
        lam, mu = _lam_mu_defaults(args, entry)
        grid, _ = geometry.grid_rows(curve, config.n_s, config.tol_parab)
        details = {"lambda": lam, "mu": mu}
        if not grid:
            reason = _NO_ROWS
        elif check == "eigen-system":
            res = classify.eigen_system_residuals(curve, lam, mu, grid, config.tol_parab)
            worst = max(res.as_tuple())
            details.update(res.to_dict())
            if collect:
                for s in grid:
                    r = classify.eigen_system_residuals(curve, lam, mu, [s], config.tol_parab)
                    rows.append({"s": s, **r.to_dict()})
        else:
            worst = classify.radius_rate_defect(curve, lam, mu, grid, config.tol_parab)
            details["max_defect"] = worst
            if collect:
                for s in grid:
                    d = classify.radius_rate_defect(curve, lam, mu, [s], config.tol_parab)
                    rows.append({"s": s, "defect": d})
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown check {check!r}")
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
        _write_csv(args.out, rows)
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
        phi_samples=args.phi_samples,
        certify_cells=not args.no_cells,
    )
    payload = {
        "config": {
            "lambda_range": list(args.lambda_range),
            "mu_range": list(args.mu_range),
            "step": args.step,
            "phi_samples": args.phi_samples,
            "certify_cells": not args.no_cells,
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
    sub.add_argument("--tol-arc", type=float, default=geometry.DEFAULT_TOL_ARC)
    sub.add_argument("--tol-parab", type=float, default=geometry.DEFAULT_TOL_PARAB)
    sub.add_argument("--tol-fit", type=float, default=classify.DEFAULT_TOL_FIT)
    sub.add_argument("--tol-struct", type=float, default=classify.DEFAULT_TOL_STRUCT)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", help="write the report to this path")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_verify.add_argument(
        "check",
        choices=(
            "position-identity",
            "curvature-quotient",
            "operator-equivalence",
            "eigen-system",
            "radius-rate",
        ),
    )
    _add_surface_options(p_verify)
    p_verify.add_argument("--tol", type=float, default=None,
                          help="override the check tolerance")
    p_verify.add_argument("--lambda", dest="lam", type=float, default=None)
    p_verify.add_argument("--mu", type=float, default=None)
    p_verify.add_argument("--pairs", type=int, default=1000,
                          help="random pairs for operator-equivalence")
    p_verify.set_defaults(func=cmd_verify)

    p_scan = subs.add_parser("scan", help="closure-coefficient contradiction scan")
    p_scan.add_argument("--lambda-range", nargs=2, type=float, default=(-10.0, 10.0))
    p_scan.add_argument("--mu-range", nargs=2, type=float, default=(-10.0, 10.0))
    p_scan.add_argument("--step", type=float, default=0.25)
    p_scan.add_argument("--phi-samples", type=int, default=64)
    p_scan.add_argument("--no-cells", action="store_true",
                        help="skip the interval cell certificate")
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


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ProfileError, ExpressionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
