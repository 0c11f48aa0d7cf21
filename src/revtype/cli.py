"""Command-line front end.

Subcommands:

    classify   validate a surface, fit the coordinate matrix, classify
    verify     validate a surface, run one named residual check over a grid
    scan       scan (lambda, mu) pairs for the closure-coefficient certificate
    catalog    list built-in surfaces or export one to a profile file

Exit codes: 0 success / definite verdict / check passed / box certified,
1 usage or input error, a file that cannot be read or written or a closed
stdout (with no message), 2 inconclusive verdict, check above tolerance or
a scan that certifies no cell (``cells_certified: false``: a box without
area, every lattice point on the diagonal, a bound that rounds to zero or
a failed identity check), whose report is written all the same.  Reports
embed the configuration their command reads and contain no timestamps, so
rerunning a command with the same inputs and seed reproduces the output
byte for byte.
A check that finds no usable sample points fails with exit 2 and a reason.
A command runs with NumPy overflow, division by zero and invalid operations
raised, so such a fault is an input error (exit 1), not a warning, and its
message names the surface and the stage: validation, fit or the check.  So
does the message of a profile domain error or an unbound parameter.
``classify`` and every check evaluate the profile once, in one pass over
the validation samples and the next stage's samples: the grid's profile
samples, or operator-equivalence's first screening pass of draws.  When
that pass faults, validation and the stage after it evaluate their own
samples, one after the other, so the fault is named after the stage that
meets it.  One helper, `_profile_stage`, runs that pass, its fallback and
validation for every command.  A grid check that needs ``--lambda`` and
``--mu`` reports a missing one after validation, so a profile that fails
it says so first.

``classify`` and each ``verify CHECK`` take one surface, ``--catalog NAME``
(with ``--param NAME=VALUE``, repeatable) or ``--profile FILE``, and
``--tol-arc``, ``--tol-parab``, ``--out`` and ``--format``.  ``classify``
adds ``--grid``, ``--tol-fit`` and ``--samples``.  A check adds ``--tol``
and ``--grid`` (position-identity), ``--rows`` (the row checks, which read
no theta) or ``--pairs`` and ``--seed`` (operator-equivalence), and
eigen-system and radius-rate ``--lambda`` and ``--mu``.  A report's
``config`` echoes the surface, the grid or rows and the other options its
command reads, save ``--tol``, ``--lambda``, ``--mu`` and ``--samples``.

Each option value is checked once, by the option's argparse ``type`` at
parse time, so a bad value exits 1 with a message naming the option before
any surface is loaded or any sample allocated.  Tolerances are finite and
positive, ``--lambda`` and ``--mu`` finite.  ``--grid`` is N_SxN_THETA with
n_s >= 2, n_theta >= 4 and at most MAX_GRID_POINTS points, ``--rows`` is
in 2..MAX_GRID_POINTS, ``--samples`` in 2..MAX_SAMPLES, ``--pairs`` in
1..MAX_PAIRS (the upper bounds are the work budget) and ``--seed`` in
0..2**64 - 1, the seeds of the 64-bit generator.  ``--param`` is
NAME=VALUE with a number; `catalog.make` checks that the surface takes
NAME and that the value is finite.  The ``scan``
options, and the work budget `classify.MAX_SCAN_POINTS` of its lattice,
are checked by `classify.contradiction_scan`.

The parser is built once, when this module is imported, and `main` reuses
it: a parse keeps its results in a fresh namespace, so no call leaves state
behind for the next.  A command line is read one of two ways.  A line that
names a leaf, a command with no further subcommand such as ``verify
radius-rate``, and holds only the leaf's exact long options, each with its
value(s) in the words after it, every value converting cleanly and one
surface named, is read in one pass (`_read`) against a table built from
the leaf's own argparse actions.  Every other line (no leaf named, ``-h``,
an abbreviation, ``--opt=value``, ``--``, a positional, a bad value, a
missing or doubled surface) goes to the whole argparse tree, which writes
every usage, help and error message.  Reports are written by
`_json_text`, which lays them out byte for byte as ``json.dumps(...,
indent=2, sort_keys=True)`` does, without its per-container generators.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
from typing import Optional

import numpy as np

from . import beltrami, catalog, classify, geometry
from .expressions import EvalError, ExpressionError
from .geometry import VALIDATION_SAMPLES, ProfileCurve, ProfileDomainError, ProfileError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INCONCLUSIVE = 2

# Work budget.  Each bound keeps the peak memory of the heaviest command
# that it limits under about 1 GiB, measured on torus(3, 1): about 0.17 KiB
# per row (curvature-quotient --rows, 169 MiB at the bound; position-identity
# as JSON runs per row too, and as CSV takes 0.03 KiB per point), 0.15 KiB
# per validation sample (527 MiB at the bound, with the grid jets of the
# same pass), and 0.4 KiB per pair (operator-equivalence as CSV, every pair
# found; when every draw is rejected, as on a polar cap, the draws are
# screened in passes of at most twice the pairs, so the peak is lower).
MAX_GRID_POINTS = 2**20
MAX_SAMPLES = 2**22
MAX_PAIRS = 2**14

# Rows per block of CSV output: the writer holds one block of Python
# values at a time, never a whole report.
CSV_BLOCK = 4096


class InputError(Exception):
    pass


def _finite_float(text: str) -> float:
    """argparse type of ``--lambda`` and ``--mu``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """argparse type of the tolerances: a finite positive number."""
    value = _finite_float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _count(low: int, budget: float = math.inf, high: float = math.inf):
    """argparse type of an integer option in ``low..budget``, the work
    budget, and at most ``high``."""

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected at least {low}, got {text!r}")
        if value > budget:
            raise argparse.ArgumentTypeError(f"{value} is over the work budget of {budget}")
        if value > high:
            raise argparse.ArgumentTypeError(f"expected at most {high}, got {text!r}")
        return value

    return count


def _grid(text: str) -> tuple[int, int]:
    """argparse type of ``--grid``: ``(n_s, n_theta)`` from N_SxN_THETA."""
    try:
        n_s, n_theta = (int(n) for n in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N_SxN_THETA, got {text!r}") from None
    if n_s < 2 or n_theta < 4:
        raise argparse.ArgumentTypeError(f"expected at least 2x4, got {text!r}")
    if n_s * n_theta > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"{n_s * n_theta} points is over the work budget of {MAX_GRID_POINTS}")
    return n_s, n_theta


def _param(text: str) -> tuple[str, float]:
    """argparse type of ``--param``: ``(name, value)`` from NAME=VALUE."""
    name, _, value = text.partition("=")
    try:
        return name.strip(), float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}") from None


def _load_surface(args) -> tuple[ProfileCurve, Optional[catalog.CatalogEntry]]:
    if args.catalog is None:
        if args.param:
            raise InputError("--param sets a --catalog parameter, not a --profile file's")
        try:
            curve = geometry.load_profile(args.profile)
        except FileNotFoundError:
            raise InputError(f"profile file not found: {args.profile}") from None
        except (json.JSONDecodeError, ValueError, ExpressionError, RecursionError) as exc:
            raise InputError(f"bad profile file {args.profile}: {exc}") from None
        return curve, None
    try:
        entry = catalog.make(args.catalog, dict(args.param or ()))
    except (ValueError, TypeError) as exc:
        raise InputError(str(exc)) from None
    return entry.curve, entry


_ESCAPE = json.encoder.encode_basestring_ascii


def _json_text(value, pad: str = "\n") -> str:
    """``value`` laid out as ``json.dumps(value, indent=2, sort_keys=True,
    allow_nan=False)`` lays it out, with the same ValueError on NaN and
    infinity and TypeError on an object JSON has no form for; ``pad`` is
    the newline and indent of ``value``'s own line.  A dict key that is not
    a str is a TypeError, where json.dumps would coerce it."""
    if isinstance(value, str):
        return _ESCAPE(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        items = [_json_text(v, inner) for v in value]
        brackets = "[]"
    elif isinstance(value, dict):
        items = [_ESCAPE(k) + ": " + _json_text(value[k], inner) for k in sorted(value)]
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _write_json(path: Optional[str], payload: dict) -> None:
    """Write ``payload`` as `_json_text` lays it out, which is byte for byte
    ``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)``, and
    a newline.  json.dumps serves an indented layout from its pure-Python
    encoder, a generator per container, so one recursive function writes
    the same text in fewer steps.  `_profile_stage`'s validation failure
    keeps json.dumps: its message shows the samples as they are, NaN
    among them, and this writer rejects NaN."""
    text = _json_text(payload) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: Optional[str], columns: dict) -> None:
    """One CSV row per point of ``columns``, arrays or lists of one shape
    keyed by header name, in C order, written CSV_BLOCK rows at a time.  A
    2-D column is ravelled one block of its rows at a time, so a broadcast
    view is never copied whole.  A callable column is called once, here,
    for its array, so a JSON report never builds it.  No columns writes the
    header ``empty`` and the row ``True``.  `csv` is imported here, so a JSON
    report never loads it."""
    import csv

    if not columns:
        columns = {"empty": [True]}
    arrays = [np.asarray(c() if callable(c) else c) for c in columns.values()]
    shape = arrays[0].shape
    step = max(1, CSV_BLOCK // math.prod(shape[1:]))
    fh = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        for r in range(0, shape[0], step):
            flat = [np.ravel(a[r:r + step]) for a in arrays]
            for i in range(0, flat[0].size, CSV_BLOCK):
                writer.writerows(zip(*(c[i:i + CSV_BLOCK].tolist() for c in flat)))
    finally:
        if path:
            fh.close()


def _config(args, label: str, *names: str) -> dict:
    """A report's ``config``: the surface, the grid when the command takes
    one, and those of the named options that it takes."""
    config = {"surface": label, **{name: getattr(args, name) for name in names if name in args}}
    if "grid" in args:
        config["n_s"], config["n_theta"] = args.grid
    return config


# Evaluation faults: a floating-point fault, a profile domain error or an
# unbound parameter.
_FAULTS = (ArithmeticError, ProfileDomainError, EvalError)


@contextlib.contextmanager
def _stage(label: str, stage: str):
    """Name the surface and the stage in an evaluation fault raised inside,
    as in ``sphere(r=1e-160): validation: overflow encountered in
    multiply``."""
    try:
        yield
    except _FAULTS as exc:
        raise InputError(f"{label}: {stage}: {exc}") from None


def _profile_stage(curve: ProfileCurve, config: dict, n_samples: int, points):
    """The `ValidationReport` of a passing profile and the jets at
    ``points``, the next stage's samples (a grid's profile samples or the
    first screening pass of operator equivalence), from one
    `geometry.joint_pass` over the validation samples and ``points``.  When
    that pass faults, validation evaluates its own samples and the jets are
    None, so the next stage evaluates its own points: the first stage to
    meet the fault raises it under its own name."""
    checked = rows = None
    with contextlib.suppress(*_FAULTS):
        checked, rows = geometry.joint_pass(curve, n_samples, points)
    with _stage(curve.name, "validation"):
        validation = geometry.validate_profile(curve, n_samples=n_samples,
                                               tol_arc=config["tol_arc"],
                                               tol_parab=config["tol_parab"], jets=checked)
    if not validation.passed:
        raise InputError(f"{curve.name}: profile validation FAILED\n"
                         + json.dumps(validation.to_dict(), indent=2, sort_keys=True))
    return validation, rows


def cmd_classify(args) -> int:
    curve, entry = _load_surface(args)
    config = _config(args, curve.name, "tol_arc", "tol_parab", "tol_fit")
    validation, rows = _profile_stage(curve, config, args.samples,
                                      geometry.sample_regular(curve, config["n_s"]))
    with _stage(curve.name, "fit"):
        report = classify.fit_matrix(curve, *args.grid, tol_parab=args.tol_parab,
                                     tol_fit=args.tol_fit, jets=rows)
        structure = classify.structure_check(report)
    payload = {
        "config": config,
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
        print(f"{curve.name}: verdict {report.verdict} (rel_residual {rel})")
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


def _lam_mu(args, entry) -> tuple[float, float]:
    """``--lambda`` and ``--mu``, each defaulting to the catalog surface's
    known one; an input error when one is missing."""
    known = None if entry is None else entry.known_matrix
    if known is None and (args.lam is None or args.mu is None):
        raise InputError("this check needs --lambda and --mu for the given surface")
    return (known[0][0] if args.lam is None else args.lam,
            known[2][2] if args.mu is None else args.mu)


def _first_points(args, curve: ProfileCurve, config: dict):
    """The samples of the check's first stage, which the joint pass
    evaluates with the validation samples: operator-equivalence's first
    screening pass of draws, or the grid's profile samples."""
    if args.check == "operator-equivalence":
        return beltrami.candidate_points(curve, args.seed, 0, beltrami.first_pass(args.pairs))
    return geometry.sample_regular(curve, config["n_s"])


def _run_check(args, curve: ProfileCurve, rows, lam_mu: tuple):
    """(worst, details, columns) of the check named by ``args.check``, from
    the options of its own parser.  ``rows`` are the jets of the joint pass
    at `_first_points`, or None when the check evaluates its own.  The grid
    checks take their rows from `geometry.grid_rows` over them, and the
    three row checks report their counts; operator-equivalence screens them
    as its first pass of draws.  ``lam_mu`` holds eigen-system's and
    radius-rate's lambda and mu."""
    check = args.check
    if check == "operator-equivalence":
        return beltrami.operator_equivalence_residual(curve, n_pairs=args.pairs, seed=args.seed,
                                                      tol_parab=args.tol_parab, jets=rows)
    if check == "position-identity":
        jets, excluded = geometry.grid_rows(curve, args.grid[0], args.tol_parab, rows)
        return beltrami.position_identity_residual(jets, args.grid[1], excluded)
    jets, excluded = geometry.grid_rows(curve, args.n_s, args.tol_parab, rows)
    result = {"curvature-quotient": geometry.quotient_defects,
              "eigen-system": classify.eigen_system_residuals,
              "radius-rate": classify.radius_rate_defect}[check](jets, *lam_mu)
    result[1].update(rows_used=len(jets), rows_excluded=excluded)
    return result


def cmd_verify(args) -> int:
    curve, entry = _load_surface(args)
    config = _config(args, curve.name, "tol_arc", "tol_parab", "n_s", "pairs", "seed")
    check, tol = args.check, args.tol
    _, rows = _profile_stage(curve, config, VALIDATION_SAMPLES,
                             _first_points(args, curve, config))
    # After validation, so a profile that fails it says so first.
    lam_mu = _lam_mu(args, entry) if "lam" in args else ()
    with _stage(curve.name, check):
        worst, details, columns = _run_check(args, curve, rows, lam_mu)
    reason: Optional[str] = None
    if check == "operator-equivalence" and details["pairs"] < args.pairs:
        reason = (f"found {details['pairs']} of {args.pairs} usable sample points "
                  f"in {beltrami.DRAWS_PER_PAIR * args.pairs} draws")
    elif worst is None:
        reason = _NO_ROWS
    passed = reason is None and worst <= tol
    payload = {
        "config": config,
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
        print(f"{curve.name}: {check} " + (f"FAIL: {reason}" if reason else
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
    return EXIT_OK if cert.cells_certified else EXIT_INCONCLUSIVE


def cmd_catalog(args) -> int:
    if args.action == "list":
        for name in catalog.names():
            entry = catalog.make(name)
            tag = "" if entry.valid else "  [invalid by design]"
            print(f"{name}: {entry.description}{tag}")
        return EXIT_OK
    entry = catalog.make(args.name, dict(args.param or ()))
    _write_json(args.out, geometry.profile_to_dict(entry.curve))
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def _add_surface_options(sub, size: Optional[str] = "grid"):
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--catalog", help="built-in surface name")
    source.add_argument("--profile", help="path to a profile definition file")
    sub.add_argument("--param", type=_param, action="append", metavar="NAME=VALUE",
                     help="--catalog surface parameter (repeatable)")
    if size == "grid":
        sub.add_argument("--grid", type=_grid, default=classify.DEFAULT_GRID,
                         help="grid as N_SxN_THETA (default {}x{})".format(*classify.DEFAULT_GRID))
    elif size == "rows":
        sub.add_argument("--rows", dest="n_s", type=_count(2, MAX_GRID_POINTS), metavar="N",
                         default=classify.DEFAULT_GRID[0], help="rows (default %(default)s)")
    sub.add_argument("--tol-arc", type=_tolerance, default=geometry.DEFAULT_TOL_ARC)
    sub.add_argument("--tol-parab", type=_tolerance, default=geometry.DEFAULT_TOL_PARAB)
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
    """The whole ``revtype`` parser.  Its ``leaves`` maps the words naming
    each command that takes no further subcommand, such as ``("verify",
    "radius-rate")`` or ``("scan",)``, to that command's subparser, whose
    ``table`` `_read` reads the rest of the line against.  A leaf's defaults
    hold the dests that the tree sets to those words, so `_read` gives the
    namespace the tree gives."""
    parser = _Parser(
        prog="revtype",
        description="Third-form Beltrami operators and finite-type classification "
        "of surfaces of revolution.",
    )
    parser.leaves = {}

    def add_leaf(subs, func, words: dict, **kwargs):
        # ``words`` are the command's words keyed by the dest each is set to.
        names = tuple(words.values())
        leaf = subs.add_parser(names[-1], **kwargs)
        leaf.set_defaults(func=func, **words)
        parser.leaves[names] = leaf
        return leaf

    subs = parser.add_subparsers(dest="command", required=True)

    p_classify = add_leaf(subs, cmd_classify, {"command": "classify"},
                          help="fit the coordinate matrix and classify")
    _add_surface_options(p_classify)
    p_classify.add_argument("--tol-fit", type=_tolerance, default=classify.DEFAULT_TOL_FIT)
    p_classify.add_argument("--samples", type=_count(2, MAX_SAMPLES), default=VALIDATION_SAMPLES,
                            help=f"validation sample count (default {VALIDATION_SAMPLES})")

    p_verify = subs.add_parser("verify", help="run one residual check")
    checks = p_verify.add_subparsers(dest="check", required=True)
    for check, tol in VERIFY_TOLERANCES.items():
        p_check = add_leaf(checks, cmd_verify, {"command": "verify", "check": check})
        _add_surface_options(p_check, {"position-identity": "grid",
                                       "operator-equivalence": None}.get(check, "rows"))
        p_check.add_argument("--tol", type=_tolerance, default=tol, help="check tolerance")
        if check in ("eigen-system", "radius-rate"):
            p_check.add_argument("--lambda", dest="lam", type=_finite_float, default=None)
            p_check.add_argument("--mu", type=_finite_float, default=None)
        elif check == "operator-equivalence":
            p_check.add_argument("--pairs", type=_count(1, MAX_PAIRS),
                                 default=beltrami.DEFAULT_PAIRS, help="random pairs")
            p_check.add_argument("--seed", type=_count(0, high=2**64 - 1), default=0,
                                 help="seed of the draws")

    p_scan = add_leaf(subs, cmd_scan, {"command": "scan"},
                      help="closure-coefficient contradiction scan")
    p_scan.add_argument("--lambda-range", nargs=2, type=float, default=classify.DEFAULT_SCAN_RANGE)
    p_scan.add_argument("--mu-range", nargs=2, type=float, default=classify.DEFAULT_SCAN_RANGE)
    p_scan.add_argument("--step", type=float, default=classify.DEFAULT_SCAN_STEP)
    p_scan.add_argument("--out", help="write the certificate to this path")

    p_cat = subs.add_parser("catalog", help="list or export built-in surfaces")
    cat_subs = p_cat.add_subparsers(dest="action", required=True)
    add_leaf(cat_subs, cmd_catalog, {"command": "catalog", "action": "list"})
    p_export = add_leaf(cat_subs, cmd_catalog, {"command": "catalog", "action": "export"})
    p_export.add_argument("name")
    p_export.add_argument("--param", type=_param, action="append", metavar="NAME=VALUE")
    p_export.add_argument("--out", help="output profile file path")

    for leaf in parser.leaves.values():
        leaf.table = _leaf_table(leaf)
    return parser


def _leaf_table(leaf: argparse.ArgumentParser):
    """What `_read` reads a line of ``leaf`` against, from the leaf's own
    actions: its value options by option string, the namespace's defaults,
    and each mutually exclusive group's actions with whether the group is
    required.  None when the leaf takes a positional, a required option or
    any option but a plain store or append of a fixed number of values, or
    has a str default that argparse would convert at parse time."""
    options, defaults = {}, dict(leaf._defaults)
    for action in leaf._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if (type(action) not in (argparse._StoreAction, argparse._AppendAction)
                or not action.option_strings or action.required
                or isinstance(action.nargs, str)
                or (isinstance(action.default, str) and action.type is not None)):
            return None
        options.update(dict.fromkeys(action.option_strings, action))
        defaults[action.dest] = action.default
    groups = [(g._group_actions, g.required) for g in leaf._mutually_exclusive_groups]
    return options, defaults, groups


_PARSER = build_parser()


def _read(leaf: argparse.ArgumentParser, rest: list[str]) -> Optional[argparse.Namespace]:
    """The namespace that the whole tree gives the leaf's words and
    ``rest``, read in one pass against ``leaf.table``, when ``rest`` is only
    exact long options of the leaf, each followed by as many values as it
    takes, every value a word that argparse reads as one (not starting with
    ``-`` unless it is a negative number) and accepted by the option's type
    and choices, with each mutually exclusive group named at most once, and
    exactly once when it is required.  None for any other line."""
    if leaf.table is None:
        return None
    options, defaults, groups = leaf.table
    values, seen, i = {}, [], 0
    while i < len(rest):
        action = options.get(rest[i])
        if action is None:
            return None
        n = action.nargs or 1
        words = rest[i + 1:i + 1 + n]
        i += 1 + n
        if len(words) < n or any(w[:1] == "-" and not leaf._negative_number_matcher.match(w)
                                 for w in words):
            return None
        try:
            got = [action.type(w) for w in words] if action.type else words
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and any(v not in action.choices for v in got):
            return None
        value = got if action.nargs else got[0]
        if type(action) is argparse._AppendAction:
            values.setdefault(action.dest, list(defaults[action.dest] or ())).append(value)
        else:
            values[action.dest] = value
        seen.append(action)
    for actions, required in groups:
        if not required <= sum(a in actions for a in seen) <= 1:
            return None
    return argparse.Namespace(**{**defaults, **values})


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``, read by `_read` in one pass when the
    first words of ``argv`` name a leaf and `_read` takes the rest of the
    line.  Every other line goes through the whole tree, which writes its
    usage, help and error messages."""
    for n in (2, 1):
        leaf = _PARSER.leaves.get(tuple(argv[:n]))
        if leaf is not None:
            args = _read(leaf, argv[n:])
            return _PARSER.parse_args(argv) if args is None else args
    return _PARSER.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout: as the Python docs' note on SIGPIPE shows,
        # point it at devnull so that the flush at exit cannot fail again.
        with contextlib.suppress(OSError):
            stdout = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout)
            os.close(devnull)
        return EXIT_INPUT
    except (InputError, ProfileError, ExpressionError, ValueError, ArithmeticError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
