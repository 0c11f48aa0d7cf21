"""Print one sha256 per command of a fixed corpus, run in-process through
``revtype.cli.main`` under whichever ``revtype`` comes first on PYTHONPATH.

The digest covers the command's exit code, stdout, stderr and the bytes of
its ``--out`` file, if it wrote one.  Running the script under two source
trees and comparing the output shows whether a change moves any byte that
the CLI prints:

    PYTHONPATH=/path/to/other/checkout/src python3 tests/same_bytes.py > before.txt
    PYTHONPATH=src python3 tests/same_bytes.py > after.txt
    diff before.txt after.txt

The corpus comes from this tree whichever ``src`` runs it: every
``_SAME_BYTES_COMMANDS`` entry of ``test_cli``, README's usage lines,
``_DISPATCH_CORPUS``, each leaf's ``-h``, ``catalog export`` of every catalog
name to stdout and to ``--out``, two ``radius-rate`` lines whose lambda - mu
overflows, ``classify`` and one ``verify`` check on each profile file of
``BAD_PROFILES``, whose ``f`` fails to parse, and the first 100 seed-7
requests of each benchmark workload.
Commands run in a fresh temporary directory, so relative paths are the same
on every run.  The file is not a pytest module; it runs in a few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]

from revtype import catalog, cli, geometry  # noqa: E402
from test_cli import _DISPATCH_CORPUS, _SAME_BYTES_COMMANDS, _readme_usage  # noqa: E402
from workloads import WORKLOADS, RequestStream  # noqa: E402

SEED = 7
REQUESTS = 100

# Profile files whose f fails to parse, one per kind of parse error, by
# file name: an unexpected character, a number out of range, nesting past
# `expressions.MAX_DEPTH`, an unknown function and a wrong arity.
BAD_PROFILES = {
    "bad-character.json": "2 * sin(s / 2) # 1",
    "huge-number.json": "2 * sin(s / 2) + 1e999",
    "too-deep.json": "(" * 103 + "s" + ")" * 103,
    "unknown-function.json": "2 * sinc(s / 2)",
    "wrong-arity.json": "2 * sin(s, 2)",
}


def corpus() -> list[list[str]]:
    """Every command line, in the order the digests are printed."""
    names = catalog.names()
    lines = [
        *_SAME_BYTES_COMMANDS,
        *_readme_usage(),
        *_DISPATCH_CORPUS,
        *([*words, "-h"] for words in cli._PARSER.leaves),
        *(["catalog", "export", name] for name in names),
        *(["catalog", "export", name, "--out", f"{name}.json"] for name in names),
        *(["verify", "radius-rate", "--catalog", name, "--lambda", "1e308", "--mu", "-1e308"]
          for name in ("sphere", "torus")),
    ]
    for path, check in zip(BAD_PROFILES, cli.VERIFY_TOLERANCES):
        lines += [["classify", "--profile", path], ["verify", check, "--profile", path]]
    for workload in WORKLOADS:
        stream = RequestStream(workload, SEED, ".")
        lines += [list(cmd.argv) for i in range(REQUESTS) for cmd in stream.get(i).commands]
    return [list(argv) for argv in lines]


def digest(argv: list[str]) -> str:
    """sha256 over the exit code, stdout, stderr and ``--out`` file of
    ``cli.main(argv)``; a stale ``--out`` file is removed first."""
    out_path = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out_path is not None and out_path.exists():
        out_path.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    written = out_path.read_bytes() if out_path is not None and out_path.exists() else None
    return hashlib.sha256(repr((code, out.getvalue(), err.getvalue(), written)).encode()).hexdigest()


def main() -> None:
    # argparse wraps help text to the terminal width.
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            # The file that README's ``classify --profile`` line reads.
            geometry.save_profile(catalog.make("sphere", {"r": 2.0}).curve, "my_surface.json")
            for path, f in BAD_PROFILES.items():
                doc = {"name": "bad", "f": f, "g": "-2 * cos(s / 2)", "s_min": 0.1, "s_max": 6.0}
                Path(path).write_text(json.dumps(doc))
            for argv in corpus():
                print(digest(argv), shlex.join(argv))
        finally:
            os.chdir(ROOT)


if __name__ == "__main__":
    main()
