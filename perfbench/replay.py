"""Run one request's command lines in a fresh interpreter.

Reads a JSON list of argv lists on stdin, runs each through
``revtype.cli.main`` with stdout captured, and prints one JSON object with
the report texts, the exit codes and the process's peak RSS in KiB.  The
benchmark uses it for the determinism spot-check and for ``peak_rss_mb``.
"""

import contextlib
import io
import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from revtype import cli  # noqa: E402


def main() -> None:
    outputs, codes = [], []
    for argv in json.load(sys.stdin):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            codes.append(cli.main(argv))
        outputs.append(out.getvalue())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({"outputs": outputs, "codes": codes, "maxrss_kib": peak}, sys.stdout)


if __name__ == "__main__":
    main()
