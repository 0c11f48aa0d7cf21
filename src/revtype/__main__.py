"""``python -m revtype``: the ``revtype`` command."""

import sys

from revtype.cli import main

if __name__ == "__main__":
    sys.exit(main())
