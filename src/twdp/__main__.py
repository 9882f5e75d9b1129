"""`python -m twdp ...` runs the `twdp` command (twdp.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
