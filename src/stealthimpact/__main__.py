"""Run the command-line tool as ``python -m stealthimpact``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
