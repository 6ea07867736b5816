"""`python -m castillon`: the same entry point as the `castillon` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
