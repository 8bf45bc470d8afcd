"""``python -m airnav``: the same command line as the ``airnav`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
