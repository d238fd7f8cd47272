"""``python -m bishops``: the same command line as the ``bishops`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
