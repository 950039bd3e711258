"""``python -m petzlab``: the command-line interface of :mod:`petzlab.bench`."""

import sys

from .bench import main

if __name__ == "__main__":
    sys.exit(main())
