"""``python -m shapelab``: the same command line as the ``shapelab`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
