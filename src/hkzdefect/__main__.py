"""`python -m hkzdefect ARGS` runs the command line, as `hkzdefect ARGS` does."""

import sys

from .cli import main

sys.exit(main())
