"""`python -m clusterbmc ...` runs the `clusterbmc` command line."""

import sys

from .cli import main

sys.exit(main())
