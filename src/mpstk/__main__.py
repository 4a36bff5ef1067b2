"""`python -m mpstk`: the command-line frontend, as the `mpstk` script."""

import sys

from .cli import main

sys.exit(main())
