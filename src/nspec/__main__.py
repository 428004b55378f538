"""`python -m nspec ARGS`: the `nspec` command, without an install."""

import sys

from .cli import main

sys.exit(main())
