"""``python -m circjacobi``: the ``circjacobi`` command without the console script."""

import sys

from .cli import main

sys.exit(main())
