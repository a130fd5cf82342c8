"""``python -m quadratize``: the command-line interface, as ``quadratize``."""

import sys

from .cli import main

sys.exit(main())
