"""``python -m refactorlab``: the same command line as the ``refactorlab`` script."""

import sys

from .cli import main

sys.exit(main())
