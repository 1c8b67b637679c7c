"""``python -m decolab``: the command line, as the ``decolab`` script runs it."""

import sys

from .cli import main

sys.exit(main())
