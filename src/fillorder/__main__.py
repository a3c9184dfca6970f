"""`python -m fillorder`: the command-line interface of `fillorder.cli`."""

import sys

from .cli import main

sys.exit(main())
