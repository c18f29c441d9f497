"""python -m supercong: the same command line as the supercong script."""

from .cli import main

raise SystemExit(main())
