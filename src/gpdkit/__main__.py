"""``python -m gpdkit``: the command-line front end of :mod:`gpdkit.cli`."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
