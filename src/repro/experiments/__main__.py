"""``python -m repro.experiments`` — figure reproductions and the scenario subcommands."""

from .runner import main

if __name__ == "__main__":
    raise SystemExit(main())
