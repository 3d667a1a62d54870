"""``python -m uavex``: the same command line as the ``uavex`` script."""

from .experiments import cli_main

if __name__ == "__main__":
    raise SystemExit(cli_main())
