"""``python -m schurdefect``: the command line of the ``schurdefect`` script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
