"""``python -m uer``: the same command line as the ``uer`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
