"""``python -m triplex``: the same command line as the ``triplex`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
