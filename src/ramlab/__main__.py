"""`python -m ramlab`: the `ramlab` command, run from the package."""

if __name__ == "__main__":
    from .cli import entrypoint

    entrypoint()
