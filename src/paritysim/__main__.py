"""``python -m paritysim``: the same command line as ``paritysim``."""

from .cli import main

if __name__ == "__main__":
    main()
