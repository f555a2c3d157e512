"""Atomic file output shared by every writer in the package."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path, mode="w"):
    """Open ``<path>.<pid>.tmp`` for writing and rename it onto ``path`` once
    the block ends without error.

    A failed write or rename removes the temp file and leaves whatever was at
    ``path`` before byte for byte as it was, so no reader ever sees a torn
    file.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
