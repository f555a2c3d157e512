"""File helpers shared across the package: atomic output for every writer,
and UTF-8 text input for the dataset and config readers."""

from __future__ import annotations

import contextlib
import os

from .errors import ParseError


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


def read_text_lines(path):
    """The lines of a UTF-8 text file; bytes that are not UTF-8 raise
    ``ParseError`` naming the line they are on."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return blob.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError("file is not UTF-8 text",
                         line_number=blob[:exc.start].count(b"\n") + 1, path=path) from exc
