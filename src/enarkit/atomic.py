"""Atomic file replacement shared by every writer in the package."""

from __future__ import annotations

import contextlib
import os
from collections.abc import Iterator
from typing import TextIO


@contextlib.contextmanager
def atomic_write(path: str, newline: str | None = None) -> Iterator[TextIO]:
    """Write text to a temp file beside ``path`` and rename it over ``path``
    when the block completes, so no reader ever sees a partial file. Text is
    encoded as UTF-8 whatever the locale.

    If the write or the rename fails, the temp file is removed and the error
    propagates.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
