"""Atomic file output: a file repdet writes appears whole or not at all."""
from __future__ import annotations

import os
import tempfile


def write_atomic(path: str, data: bytes) -> None:
    """Write `data` to a temp file beside `path`, then rename it over `path`."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".repdet-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
