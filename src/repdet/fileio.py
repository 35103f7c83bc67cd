"""Atomic file output: a file repdet writes appears whole or not at all."""
from __future__ import annotations

import contextlib
import os
import stat


def write_atomic(path: str, data: bytes) -> None:
    """Write `data` to a temp file beside `path`, fsync it, then rename it over `path`.
    The file gets the mode `open(path, "wb")` would give it: 0o666 less the
    umask when new, and its own permission bits when it replaces a file.
    An error names `path`, never the temp file, so it reads the same each run."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".repdet-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as f:
                with contextlib.suppress(FileNotFoundError):  # a new file keeps 0o666 less the umask
                    os.fchmod(f.fileno(), stat.S_IMODE(os.stat(path).st_mode))
                f.write(data)
                f.flush()
                os.fsync(f.fileno())  # the data is on disk before the name points at it
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
