"""Binary PPM (P6, maxval 255) reader and writer."""
from __future__ import annotations

import re

import numpy as np

from .errors import FormatError
from .fileio import write_atomic


# whitespace and comments (a "#" to the end of its line), then one token;
# bytes-mode \s is exactly the six bytes bytes.isspace accepts
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")


def _token(data: bytes, off: int) -> tuple[bytes, int]:
    m = _TOKEN.match(data, off)
    if not m[1]:
        raise FormatError(f"truncated PPM header at offset {m.end()}")
    return m[1], m.end()


def read_ppm(path: str) -> np.ndarray:
    """Read a P6 image into an (h, w, 3) uint8 array."""
    with open(path, "rb") as f:
        data = f.read()
    magic, off = _token(data, 0)
    if magic != b"P6":
        raise FormatError(f"bad magic {magic!r} at offset 0, expected b'P6'")
    fields = []
    for what in ("width", "height", "maxval"):
        tok, off = _token(data, off)
        # bytes.isdigit is ASCII-only; int() would also take b"+2" and b"1_0"
        if not tok.isdigit():
            raise FormatError(f"non-numeric {what} {tok!r} at offset {off}")
        fields.append(int(tok))
    w, h, maxval = fields
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}, only 255 is handled")
    if w < 1 or h < 1:
        raise FormatError(f"degenerate image size {w}x{h}")
    off = min(off + 1, len(data))  # single whitespace after maxval, if any
    need = w * h * 3
    if len(data) - off < need:
        raise FormatError(f"truncated pixel data at offset {off}: need {need} bytes, "
                          f"have {len(data) - off}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=off)
    return pixels.reshape(h, w, 3).copy()


def write_ppm(path: str, image: np.ndarray) -> None:
    """Write an (h, w, 3) uint8 array as P6; atomic replace, canonical header."""
    img = np.ascontiguousarray(image, dtype=np.uint8)
    if img.ndim != 3 or img.shape[2] != 3:
        raise FormatError(f"expected (h, w, 3) pixels, got {img.shape}")
    h, w = img.shape[:2]
    blob = b"P6\n%d %d\n255\n" % (w, h) + img.tobytes()
    write_atomic(path, blob)
