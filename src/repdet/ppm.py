"""Binary PPM (P6, maxval 255) reader and writer."""
from __future__ import annotations

import numpy as np

from .errors import FormatError
from .fileio import write_atomic


def _next_token(data: bytes, off: int) -> tuple[bytes, int]:
    n = len(data)
    while off < n:
        c = data[off:off + 1]
        if c == b"#":  # comment runs to end of line
            while off < n and data[off:off + 1] not in (b"\n", b"\r"):
                off += 1
        elif c.isspace():
            off += 1
        else:
            break
    if off >= n:
        raise FormatError(f"truncated PPM header at offset {off}")
    start = off
    while off < n and not data[off:off + 1].isspace():
        off += 1
    return data[start:off], off


def read_ppm(path: str) -> np.ndarray:
    """Read a P6 image into an (h, w, 3) uint8 array."""
    with open(path, "rb") as f:
        data = f.read()
    magic, off = _next_token(data, 0)
    if magic != b"P6":
        raise FormatError(f"bad magic {magic!r} at offset 0, expected b'P6'")
    fields = []
    for what in ("width", "height", "maxval"):
        tok, off = _next_token(data, off)
        # bytes.isdigit is ASCII-only; int() would also take b"+2" and b"1_0"
        if not tok.isdigit():
            raise FormatError(f"non-numeric {what} {tok!r} at offset {off}")
        fields.append(int(tok))
    w, h, maxval = fields
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}, only 255 is handled")
    if w < 1 or h < 1:
        raise FormatError(f"degenerate image size {w}x{h}")
    off += 1  # single whitespace after maxval
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
