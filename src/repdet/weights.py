"""Binary named-tensor container.

Layout (little-endian, no padding): magic "RWT1", u32 tensor count, then per
tensor: u16 name length, UTF-8 name, u8 rank, rank x u32 dims, and the payload
as row-major float32 with the last dimension fastest.
"""
from __future__ import annotations

import io
import math
import os
import stat
import struct

import numpy as np

from .errors import FormatError, ValidationError
from .fileio import write_atomic

MAGIC = b"RWT1"
_F32 = np.dtype("<f4")


class WeightStore:
    """Insertion-ordered name -> float32 ndarray map, round-tripping bit-exactly."""

    def __init__(self, tensors=None):
        self._tensors: dict[str, np.ndarray] = {}
        if tensors:
            for name, arr in tensors:
                self.put(name, arr)

    def put(self, name: str, arr: np.ndarray) -> None:
        if name in self._tensors:
            raise ValidationError(f"duplicate tensor name {name!r}")
        # asarray keeps a rank-0 tensor's rank, where ascontiguousarray makes it (1,)
        self._tensors[name] = np.asarray(arr, dtype=np.float32, order="C")

    def __len__(self) -> int:
        return len(self._tensors)

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def names(self):
        return list(self._tensors)

    def items(self):
        return self._tensors.items()

    def save(self, path: str) -> None:
        """Serialize; writes to a temp file and renames so no partial file remains."""
        blob = bytearray()
        blob += MAGIC
        blob += struct.pack("<I", len(self._tensors))
        for name, arr in self._tensors.items():
            encoded = name.encode("utf-8")
            blob += struct.pack(f"<H{len(encoded)}sB{arr.ndim}I",
                                len(encoded), encoded, arr.ndim, *arr.shape)
            blob += arr.astype("<f4").tobytes()
        write_atomic(path, blob)

    @classmethod
    def load(cls, path: str) -> "WeightStore":
        """Parse a `.rwt` file, reading each payload straight into its array."""
        with open(path, "rb") as f:
            info = os.fstat(f.fileno())
            if stat.S_ISREG(info.st_mode):
                return cls._parse(f, info.st_size)
            data = f.read()  # a pipe or other non-regular file is read whole
        return cls._parse(io.BytesIO(data), len(data))

    @classmethod
    def _parse(cls, f, size: int) -> "WeightStore":
        head = f.read(4)
        if head != MAGIC:
            raise FormatError(f"bad magic {head!r} at offset 0, expected {MAGIC!r}")
        off = 4

        def take(n: int, what: str, *args, dims=None):
            """The next `n` bytes, or with `dims` a new float32 array filled from
            them. `what.format(*args)` names the field in an error."""
            nonlocal off
            if off + n > size:
                raise FormatError(f"truncated file: needed {n} bytes for "
                                  f"{what.format(*args)} at offset {off}")
            out = f.read(n) if dims is None else np.empty(dims, _F32)
            got = len(out) if dims is None else f.readinto(out)
            if got != n:
                raise FormatError(f"short read: got {got} of {n} bytes for "
                                  f"{what.format(*args)} at offset {off}")
            off += n
            return out

        (count,) = struct.unpack("<I", take(4, "tensor count"))
        store = cls()
        for i in range(count):
            (nlen,) = struct.unpack("<H", take(2, "name length of tensor {}", i))
            start = off
            raw = f.read(nlen + 1) if off + nlen < size else b""  # the name and its rank byte
            if len(raw) == nlen + 1:
                off += nlen + 1
            else:  # truncated or short: read the two apart, which raises the error
                f.seek(start)
                raw = take(nlen, "name of tensor {}", i)
            try:
                name = raw[:nlen].decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(
                    f"name of tensor {i} at offset {start} is not UTF-8: {raw[:nlen]!r}"
                ) from None
            rank = raw[nlen] if len(raw) > nlen else take(1, "rank of {}", name)[0]
            dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims of {}", name))
            try:  # the exact size, so huge dims fail the truncation check before allocating
                arr = take(4 * math.prod(dims), "data of {}", name, dims=dims)
            except ValueError:  # an empty tensor whose other dims numpy cannot index
                raise FormatError(f"dims {dims} of {name} exceed numpy's array size") from None
            store.put(name, arr)
        if off != size:
            raise FormatError(f"{size - off} trailing bytes at offset {off}")
        return store
