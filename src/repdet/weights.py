"""Binary named-tensor container.

Layout (little-endian, no padding): magic "RWT1", u32 tensor count, then per
tensor: u16 name length, UTF-8 name, u8 rank, rank x u32 dims, and the payload
as row-major float32 with the last dimension fastest.
"""
from __future__ import annotations

import math
import struct

import numpy as np

from .errors import FormatError, ValidationError
from .fileio import write_atomic

MAGIC = b"RWT1"


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
            blob += struct.pack("<H", len(encoded))
            blob += encoded
            blob += struct.pack("<B", arr.ndim)
            for d in arr.shape:
                blob += struct.pack("<I", d)
            blob += arr.astype("<f4").tobytes()
        write_atomic(path, blob)

    @classmethod
    def load(cls, path: str) -> "WeightStore":
        with open(path, "rb") as f:
            data = f.read()
        if data[:4] != MAGIC:
            raise FormatError(f"bad magic {data[:4]!r} at offset 0, expected {MAGIC!r}")
        off = 4

        def take(n: int, what: str) -> bytes:
            nonlocal off
            if off + n > len(data):
                raise FormatError(f"truncated file: needed {n} bytes for {what} at offset {off}")
            chunk = data[off:off + n]
            off += n
            return chunk

        (count,) = struct.unpack("<I", take(4, "tensor count"))
        store = cls()
        for i in range(count):
            (nlen,) = struct.unpack("<H", take(2, f"name length of tensor {i}"))
            raw = take(nlen, f"name of tensor {i}")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(
                    f"name of tensor {i} at offset {off - nlen} is not UTF-8: {raw!r}"
                ) from None
            (rank,) = struct.unpack("<B", take(1, f"rank of {name}"))
            dims = struct.unpack(f"<{rank}I", take(4 * rank, f"dims of {name}"))
            size = math.prod(dims)  # exact, so huge dims fail the truncation check
            payload = take(4 * size, f"data of {name}")
            try:
                arr = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
            except ValueError:  # an empty tensor whose other dims numpy cannot index
                raise FormatError(f"dims {dims} of {name} exceed numpy's array size") from None
            store.put(name, arr)
        if off != len(data):
            raise FormatError(f"{len(data) - off} trailing bytes at offset {off}")
        return store
