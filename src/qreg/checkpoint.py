"""Binary container for named float64 arrays.

Layout: a 5-byte magic ("QREG1" for model checkpoints), then one record per
array until end of file. Each record is:

    u64 LE   byte length of the name
    bytes    name, utf-8
    u64 LE   rank
    u64 LE   dims, one per rank (absent for rank 0)
    f64 LE   data, C order, prod(dims) values

Round-trips are bit-exact: values are written as raw little-endian float64.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .records import write_atomic

MAGIC_MODEL = b"QREG1"


def write_container(path, arrays: dict[str, np.ndarray], magic: bytes = MAGIC_MODEL) -> None:
    parts = [magic]
    for name, arr in arrays.items():
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim:  # ascontiguousarray would promote 0-d scalars to 1-d
            arr = np.ascontiguousarray(arr)
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<Q", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<Q", arr.ndim))
        for d in arr.shape:
            parts.append(struct.pack("<Q", d))
        parts.append(arr.astype("<f8", copy=False).tobytes())
    write_atomic(path, b"".join(parts))


def read_container(path, magic: bytes = MAGIC_MODEL) -> dict[str, np.ndarray]:
    blob = Path(path).read_bytes()
    if blob[: len(magic)] != magic:
        raise DataError(
            f"{path}: bad magic {blob[:len(magic)]!r}, expected {magic!r}"
        )
    out: dict[str, np.ndarray] = {}
    pos = len(magic)

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise DataError(f"{path}: truncated container at byte {pos}")
        chunk = blob[pos : pos + n]
        pos += n
        return chunk

    while pos < len(blob):
        (name_len,) = struct.unpack("<Q", take(8))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: array name is not utf-8 at byte {pos - name_len}") from None
        (rank,) = struct.unpack("<Q", take(8))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank)) if rank else ()
        count = 1
        for d in dims:
            count *= d
        data = np.frombuffer(take(8 * count), dtype="<f8").astype(np.float64)
        try:
            out[name] = data.reshape(dims)
        except ValueError as e:  # an empty array whose dims numpy cannot represent
            raise DataError(f"{path}: array '{name}' has dims {dims}: {e}") from None
    return out

