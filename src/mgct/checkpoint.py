"""Versioned binary checkpoints: named parameter blocks plus a JSON meta blob.

Layout (all integers little-endian):

    magic ``MGCK`` | u32 version | u32 meta_len | meta JSON (utf-8)
    u32 n_blocks
    per block: u16 name_len | name (utf-8) | u32 rows | u32 cols
               | rows*cols little-endian float64

Writes are atomic (temp file + rename) and round-trip bitwise.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

MAGIC = b"MGCK"
VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    path = Path(path)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", VERSION, len(meta_bytes)))
            fh.write(meta_bytes)
            fh.write(struct.pack("<I", len(arrays)))
            for name, arr in arrays.items():
                a = np.ascontiguousarray(arr, dtype="<f8")
                if a.ndim != 2:
                    raise CheckpointError(f"block {name!r} is not 2-D")
                nb = name.encode("utf-8")
                fh.write(struct.pack("<H", len(nb)))
                fh.write(nb)
                fh.write(struct.pack("<II", a.shape[0], a.shape[1]))
                fh.write(a.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    path = Path(path)
    raw = path.read_bytes()
    view = memoryview(raw)
    if raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:4]!r}")
    version, meta_len = struct.unpack_from("<II", view, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    off = 12
    try:
        meta = json.loads(bytes(view[off : off + meta_len]).decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, as in a file cut inside its meta
        raise CheckpointError(f"{path}: unreadable meta: {exc}") from None
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: meta is not a JSON object")
    off += meta_len
    (n_blocks,) = struct.unpack_from("<I", view, off)
    off += 4
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_blocks):
        (name_len,) = struct.unpack_from("<H", view, off)
        off += 2
        name = bytes(view[off : off + name_len]).decode("utf-8")
        off += name_len
        rows, cols = struct.unpack_from("<II", view, off)
        off += 8
        size = rows * cols * 8
        if off + size > len(raw):
            raise CheckpointError(f"{path}: truncated block {name!r}")
        arrays[name] = (
            np.frombuffer(view[off : off + size], dtype="<f8").reshape(rows, cols).copy()
        )
        off += size
    if off != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - off} trailing bytes")
    return arrays, meta
