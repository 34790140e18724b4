"""Versioned binary checkpoints: named parameter blocks plus a JSON meta blob.

Layout (all integers little-endian):

    magic ``MGCK`` | u32 version | u32 meta_len | meta JSON (utf-8)
    u32 n_blocks
    per block: u16 name_len | name (utf-8) | u32 rows | u32 cols
               | rows*cols little-endian float64

Writes are atomic (temp file + rename) and round-trip bitwise. Reads stream
the open file and put each block's bytes straight into its own fresh array,
so a load holds no second copy of the file. No length field makes a read
allocate more than the file holds: the meta read stops at the end of the
file, and a block's shape is checked against the file size before its array
is allocated.
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
    if not path.is_file():
        raise CheckpointError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size  # writes replace a file, never edit it in place
        magic = fh.read(4)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        version, meta_len = struct.unpack("<II", fh.read(8))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        try:
            meta = json.loads(fh.read(min(meta_len, size)).decode("utf-8"))
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON (a cut file), or nested too deeply
            raise CheckpointError(f"{path}: unreadable meta: {exc}") from None
        if not isinstance(meta, dict):
            raise CheckpointError(f"{path}: meta is not a JSON object")
        (n_blocks,) = struct.unpack("<I", fh.read(4))
        arrays: dict[str, np.ndarray] = {}
        for _ in range(n_blocks):
            (name_len,) = struct.unpack("<H", fh.read(2))
            try:
                name = fh.read(name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: unreadable block name: {exc}") from None
            rows, cols = struct.unpack("<II", fh.read(8))
            if fh.tell() + rows * cols * 8 > size:  # a corrupt header may claim any shape
                raise CheckpointError(f"{path}: truncated block {name!r}")
            arrays[name] = np.empty((rows, cols), dtype="<f8")
            fh.readinto(arrays[name])
        if fh.tell() != size:
            raise CheckpointError(f"{path}: {size - fh.tell()} trailing bytes")
    return arrays, meta
