"""Compressed Codebase DB container.

Layout: 8-byte magic, 1-byte format version, 4-byte big-endian length of
the compressed payload, then zlib-compressed MessagePack bytes. The magic
lets tooling reject foreign files with a clear error instead of a zlib
backtrace.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Any

from repro.serde.msgpack import pack, unpack
from repro.util.errors import SerdeError

MAGIC = b"SVALEDB\x00"
VERSION = 1


def write_blob(path: str | Path, obj: Any, level: int = 6, atomic: bool = False) -> int:
    """Serialise ``obj`` into the container at ``path``; returns bytes written.

    With ``atomic=True`` the container is written to a unique sibling temp
    file and ``os.replace``d into place, so concurrent readers (and a run
    killed mid-write) only ever observe a complete old or new file — the
    durability contract the TED cache shards (which an interrupted run
    resumes from) and the other artifact stores rely on.
    """
    payload = zlib.compress(pack(obj), level)
    data = MAGIC + bytes([VERSION]) + struct.pack(">I", len(payload)) + payload
    target = Path(path)
    if atomic:
        tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)
    else:
        target.write_bytes(data)
    return len(data)


def read_blob(path: str | Path) -> Any:
    """Read one object back from a container file."""
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 5 or not data.startswith(MAGIC):
        raise SerdeError(f"{path}: not a Codebase DB container")
    version = data[len(MAGIC)]
    if version != VERSION:
        raise SerdeError(f"{path}: unsupported container version {version}")
    (length,) = struct.unpack(">I", data[len(MAGIC) + 1 : len(MAGIC) + 5])
    payload = data[len(MAGIC) + 5 :]
    if len(payload) != length:
        raise SerdeError(f"{path}: payload length mismatch ({len(payload)} != {length})")
    try:
        raw = zlib.decompress(payload)
    except zlib.error as e:
        raise SerdeError(f"{path}: corrupt payload: {e}") from e
    return unpack(raw)
