"""A from-scratch MessagePack codec.

Implements the subset of the MessagePack specification used by Codebase DBs:
nil, bool, int (all widths, signed and unsigned), float64, str (all widths),
bin, array and map families. Wire-compatible with reference implementations
for these types (verified by golden-byte tests against spec examples).
"""

from __future__ import annotations

import struct
from typing import Any

from repro.util.errors import SerdeError

# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def pack(obj: Any) -> bytes:
    """Serialise ``obj`` to MessagePack bytes."""
    out = bytearray()
    _pack_into(obj, out)
    return bytes(out)


def _pack_into(obj: Any, out: bytearray) -> None:
    if obj is None:
        out.append(0xC0)
    elif obj is True:
        out.append(0xC3)
    elif obj is False:
        out.append(0xC2)
    elif isinstance(obj, int):
        _pack_int(obj, out)
    elif isinstance(obj, float):
        out.append(0xCB)
        out += struct.pack(">d", obj)
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        n = len(data)
        if n < 32:
            out.append(0xA0 | n)
        elif n < 2**8:
            out.append(0xD9)
            out.append(n)
        elif n < 2**16:
            out.append(0xDA)
            out += struct.pack(">H", n)
        elif n < 2**32:
            out.append(0xDB)
            out += struct.pack(">I", n)
        else:
            raise SerdeError("string too long for MessagePack")
        out += data
    elif isinstance(obj, (bytes, bytearray)):
        n = len(obj)
        if n < 2**8:
            out.append(0xC4)
            out.append(n)
        elif n < 2**16:
            out.append(0xC5)
            out += struct.pack(">H", n)
        elif n < 2**32:
            out.append(0xC6)
            out += struct.pack(">I", n)
        else:
            raise SerdeError("bytes too long for MessagePack")
        out += obj
    elif isinstance(obj, (list, tuple)):
        n = len(obj)
        if n < 16:
            out.append(0x90 | n)
        elif n < 2**16:
            out.append(0xDC)
            out += struct.pack(">H", n)
        elif n < 2**32:
            out.append(0xDD)
            out += struct.pack(">I", n)
        else:
            raise SerdeError("array too long for MessagePack")
        for item in obj:
            _pack_into(item, out)
    elif isinstance(obj, dict):
        n = len(obj)
        if n < 16:
            out.append(0x80 | n)
        elif n < 2**16:
            out.append(0xDE)
            out += struct.pack(">H", n)
        elif n < 2**32:
            out.append(0xDF)
            out += struct.pack(">I", n)
        else:
            raise SerdeError("map too long for MessagePack")
        for k, v in obj.items():
            _pack_into(k, out)
            _pack_into(v, out)
    else:
        raise SerdeError(f"cannot pack object of type {type(obj).__name__}")


def _pack_int(v: int, out: bytearray) -> None:
    if 0 <= v < 128:
        out.append(v)
    elif -32 <= v < 0:
        out.append(v & 0xFF)
    elif 0 <= v < 2**8:
        out.append(0xCC)
        out.append(v)
    elif 0 <= v < 2**16:
        out.append(0xCD)
        out += struct.pack(">H", v)
    elif 0 <= v < 2**32:
        out.append(0xCE)
        out += struct.pack(">I", v)
    elif 0 <= v < 2**64:
        out.append(0xCF)
        out += struct.pack(">Q", v)
    elif -(2**7) <= v < 0:
        out.append(0xD0)
        out += struct.pack(">b", v)
    elif -(2**15) <= v < 0:
        out.append(0xD1)
        out += struct.pack(">h", v)
    elif -(2**31) <= v < 0:
        out.append(0xD2)
        out += struct.pack(">i", v)
    elif -(2**63) <= v < 0:
        out.append(0xD3)
        out += struct.pack(">q", v)
    else:
        raise SerdeError(f"integer out of MessagePack range: {v}")


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise SerdeError("truncated MessagePack data")
        b = self.data[self.pos : self.pos + n]
        self.pos += n
        return b

    def byte(self) -> int:
        return self.take(1)[0]


def unpack(data: bytes) -> Any:
    """Deserialise one MessagePack object; rejects trailing garbage.

    Any malformed input raises :class:`SerdeError`, including invalid
    UTF-8, an unhashable (array or map) map key and nesting too deep for
    the recursive reader, so lenient store reads can treat it as invalid.
    """
    r = _Reader(data)
    try:
        obj = _unpack_one(r)
    except (RecursionError, TypeError, UnicodeDecodeError) as e:
        raise SerdeError(f"malformed MessagePack data: {e}") from e
    if r.pos != len(data):
        raise SerdeError(f"{len(data) - r.pos} trailing bytes after object")
    return obj


def _unpack_one(r: _Reader) -> Any:
    tag = r.byte()
    if tag < 0x80:  # positive fixint
        return tag
    if tag >= 0xE0:  # negative fixint
        return tag - 256
    if 0x80 <= tag < 0x90:  # fixmap
        return _read_map(r, tag & 0x0F)
    if 0x90 <= tag < 0xA0:  # fixarray
        return _read_array(r, tag & 0x0F)
    if 0xA0 <= tag < 0xC0:  # fixstr
        return r.take(tag & 0x1F).decode("utf-8")
    if tag == 0xC0:
        return None
    if tag == 0xC2:
        return False
    if tag == 0xC3:
        return True
    if tag == 0xC4:
        return bytes(r.take(r.byte()))
    if tag == 0xC5:
        return bytes(r.take(struct.unpack(">H", r.take(2))[0]))
    if tag == 0xC6:
        return bytes(r.take(struct.unpack(">I", r.take(4))[0]))
    if tag == 0xCA:
        return struct.unpack(">f", r.take(4))[0]
    if tag == 0xCB:
        return struct.unpack(">d", r.take(8))[0]
    if tag == 0xCC:
        return r.byte()
    if tag == 0xCD:
        return struct.unpack(">H", r.take(2))[0]
    if tag == 0xCE:
        return struct.unpack(">I", r.take(4))[0]
    if tag == 0xCF:
        return struct.unpack(">Q", r.take(8))[0]
    if tag == 0xD0:
        return struct.unpack(">b", r.take(1))[0]
    if tag == 0xD1:
        return struct.unpack(">h", r.take(2))[0]
    if tag == 0xD2:
        return struct.unpack(">i", r.take(4))[0]
    if tag == 0xD3:
        return struct.unpack(">q", r.take(8))[0]
    if tag == 0xD9:
        return r.take(r.byte()).decode("utf-8")
    if tag == 0xDA:
        return r.take(struct.unpack(">H", r.take(2))[0]).decode("utf-8")
    if tag == 0xDB:
        return r.take(struct.unpack(">I", r.take(4))[0]).decode("utf-8")
    if tag == 0xDC:
        return _read_array(r, struct.unpack(">H", r.take(2))[0])
    if tag == 0xDD:
        return _read_array(r, struct.unpack(">I", r.take(4))[0])
    if tag == 0xDE:
        return _read_map(r, struct.unpack(">H", r.take(2))[0])
    if tag == 0xDF:
        return _read_map(r, struct.unpack(">I", r.take(4))[0])
    raise SerdeError(f"unsupported MessagePack tag 0x{tag:02x}")


def _read_array(r: _Reader, n: int) -> list:
    return [_unpack_one(r) for _ in range(n)]


def _read_map(r: _Reader, n: int) -> dict:
    out = {}
    for _ in range(n):
        k = _unpack_one(r)
        out[k] = _unpack_one(r)
    return out
