"""Minimal binary serialization helpers.

A tiny, dependency-free writer/reader pair used by the SELF binary
format and the CRIU-style image files.  All integers are little-endian;
strings are UTF-8 with a u32 length prefix — the same flavour of
length-prefixed encoding protobuf wire format uses, without the
varint complication.
"""

from __future__ import annotations

import struct


class ByteWriter:
    """Append-only binary writer."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def u8(self, value: int) -> "ByteWriter":
        self._buf += struct.pack("<B", value)
        return self

    def u32(self, value: int) -> "ByteWriter":
        self._buf += struct.pack("<I", value)
        return self

    def u64(self, value: int) -> "ByteWriter":
        self._buf += struct.pack("<Q", value & ((1 << 64) - 1))
        return self

    def i64(self, value: int) -> "ByteWriter":
        self._buf += struct.pack("<q", value)
        return self

    def string(self, value: str) -> "ByteWriter":
        data = value.encode("utf-8")
        self.u32(len(data))
        self._buf += data
        return self

    def blob(self, value: bytes) -> "ByteWriter":
        self.u32(len(value))
        self._buf += value
        return self

    def raw(self, value: bytes) -> "ByteWriter":
        self._buf += value
        return self

    def getvalue(self) -> bytes:
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)


class ByteCounter:
    """A :class:`ByteWriter` that keeps only the length of what it would
    write, so an encoder run against it sizes its output without
    building it."""

    def __init__(self) -> None:
        self._size = 0

    def u8(self, value: int) -> "ByteCounter":
        self._size += 1
        return self

    def u32(self, value: int) -> "ByteCounter":
        self._size += 4
        return self

    def u64(self, value: int) -> "ByteCounter":
        self._size += 8
        return self

    def i64(self, value: int) -> "ByteCounter":
        self._size += 8
        return self

    def string(self, value: str) -> "ByteCounter":
        self._size += 4 + len(value.encode("utf-8"))
        return self

    def blob(self, value: bytes) -> "ByteCounter":
        self._size += 4 + len(value)
        return self

    def raw(self, value: bytes) -> "ByteCounter":
        self._size += len(value)
        return self

    def __len__(self) -> int:
        return self._size


class ByteReader:
    """Sequential binary reader over a bytes object."""

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self._data = data
        self._pos = offset

    def _take(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise ValueError(
                f"truncated stream: need {count} bytes at offset {self._pos}, "
                f"have {len(self._data) - self._pos}"
            )
        chunk = self._data[self._pos:self._pos + count]
        self._pos += count
        return chunk

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self._take(8))[0]

    def string(self) -> str:
        return self._take(self.u32()).decode("utf-8")

    def blob(self) -> bytes:
        return self._take(self.u32())

    def raw(self, count: int) -> bytes:
        return self._take(count)

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._data)

    @property
    def position(self) -> int:
        return self._pos
