"""The slicing decoder ``repro.serialization`` shipped before its
index-based one: a reader object that allocates a slice per tag and per
varint byte.  Same values, same ``SerializationError`` texts."""

from __future__ import annotations

import struct
from typing import Any, Iterator

from repro.errors import SerializationError
from repro.hashing import DIGEST_SIZE, Digest
from repro.serialization import (
    _TAG_BYTES,
    _TAG_DICT,
    _TAG_DIGEST,
    _TAG_FALSE,
    _TAG_FLOAT,
    _TAG_INT,
    _TAG_LIST,
    _TAG_NONE,
    _TAG_STR,
    _TAG_TRUE,
)


def _unzigzag(value: int) -> int:
    return (value >> 1) if value % 2 == 0 else -((value + 1) >> 1)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise SerializationError("truncated input")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def byte(self) -> int:
        return self.take(1)[0]

    def varint(self) -> int:
        shift = 0
        result = 0
        while True:
            byte = self.byte()
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 1024:
                raise SerializationError("varint too long")


def _decode(reader: _Reader) -> Any:
    tag = reader.byte()
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_FALSE:
        return False
    if tag == _TAG_TRUE:
        return True
    if tag == _TAG_INT:
        return _unzigzag(reader.varint())
    if tag == _TAG_BYTES:
        return reader.take(reader.varint())
    if tag == _TAG_STR:
        raw = reader.take(reader.varint())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError("invalid UTF-8 in string") from exc
    if tag == _TAG_FLOAT:
        return struct.unpack(">d", reader.take(8))[0]
    if tag == _TAG_LIST:
        count = reader.varint()
        return [_decode(reader) for _ in range(count)]
    if tag == _TAG_DICT:
        count = reader.varint()
        result = {}
        prev_key: str | None = None
        for _ in range(count):
            key = _decode(reader)
            if not isinstance(key, str):
                raise SerializationError("dict key must decode to str")
            if prev_key is not None and key <= prev_key:
                raise SerializationError("dict keys not in canonical order")
            prev_key = key
            result[key] = _decode(reader)
        return result
    if tag == _TAG_DIGEST:
        return Digest(reader.take(DIGEST_SIZE))
    raise SerializationError(f"unknown type tag 0x{tag:02x}")


def decode(data: bytes) -> Any:
    """Decode a canonically encoded value, rejecting trailing garbage."""
    if not isinstance(data, bytes):
        data = bytes(data)
    reader = _Reader(data)
    value = _decode(reader)
    if reader.pos != len(data):
        raise SerializationError(f"{len(data) - reader.pos} trailing bytes after value")
    return value


def decode_stream(data: bytes) -> Iterator[Any]:
    """Decode a back-to-back concatenation of encoded values."""
    if not isinstance(data, bytes):
        data = bytes(data)
    reader = _Reader(data)
    while reader.pos < len(data):
        yield _decode(reader)


def decode_at(data: bytes, pos: int, end: int) -> tuple[Any, int]:
    """``repro.serialization._decode_fast``'s signature on this reader."""
    assert end == len(data)
    reader = _Reader(data, pos)
    return _decode(reader), reader.pos
