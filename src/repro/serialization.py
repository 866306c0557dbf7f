"""Canonical, deterministic byte serialization.

Anything that gets hashed or committed in this system must serialize the
same way on every machine and every run, so we define a small canonical
encoding instead of relying on ``pickle`` (non-deterministic, unsafe) or
``json`` (no bytes, float ambiguity).  The format is a type-tagged binary
encoding:

===========  ===========================================================
tag byte     payload
===========  ===========================================================
``0x00``     ``None``
``0x01``     ``False``
``0x02``     ``True``
``0x03``     int — zigzag LEB128 varint
``0x04``     bytes — varint length + raw bytes
``0x05``     str — varint length + UTF-8 bytes
``0x06``     list/tuple — varint count + encoded items
``0x07``     dict — varint count + (str key, value) pairs in sorted order
``0x08``     :class:`~repro.hashing.Digest` — 32 raw bytes
``0x09``     float — 8-byte IEEE-754 big-endian
===========  ===========================================================

Dictionaries are encoded with keys sorted lexicographically so two
semantically equal dicts always hash identically.
"""

from __future__ import annotations

import struct
from typing import Any, Iterator

from .errors import SerializationError
from .hashing import DIGEST_SIZE, Digest

_TAG_NONE = 0x00
_TAG_FALSE = 0x01
_TAG_TRUE = 0x02
_TAG_INT = 0x03
_TAG_BYTES = 0x04
_TAG_STR = 0x05
_TAG_LIST = 0x06
_TAG_DICT = 0x07
_TAG_DIGEST = 0x08
_TAG_FLOAT = 0x09


def _zigzag_big(value: int) -> int:
    # Arbitrary-precision zigzag: non-negative -> 2n, negative -> -2n - 1.
    return value * 2 if value >= 0 else -value * 2 - 1


def _write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise SerializationError("varint must be non-negative")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _encode(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif isinstance(value, int):
        out.append(_TAG_INT)
        _write_varint(out, _zigzag_big(value))
    elif isinstance(value, Digest):
        out.append(_TAG_DIGEST)
        out.extend(value.raw)
    elif isinstance(value, (bytes, bytearray, memoryview)):
        data = bytes(value)
        out.append(_TAG_BYTES)
        _write_varint(out, len(data))
        out.extend(data)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(_TAG_STR)
        _write_varint(out, len(data))
        out.extend(data)
    elif isinstance(value, float):
        out.append(_TAG_FLOAT)
        out.extend(struct.pack(">d", value))
    elif isinstance(value, (list, tuple)):
        out.append(_TAG_LIST)
        _write_varint(out, len(value))
        for item in value:
            _encode(out, item)
    elif isinstance(value, dict):
        keys = list(value.keys())
        if not all(isinstance(k, str) for k in keys):
            raise SerializationError("dict keys must be str for canonical "
                                     "encoding")
        out.append(_TAG_DICT)
        _write_varint(out, len(keys))
        for key in sorted(keys):
            _encode(out, key)
            _encode(out, value[key])
    else:
        raise SerializationError(
            f"cannot canonically encode {type(value).__name__}"
        )


def encode(value: Any) -> bytes:
    """Canonically encode ``value`` to bytes."""
    out = bytearray()
    _encode(out, value)
    return bytes(out)


def _fast_varint(data: bytes, pos: int, end: int) -> tuple[int, int]:
    shift = 0
    result = 0
    while True:
        if pos >= end:
            raise SerializationError("truncated input")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 1024:
            raise SerializationError("varint too long")


def _decode_fast(data: bytes, pos: int, end: int) -> tuple[Any, int]:
    """Decode the value at ``pos``; returns it with the position after it.

    Indexes into the buffer and threads the position through return
    values rather than slicing a byte per tag and varint byte, which is
    where decode time goes for record-heavy guest inputs.  Ordered by
    tag frequency in CLog wire entries (dicts of str keys and ints).
    The slicing reader it replaced is the oracle in
    ``tests/reference/serialization.py``: same values, same errors.
    """
    if pos >= end:
        raise SerializationError("truncated input")
    tag = data[pos]
    pos += 1
    if tag == _TAG_INT:
        raw, pos = _fast_varint(data, pos, end)
        return (raw >> 1) if raw % 2 == 0 else -((raw + 1) >> 1), pos
    if tag == _TAG_STR:
        length, pos = _fast_varint(data, pos, end)
        stop = pos + length
        if stop > end:
            raise SerializationError("truncated input")
        try:
            return data[pos:stop].decode("utf-8"), stop
        except UnicodeDecodeError as exc:
            raise SerializationError("invalid UTF-8 in string") from exc
    if tag == _TAG_DICT:
        count, pos = _fast_varint(data, pos, end)
        result = {}
        prev_key: str | None = None
        for _ in range(count):
            key, pos = _decode_fast(data, pos, end)
            if not isinstance(key, str):
                raise SerializationError("dict key must decode to str")
            if prev_key is not None and key <= prev_key:
                raise SerializationError("dict keys not in canonical order")
            prev_key = key
            result[key], pos = _decode_fast(data, pos, end)
        return result, pos
    if tag == _TAG_LIST:
        count, pos = _fast_varint(data, pos, end)
        items = []
        append = items.append
        for _ in range(count):
            item, pos = _decode_fast(data, pos, end)
            append(item)
        return items, pos
    if tag == _TAG_FLOAT:
        stop = pos + 8
        if stop > end:
            raise SerializationError("truncated input")
        return struct.unpack_from(">d", data, pos)[0], stop
    if tag == _TAG_BYTES:
        length, pos = _fast_varint(data, pos, end)
        stop = pos + length
        if stop > end:
            raise SerializationError("truncated input")
        return data[pos:stop], stop
    if tag == _TAG_DIGEST:
        stop = pos + DIGEST_SIZE
        if stop > end:
            raise SerializationError("truncated input")
        return Digest(data[pos:stop]), stop
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_TRUE:
        return True, pos
    raise SerializationError(f"unknown type tag 0x{tag:02x}")


def decode(data: bytes) -> Any:
    """Decode a canonically encoded value, rejecting trailing garbage."""
    if not isinstance(data, bytes):
        data = bytes(data)
    value, pos = _decode_fast(data, 0, len(data))
    if pos != len(data):
        raise SerializationError(
            f"{len(data) - pos} trailing bytes after value"
        )
    return value


def decode_stream(data: bytes) -> Iterator[Any]:
    """Decode a back-to-back concatenation of encoded values."""
    if not isinstance(data, bytes):
        data = bytes(data)
    pos = 0
    end = len(data)
    while pos < end:
        value, pos = _decode_fast(data, pos, end)
        yield value


# ---------------------------------------------------------------------------
# Typed wire codecs
# ---------------------------------------------------------------------------
# Canonical byte forms for the structures that cross the network
# boundary (repro.net).  Imports are local: the domain modules import
# this one for the primitive codec.  Shape errors from hostile bytes
# (missing keys, wrong types) surface as SerializationError, never as
# bare KeyError/TypeError.


def _decode_wire_dict(data: bytes, what: str) -> dict:
    wire = decode(data)
    if not isinstance(wire, dict):
        raise SerializationError(
            f"{what} encoding must be a dict, got "
            f"{type(wire).__name__}")
    return wire


def encode_commitment(commitment: Any) -> bytes:
    """Canonical bytes for a :class:`~repro.commitments.Commitment`."""
    return encode(commitment.to_wire())


def decode_commitment(data: bytes) -> Any:
    from .commitments import Commitment
    wire = _decode_wire_dict(data, "commitment")
    try:
        return Commitment.from_wire(wire)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed commitment: {exc}") from exc


def encode_receipt(receipt: Any) -> bytes:
    """Canonical bytes for a :class:`~repro.zkvm.Receipt` (equal to
    ``receipt.to_bytes()``; provided here so wire code has one
    codec module for every shipped structure)."""
    return encode(receipt.to_wire())


def decode_receipt(data: bytes) -> Any:
    from .zkvm import Receipt
    wire = _decode_wire_dict(data, "receipt")
    try:
        return Receipt.from_wire(wire)
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed receipt: {exc}") from exc


def query_response_to_wire(response: Any) -> dict[str, Any]:
    """Wire dict for a :class:`~repro.core.query_proof.QueryResponse`.

    Field-for-field, with the receipt nested in its own wire form and
    tuples lowered to lists (the canonical codec's sequence type).
    """
    return {
        "sql": response.sql,
        "labels": list(response.labels),
        "values": list(response.values),
        "matched": response.matched,
        "scanned": response.scanned,
        "round": response.round,
        "root": response.root,
        "receipt": response.receipt.to_wire(),
        "group_by": response.group_by,
        "groups": [[key, list(values)]
                   for key, values in response.groups],
    }


def query_response_from_wire(wire: dict[str, Any]) -> Any:
    from .core.query_proof import QueryResponse
    from .zkvm import Receipt
    try:
        return QueryResponse(
            sql=wire["sql"],
            labels=tuple(wire["labels"]),
            values=tuple(wire["values"]),
            matched=wire["matched"],
            scanned=wire["scanned"],
            round=wire["round"],
            root=wire["root"],
            receipt=Receipt.from_wire(wire["receipt"]),
            group_by=wire["group_by"],
            groups=tuple((key, tuple(values))
                         for key, values in wire["groups"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"malformed query response: {exc}") from exc


def encode_query_response(response: Any) -> bytes:
    return encode(query_response_to_wire(response))


def decode_query_response(data: bytes) -> Any:
    return query_response_from_wire(
        _decode_wire_dict(data, "query response"))
