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

Integers are bounded by what the decoder reads back: a varint is at
most 147 bytes (1,029 bits), so ``encode`` refuses an int outside
``[-2**1028, 2**1028)`` instead of writing bytes ``decode`` would refuse.
"""

from __future__ import annotations

import struct
from typing import Any, Iterator

from .errors import SerializationError
from .hashing import DIGEST_SIZE, Digest, _digest_of

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

# The one varint limit, for both directions: 147 bytes of 7 bits.
_VARINT_MAX_BITS = 1029

_NON_STR_KEY = "dict keys must be str for canonical encoding"


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


def _write_int(out: bytearray, value: int) -> None:
    zigzag = _zigzag_big(value)
    if zigzag.bit_length() > _VARINT_MAX_BITS:
        raise SerializationError(
            f"int of {value.bit_length()} bits is too large to encode")
    out.append(_TAG_INT)
    _write_varint(out, zigzag)


# Tagged one-byte-varint encodings of -64..63, indexed by the value
# itself: 0..63 sit at their own index and -64..-1 at 64..127, which
# negative indexing reaches.
_SMALL_INTS = tuple(bytes((_TAG_INT, _zigzag_big(value)))
                    for value in (*range(64), *range(-64, 0)))

# Tag + length + UTF-8 of each dict key seen, so a key is encoded once
# rather than once per dict.  Bounded: long keys are never kept, and a
# full table starts over, so open-ended keys cannot crowd out the few
# field names every record and witness op repeats.
_KEY_PREFIXES: dict[str, bytes] = {}
_KEY_PREFIX_LIMIT = 4096
_KEY_PREFIX_MAX_LEN = 64


def _key_prefix(key: Any) -> bytes:
    if not isinstance(key, str):
        raise SerializationError(_NON_STR_KEY)
    prefix = bytearray()
    _encode(prefix, key)
    prefix = bytes(prefix)
    if type(key) is str and len(key) <= _KEY_PREFIX_MAX_LEN:
        if len(_KEY_PREFIXES) >= _KEY_PREFIX_LIMIT:
            _KEY_PREFIXES.clear()
        _KEY_PREFIXES[key] = prefix
    return prefix


def _encode(out: bytearray, value: Any) -> None:
    # Exact types first, most frequent first, with one-byte varints,
    # a dict's int values and a list's digests written in line; bool,
    # None, float, subclasses and the other byte buffers take the
    # general chain.  The plain chain this replaced is the oracle in
    # ``tests/reference/serialization.py``: same bytes, same errors.
    cls = type(value)
    if cls is int:
        if -64 <= value < 64:
            out += _SMALL_INTS[value]
        else:
            _write_int(out, value)
    elif cls is dict:
        try:
            keys = sorted(value)
        except TypeError:
            raise SerializationError(_NON_STR_KEY) from None
        out.append(_TAG_DICT)
        count = len(keys)
        if count < 0x80:
            out.append(count)
        else:
            _write_varint(out, count)
        prefixes = _KEY_PREFIXES
        for key in keys:
            out += prefixes.get(key) or _key_prefix(key)
            item = value[key]
            if type(item) is int:
                if -64 <= item < 64:
                    out += _SMALL_INTS[item]
                else:
                    _write_int(out, item)
            else:
                _encode(out, item)
    elif cls is bytes:
        out.append(_TAG_BYTES)
        length = len(value)
        if length < 0x80:
            out.append(length)
        else:
            _write_varint(out, length)
        out += value
    elif cls is str:
        data = value.encode("utf-8")
        out.append(_TAG_STR)
        length = len(data)
        if length < 0x80:
            out.append(length)
        else:
            _write_varint(out, length)
        out += data
    elif cls is Digest:
        out.append(_TAG_DIGEST)
        out += value._raw
    elif cls is list or cls is tuple:
        out.append(_TAG_LIST)
        count = len(value)
        if count < 0x80:
            out.append(count)
        else:
            _write_varint(out, count)
        for item in value:
            if type(item) is Digest:  # Merkle sibling paths
                out.append(_TAG_DIGEST)
                out += item._raw
            else:
                _encode(out, item)
    else:
        _encode_general(out, value)


def _encode_general(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(_TAG_NONE)
    elif value is False:
        out.append(_TAG_FALSE)
    elif value is True:
        out.append(_TAG_TRUE)
    elif isinstance(value, int):
        _write_int(out, value)
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
            raise SerializationError(_NON_STR_KEY)
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


class DictLayout:
    """A dict shape with a fixed set of str keys, declared once.

    :meth:`encode` writes ``encode(dict(zip(keys, values)))`` without
    building the dict: the tag, the count and every key's prefix are
    computed here, so only the values are encoded per call.  ``keys``
    must be given in the codec's (sorted) order, which is the order
    ``values`` follow.
    """

    __slots__ = ("keys", "_head", "_prefixes")

    def __init__(self, keys: tuple[str, ...]) -> None:
        if list(keys) != sorted(set(keys)):
            raise SerializationError(
                "layout keys must be distinct and in sorted order")
        self.keys = keys
        head = bytearray((_TAG_DICT,))
        _write_varint(head, len(keys))
        self._head = bytes(head)
        self._prefixes = tuple(_key_prefix(key) for key in keys)

    def encode(self, values: tuple[Any, ...]) -> bytes:
        out = bytearray(self._head)
        for prefix, value in zip(self._prefixes, values, strict=True):
            out += prefix
            if type(value) is int:
                if -64 <= value < 64:
                    out += _SMALL_INTS[value]
                else:
                    _write_int(out, value)
            else:
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
        if shift >= _VARINT_MAX_BITS:
            raise SerializationError("varint too long")


def _decode_fast(data: bytes, pos: int, end: int) -> tuple[Any, int]:
    """Decode the value at ``pos``; returns it with the position after it.

    Indexes into the buffer and threads the position through return
    values rather than slicing a byte per tag and varint byte, which is
    where decode time goes for record-heavy guest inputs.  Ordered by
    tag frequency in CLog wire entries (dicts of str keys and ints).
    One-byte varints, a dict's short str keys and int values, and a
    list's digests are read in line, without a call per value.
    The slicing reader it replaced is the oracle in
    ``tests/reference/serialization.py``: same values, same errors.
    """
    if pos >= end:
        raise SerializationError("truncated input")
    tag = data[pos]
    pos += 1
    if tag == _TAG_INT:
        if pos < end and data[pos] < 0x80:
            raw = data[pos]
            pos += 1
        else:
            raw, pos = _fast_varint(data, pos, end)
        return (raw >> 1) if raw % 2 == 0 else -((raw + 1) >> 1), pos
    if tag == _TAG_STR:
        if pos < end and data[pos] < 0x80:
            length = data[pos]
            pos += 1
        else:
            length, pos = _fast_varint(data, pos, end)
        stop = pos + length
        if stop > end:
            raise SerializationError("truncated input")
        try:
            return data[pos:stop].decode("utf-8"), stop
        except UnicodeDecodeError as exc:
            raise SerializationError("invalid UTF-8 in string") from exc
    if tag == _TAG_DICT:
        if pos < end and data[pos] < 0x80:
            count = data[pos]
            pos += 1
        else:
            count, pos = _fast_varint(data, pos, end)
        result = {}
        prev_key: str | None = None
        for _ in range(count):
            if pos + 1 < end and data[pos] == _TAG_STR \
                    and data[pos + 1] < 0x80:
                start = pos + 2
                pos = start + data[pos + 1]
                if pos > end:
                    raise SerializationError("truncated input")
                try:
                    key = data[start:pos].decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise SerializationError(
                        "invalid UTF-8 in string") from exc
            else:
                key, pos = _decode_fast(data, pos, end)
                if not isinstance(key, str):
                    raise SerializationError("dict key must decode to str")
            if prev_key is not None and key <= prev_key:
                raise SerializationError("dict keys not in canonical order")
            prev_key = key
            if pos < end and data[pos] == _TAG_INT:
                if pos + 1 < end and data[pos + 1] < 0x80:
                    raw = data[pos + 1]
                    pos += 2
                else:
                    raw, pos = _fast_varint(data, pos + 1, end)
                result[key] = (raw >> 1) if raw % 2 == 0 \
                    else -((raw + 1) >> 1)
            else:
                result[key], pos = _decode_fast(data, pos, end)
        return result, pos
    if tag == _TAG_LIST:
        if pos < end and data[pos] < 0x80:
            count = data[pos]
            pos += 1
        else:
            count, pos = _fast_varint(data, pos, end)
        items = []
        append = items.append
        for _ in range(count):
            if pos < end and data[pos] == _TAG_DIGEST:  # sibling paths
                start = pos + 1
                pos = start + DIGEST_SIZE
                if pos > end:
                    raise SerializationError("truncated input")
                append(_digest_of(data[start:pos]))
            else:
                item, pos = _decode_fast(data, pos, end)
                append(item)
        return items, pos
    if tag == _TAG_FLOAT:
        stop = pos + 8
        if stop > end:
            raise SerializationError("truncated input")
        return struct.unpack_from(">d", data, pos)[0], stop
    if tag == _TAG_BYTES:
        if pos < end and data[pos] < 0x80:
            length = data[pos]
            pos += 1
        else:
            length, pos = _fast_varint(data, pos, end)
        stop = pos + length
        if stop > end:
            raise SerializationError("truncated input")
        return data[pos:stop], stop
    if tag == _TAG_DIGEST:
        stop = pos + DIGEST_SIZE
        if stop > end:
            raise SerializationError("truncated input")
        return _digest_of(data[pos:stop]), stop
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_FALSE:
        return False, pos
    if tag == _TAG_TRUE:
        return True, pos
    raise SerializationError(f"unknown type tag 0x{tag:02x}")


def _as_bytes(data: Any) -> bytes:
    # ``bytes(n)`` of an int is n zero bytes, so only buffers convert.
    if type(data) is bytes:
        return data
    if isinstance(data, (bytes, bytearray, memoryview)):
        return bytes(data)
    raise SerializationError(
        f"cannot decode {type(data).__name__}; expected bytes")


def decode(data: bytes) -> Any:
    """Decode a canonically encoded value, rejecting trailing garbage."""
    data = _as_bytes(data)
    value, pos = _decode_fast(data, 0, len(data))
    if pos != len(data):
        raise SerializationError(
            f"{len(data) - pos} trailing bytes after value"
        )
    return value


def decode_stream(data: bytes) -> Iterator[Any]:
    """Decode a back-to-back concatenation of encoded values."""
    return _values(_as_bytes(data))


def _values(data: bytes) -> Iterator[Any]:
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


def encode_receipt(receipt: Any) -> bytes:
    """Canonical bytes for a :class:`~repro.zkvm.Receipt`: the one
    receipt codec, so wire code has one module for every shipped
    structure."""
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
