"""Length-prefixed binary framing for the wire protocol.

Every message travels in one frame::

    offset  size  field
    ------  ----  -----------------------------------------------
    0       2     magic ``b"RV"`` (Repro Verifiable)
    2       1     protocol version (currently ``0x01``)
    3       4     payload length, unsigned big-endian
    7       n     payload (one canonically encoded envelope)

The fixed 7-byte header lets a reader decide, before buffering any
payload, whether the frame is acceptable: wrong magic or version is a
:class:`~repro.errors.ProtocolError`, a declared length above the
configured maximum is a :class:`~repro.errors.FrameTooLarge`, and data
that ends mid-header or mid-payload is a
:class:`~repro.errors.TruncatedFrame`.  Rejecting on the header bounds
the memory an untrusted peer can force the reader to allocate.

Both transports share this module: the asyncio server uses the
``read_frame``/``write_frame`` coroutines, and the synchronous clients
use ``read_frame_from``/``write_frame_to`` over plain sockets.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Callable

from ..errors import FrameTooLarge, ProtocolError, TruncatedFrame

MAGIC = b"RV"
WIRE_VERSION = 1
HEADER = struct.Struct(">2sBI")
HEADER_SIZE = HEADER.size  # 7 bytes

# Generous default: the receipt chain for a long history is the largest
# payload the protocol ships, and it grows linearly with rounds.
DEFAULT_MAX_FRAME_SIZE = 16 * 1024 * 1024


def encode_frame(payload: bytes,
                 max_size: int = DEFAULT_MAX_FRAME_SIZE) -> bytes:
    """Wrap ``payload`` in a wire frame."""
    if len(payload) > max_size:
        raise FrameTooLarge(
            f"payload of {len(payload)} bytes exceeds the "
            f"{max_size}-byte frame limit")
    return HEADER.pack(MAGIC, WIRE_VERSION, len(payload)) + payload


def parse_header(header: bytes,
                 max_size: int = DEFAULT_MAX_FRAME_SIZE) -> int:
    """Validate a 7-byte frame header; return the payload length."""
    if len(header) != HEADER_SIZE:
        raise TruncatedFrame(
            f"frame header is {len(header)} bytes, need {HEADER_SIZE}")
    magic, version, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise ProtocolError(
            f"unsupported wire version {version} "
            f"(this side speaks {WIRE_VERSION})")
    if length > max_size:
        raise FrameTooLarge(
            f"peer declared a {length}-byte payload, limit is "
            f"{max_size} bytes")
    return length


def decode_frame(data: bytes,
                 max_size: int = DEFAULT_MAX_FRAME_SIZE
                 ) -> tuple[bytes, int]:
    """Decode one frame from the head of ``data``.

    Returns ``(payload, bytes_consumed)``; raises
    :class:`~repro.errors.TruncatedFrame` if ``data`` holds less than a
    complete frame.
    """
    if len(data) < HEADER_SIZE:
        raise TruncatedFrame(
            f"need {HEADER_SIZE} header bytes, have {len(data)}")
    length = parse_header(data[:HEADER_SIZE], max_size)
    end = HEADER_SIZE + length
    if len(data) < end:
        raise TruncatedFrame(
            f"frame declares {length} payload bytes, only "
            f"{len(data) - HEADER_SIZE} present")
    return bytes(data[HEADER_SIZE:end]), end


# -- asyncio transport -------------------------------------------------------


async def read_frame(reader: asyncio.StreamReader,
                     max_size: int = DEFAULT_MAX_FRAME_SIZE
                     ) -> bytes | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise TruncatedFrame(
            f"connection closed {len(exc.partial)} bytes into a frame "
            "header") from exc
    length = parse_header(header, max_size)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TruncatedFrame(
            f"connection closed after {len(exc.partial)} of {length} "
            "payload bytes") from exc
    return payload


async def write_frame(writer: asyncio.StreamWriter, payload: bytes,
                      max_size: int = DEFAULT_MAX_FRAME_SIZE) -> None:
    """Write one frame and drain (the drain is the backpressure)."""
    writer.write(encode_frame(payload, max_size))
    await writer.drain()


# -- blocking-socket transport ----------------------------------------------


def read_frame_from(recv: Callable[[int], bytes],
                    max_size: int = DEFAULT_MAX_FRAME_SIZE) -> bytes:
    """Read one frame using a blocking ``recv(n)`` callable
    (e.g. ``sock.recv``).  EOF before any header byte raises
    :class:`~repro.errors.TruncatedFrame` too — synchronous callers
    always expect a response."""
    header = _recv_exactly(recv, HEADER_SIZE, "frame header")
    length = parse_header(header, max_size)
    return _recv_exactly(recv, length, "frame payload")


def write_frame_to(send_all: Callable[[bytes], object], payload: bytes,
                   max_size: int = DEFAULT_MAX_FRAME_SIZE) -> None:
    """Write one frame using a blocking ``sendall``-style callable."""
    send_all(encode_frame(payload, max_size))


def _recv_exactly(recv: Callable[[int], bytes], n: int,
                  what: str) -> bytes:
    chunks = bytearray()
    while len(chunks) < n:
        chunk = recv(n - len(chunks))
        if not chunk:
            raise TruncatedFrame(
                f"connection closed after {len(chunks)} of {n} "
                f"{what} bytes")
        chunks.extend(chunk)
    return bytes(chunks)
