"""Unit tests: the length-prefixed wire framing codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FrameTooLarge, ProtocolError, TruncatedFrame
from repro.net.framing import (
    HEADER_SIZE,
    MAGIC,
    WIRE_VERSION,
    decode_frame,
    encode_frame,
    parse_header,
    read_frame_from,
)


class TestRoundTrip:
    @given(st.binary(max_size=4096))
    @settings(max_examples=200)
    def test_decode_inverts_encode(self, payload):
        frame = encode_frame(payload)
        decoded, consumed = decode_frame(frame)
        assert decoded == payload
        assert consumed == len(frame) == HEADER_SIZE + len(payload)

    @given(st.binary(max_size=512), st.binary(max_size=64))
    def test_trailing_data_left_alone(self, payload, trailer):
        decoded, consumed = decode_frame(encode_frame(payload)
                                         + trailer)
        assert decoded == payload
        assert consumed == HEADER_SIZE + len(payload)

    @given(st.lists(st.binary(max_size=256), max_size=8))
    @settings(max_examples=100)
    def test_concatenated_frames_decode_in_order(self, payloads):
        stream = b"".join(encode_frame(p) for p in payloads)
        out = []
        while stream:
            payload, consumed = decode_frame(stream)
            out.append(payload)
            stream = stream[consumed:]
        assert out == payloads

    def test_header_layout(self):
        frame = encode_frame(b"abc")
        assert frame[:2] == MAGIC
        assert frame[2] == WIRE_VERSION
        assert int.from_bytes(frame[3:7], "big") == 3
        assert frame[7:] == b"abc"


class TestRejection:
    @given(st.binary(max_size=256), st.integers(min_value=0))
    @settings(max_examples=200)
    def test_any_prefix_is_truncated_never_garbage(self, payload, cut):
        """Every proper prefix of a valid frame raises TruncatedFrame
        (not an arbitrary exception, and never a bogus success)."""
        frame = encode_frame(payload)
        prefix = frame[:min(cut, len(frame) - 1)]
        with pytest.raises(TruncatedFrame):
            decode_frame(prefix)

    def test_bad_magic(self):
        frame = bytearray(encode_frame(b"x"))
        frame[0] ^= 0xFF
        with pytest.raises(ProtocolError, match="magic"):
            decode_frame(bytes(frame))

    def test_bad_version(self):
        frame = bytearray(encode_frame(b"x"))
        frame[2] = WIRE_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            decode_frame(bytes(frame))

    def test_encode_rejects_oversized_payload(self):
        with pytest.raises(FrameTooLarge):
            encode_frame(b"x" * 101, max_size=100)

    def test_decode_rejects_oversized_declared_length(self):
        frame = encode_frame(b"x" * 200)  # valid at default limit
        with pytest.raises(FrameTooLarge):
            decode_frame(frame, max_size=100)

    def test_oversized_rejected_from_header_alone(self):
        """The limit check must not require buffering the payload."""
        header = encode_frame(b"")[:HEADER_SIZE - 4] \
            + (2 ** 31).to_bytes(4, "big")
        with pytest.raises(FrameTooLarge):
            parse_header(header, max_size=1024)


def chunked_recv(stream: bytes, chunk: int):
    """A blocking ``recv(n)`` over ``stream`` that hands back at most
    ``chunk`` bytes per call and ``b""`` once it is drained."""
    buffered = bytearray(stream)

    def recv(n):
        take = bytes(buffered[:min(n, chunk)])
        del buffered[:len(take)]
        return take

    return recv, buffered


class TestFrameDecoder:
    """Frames decoded off a stream that arrives in arbitrary chunks."""

    @given(st.lists(st.binary(max_size=128), min_size=1, max_size=6),
           st.integers(min_value=1, max_value=7))
    @settings(max_examples=100)
    def test_incremental_feed_any_chunking(self, payloads, chunk):
        stream = b"".join(encode_frame(p) for p in payloads)
        recv, rest = chunked_recv(stream, chunk)
        out = [read_frame_from(recv) for _ in payloads]
        assert out == payloads
        assert not rest

    def test_finish_mid_frame_raises(self):
        recv, _ = chunked_recv(encode_frame(b"abcdef")[:-2], 3)
        with pytest.raises(TruncatedFrame):
            read_frame_from(recv)
        with pytest.raises(TruncatedFrame):
            decode_frame(encode_frame(b"abcdef")[:-2])

    def test_oversized_rejected_before_payload_arrives(self):
        header = encode_frame(b"")[:HEADER_SIZE - 4] \
            + (1 << 20).to_bytes(4, "big")
        recv, _ = chunked_recv(header, HEADER_SIZE)
        with pytest.raises(FrameTooLarge):
            read_frame_from(recv, max_size=16)


class TestBlockingTransport:
    def test_read_frame_from_chunked_recv(self):
        # recv may return fewer bytes than asked for; the reader must
        # keep asking until the frame is complete.
        buffered = bytearray(encode_frame(b"hello world"))

        def recv(n):
            take = bytes(buffered[:min(n, 2)])
            del buffered[:len(take)]
            return take

        assert read_frame_from(recv) == b"hello world"

    def test_read_frame_from_eof_mid_frame(self):
        data = bytearray(encode_frame(b"hello")[:-2])

        def recv(n):
            take = bytes(data[:n])
            del data[:n]
            return take

        with pytest.raises(TruncatedFrame):
            read_frame_from(recv)
