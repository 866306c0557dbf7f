"""Unit tests for the canonical serialization format."""

from unittest import mock

import pytest

from repro import serialization
from repro.errors import SerializationError
from repro.hashing import Digest, sha256
from repro.serialization import DictLayout, decode, decode_stream, encode

from ..reference import serialization as reference_serialization


class TestRoundTrip:
    @pytest.mark.parametrize("value", [
        None,
        True,
        False,
        0,
        1,
        -1,
        2**70,
        -(2**70),
        b"",
        b"\x00\xff" * 10,
        "",
        "héllo wörld",
        0.0,
        -2.5,
        1e300,
        [],
        [1, "two", b"three", None],
        {"a": 1, "nested": {"b": [True, 2.0]}},
    ])
    def test_roundtrip(self, value):
        assert decode(encode(value)) == value

    def test_digest_roundtrip(self):
        digest = sha256(b"payload")
        decoded = decode(encode(digest))
        assert isinstance(decoded, Digest)
        assert decoded == digest

    def test_tuple_decodes_as_list(self):
        assert decode(encode((1, 2))) == [1, 2]


class TestDeterminism:
    def test_dict_key_order_irrelevant(self):
        a = {"x": 1, "y": 2, "z": 3}
        b = {"z": 3, "x": 1, "y": 2}
        assert encode(a) == encode(b)

    def test_int_vs_float_distinct(self):
        assert encode(1) != encode(1.0)

    def test_bytes_vs_str_distinct(self):
        assert encode(b"ab") != encode("ab")

    def test_bool_vs_int_distinct(self):
        assert encode(True) != encode(1)
        assert decode(encode(True)) is True


class TestRejections:
    def test_non_string_dict_keys(self):
        with pytest.raises(SerializationError):
            encode({1: "x"})

    def test_unsupported_type(self):
        with pytest.raises(SerializationError):
            encode(object())

    def test_trailing_garbage(self):
        with pytest.raises(SerializationError):
            decode(encode(1) + b"\x00")

    def test_truncated_input(self):
        data = encode([1, 2, 3])
        with pytest.raises(SerializationError):
            decode(data[:-1])

    def test_unknown_tag(self):
        with pytest.raises(SerializationError):
            decode(b"\xfe")

    def test_noncanonical_dict_order_rejected(self):
        # Hand-craft a dict encoding with keys out of order.
        good = encode({"a": 1, "b": 2})
        a_entry = encode("a") + encode(1)
        b_entry = encode("b") + encode(2)
        swapped = good[:2] + b_entry + a_entry
        with pytest.raises(SerializationError):
            decode(swapped)

    def test_duplicate_dict_keys_rejected(self):
        good = encode({"a": 1})
        a_entry = encode("a") + encode(1)
        duplicated = good[0:1] + bytes([2]) + a_entry + a_entry
        with pytest.raises(SerializationError):
            decode(duplicated)

    def test_invalid_utf8_rejected(self):
        bad = bytes([0x05, 0x01, 0xff])  # str, len 1, invalid byte
        with pytest.raises(SerializationError):
            decode(bad)


class TestStream:
    def test_decode_stream(self):
        data = encode(1) + encode("two") + encode([3])
        assert list(decode_stream(data)) == [1, "two", [3]]

    def test_empty_stream(self):
        assert list(decode_stream(b"")) == []


class TestInputType:
    """``bytes(n)`` of an int is n zero bytes: ints must not slip
    through ``decode`` as buffers."""

    @pytest.mark.parametrize("value", [1, True])
    def test_decode_refuses_int(self, value):
        with pytest.raises(SerializationError, match="expected bytes"):
            decode(value)

    def test_decode_stream_refuses_int(self):
        with pytest.raises(SerializationError, match="expected bytes"):
            decode_stream(3)

    def test_decode_refuses_str(self):
        with pytest.raises(SerializationError, match="expected bytes"):
            decode("abc")

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_buffers_still_decode(self, wrap):
        data = encode({"a": [1, b"x"]})
        assert decode(wrap(data)) == {"a": [1, b"x"]}
        assert list(decode_stream(wrap(data + data))) \
            == [{"a": [1, b"x"]}] * 2


class TestIntBound:
    """``encode`` writes exactly the ints ``decode`` reads back: a
    varint is at most 147 bytes, so ints lie in [-2**1028, 2**1028)."""

    @pytest.mark.parametrize("value", [2**1028 - 1, -(2**1028)],
                             ids=["2**1028-1", "-2**1028"])
    def test_widest_ints_roundtrip(self, value):
        data = encode(value)
        assert len(data) == 1 + 147
        assert decode(data) == value

    @pytest.mark.parametrize("value", [2**1028, -(2**1028) - 1, 2**5000],
                             ids=["2**1028", "-2**1028-1", "2**5000"])
    def test_wider_ints_refused(self, value):
        with pytest.raises(SerializationError, match="too large"):
            encode(value)
        with pytest.raises(SerializationError, match="too large"):
            encode({"n": value})

    def test_decoder_refuses_a_148_byte_varint(self):
        with pytest.raises(SerializationError, match="varint too long"):
            decode(b"\x03" + b"\xff" * 147 + b"\x01")


class TestDictLayout:
    def test_encodes_like_the_dict(self):
        layout = DictLayout(("a", "b", "long key " * 20))
        values = (-65, [1, sha256(b"x")], "v")
        assert layout.encode(values) \
            == encode(dict(zip(layout.keys, values)))

    @pytest.mark.parametrize("keys", [("b", "a"), ("a", "a")])
    def test_keys_must_be_sorted_and_distinct(self, keys):
        with pytest.raises(SerializationError, match="sorted"):
            DictLayout(keys)

    def test_value_count_must_match(self):
        with pytest.raises(ValueError):
            DictLayout(("a", "b")).encode((1,))


class TestKeyPrefixTable:
    def test_table_is_bounded_and_starts_over_when_full(self):
        table = serialization._KEY_PREFIXES
        limit = serialization._KEY_PREFIX_LIMIT
        with mock.patch.dict(table, clear=True):
            for i in range(limit + 10):
                assert encode({f"k{i}": i}) \
                    == reference_serialization.encode({f"k{i}": i})
            assert len(table) == 10
            encode({"k0": 0})
            assert "k0" in table

    def test_long_and_subclass_keys_are_not_kept(self):
        class Name(str):
            pass

        table = serialization._KEY_PREFIXES
        long_key = "x" * (serialization._KEY_PREFIX_MAX_LEN + 1)
        with mock.patch.dict(table, clear=True):
            value = {long_key: 1, Name("n"): 2}
            assert encode(value) == reference_serialization.encode(value)
            assert table == {}
