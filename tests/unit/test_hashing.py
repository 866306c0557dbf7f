"""Unit tests for repro.hashing."""

import hashlib

import pytest

from repro.hashing import (
    DIGEST_SIZE,
    Digest,
    hash_many,
    sha256,
    tagged_hash,
)
from repro.zkvm.cycles import sha256_blocks


class TestDigest:
    def test_requires_32_bytes(self):
        with pytest.raises(ValueError):
            Digest(b"short")

    def test_requires_bytes_type(self):
        with pytest.raises(TypeError):
            Digest("00" * 32)

    def test_immutable(self):
        digest = Digest.zero()
        with pytest.raises(AttributeError):
            digest._raw = b"x" * 32

    def test_hex_roundtrip(self):
        digest = sha256(b"hello")
        assert Digest.from_hex(digest.hex()) == digest

    def test_equality_and_hash(self):
        a = sha256(b"x")
        b = sha256(b"x")
        assert a == b
        assert hash(a) == hash(b)
        assert a != sha256(b"y")

    def test_not_equal_to_raw_bytes(self):
        digest = sha256(b"x")
        assert digest != digest.raw

    def test_bytes_conversion(self):
        digest = sha256(b"x")
        assert bytes(digest) == digest.raw
        assert len(bytes(digest)) == DIGEST_SIZE

    def test_zero(self):
        assert Digest.zero().raw == b"\x00" * 32

    def test_short_form(self):
        digest = sha256(b"x")
        assert digest.hex().startswith(digest.short())
        assert len(digest.short()) == 8


class TestTaggedHash:
    def test_matches_construction(self):
        tag_digest = hashlib.sha256(b"mytag").digest()
        expected = hashlib.sha256(
            tag_digest + tag_digest + b"payload").digest()
        assert tagged_hash("mytag", b"payload").raw == expected

    def test_domain_separation(self):
        assert tagged_hash("a", b"data") != tagged_hash("b", b"data")

    def test_multiple_parts_concatenate(self):
        assert tagged_hash("t", b"ab", b"cd") == tagged_hash("t", b"abcd")

    def test_differs_from_plain_sha(self):
        assert tagged_hash("t", b"x") != sha256(b"x")


class TestHashMany:
    def test_framing_prevents_boundary_confusion(self):
        # Same concatenation, different item boundaries.
        assert hash_many("t", [b"ab", b"c"]) != hash_many("t", [b"a", b"bc"])

    def test_empty_list(self):
        assert hash_many("t", []) == hash_many("t", iter([]))

    def test_order_sensitive(self):
        assert hash_many("t", [b"a", b"b"]) != hash_many("t", [b"b", b"a"])


class TestBlockCount:
    """The SHA-256 padding rule as the zkVM cycle meter counts it."""

    @pytest.mark.parametrize("num_bytes,expected", [
        (0, 1),        # padding alone needs one block
        (55, 1),       # 55 + 9 = 64 exactly
        (56, 2),       # 56 + 9 = 65 spills
        (64, 2),
        (119, 2),
        (120, 3),
    ])
    def test_padding_rule(self, num_bytes, expected):
        assert sha256_blocks(num_bytes) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sha256_blocks(-1)
