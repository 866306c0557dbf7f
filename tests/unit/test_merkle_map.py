"""Unit tests for the keyed Merkle map."""

import pytest

from repro.errors import MerkleError
from repro.merkle import MerkleMap


class TestBasics:
    def test_insert_and_get(self):
        m = MerkleMap()
        m.set("flow-a", b"payload-a")
        assert "flow-a" in m
        assert m.payload("flow-a") == b"payload-a"
        assert len(m) == 1

    def test_update_in_place_keeps_slot(self):
        m = MerkleMap()
        slot_a = m.set("a", b"1")
        m.set("b", b"2")
        slot_a2 = m.set("a", b"1-updated")
        assert slot_a == slot_a2
        assert m.payload("a") == b"1-updated"

    def test_root_changes_on_update(self):
        m = MerkleMap()
        m.set("a", b"1")
        before = m.root
        m.set("a", b"2")
        assert m.root != before

    def test_unknown_key_raises(self):
        m = MerkleMap()
        with pytest.raises(MerkleError):
            m.payload("missing")
        with pytest.raises(MerkleError):
            m.index_of("missing")
        assert m.get("missing") is None

    def test_iteration(self):
        m = MerkleMap()
        m.update_many({"a": b"1", "b": b"2"})
        assert set(m.keys()) == {"a", "b"}
        assert dict(m.items()) == {"a": b"1", "b": b"2"}


class TestAuthentication:
    def test_proofs_bind_key_and_value(self):
        m = MerkleMap()
        m.set("a", b"1")
        m.set("b", b"2")
        proof = m.prove("a")
        proof.verify(m.root)
        # The leaf covers key bytes + payload.
        assert proof.leaf == m.expected_leaf("a", b"1")
        assert proof.leaf != m.expected_leaf("b", b"1")
        assert proof.leaf != m.expected_leaf("a", b"2")

    def test_same_content_same_root(self):
        m1, m2 = MerkleMap(), MerkleMap()
        for m in (m1, m2):
            m.set("a", b"1")
            m.set("b", b"2")
        assert m1.root == m2.root

    def test_insert_order_affects_root(self):
        m1, m2 = MerkleMap(), MerkleMap()
        m1.set("a", b"1")
        m1.set("b", b"2")
        m2.set("b", b"2")
        m2.set("a", b"1")
        assert m1.root != m2.root  # slots are positional

    def test_snapshot(self):
        """``copy()`` is the frozen view: later writes to either side
        stay there, and the copy still proves what it held."""
        m = MerkleMap()
        m.set("a", b"1")
        snap = m.copy()
        m.set("b", b"2")
        m.set("a", b"1-updated")
        assert snap.root != m.root
        assert len(snap) == 1
        assert snap.index_of("a") == 0
        assert "b" not in snap
        assert snap.payload("a") == b"1"
        snap.prove("a").verify(snap.root)
        snap.set("c", b"3")
        assert "c" not in m
        assert list(m.slot_items()) == [(b"a", b"1-updated"), (b"b", b"2")]


class TestKeyBytes:
    def test_bytes_str_int_keys(self):
        m = MerkleMap()
        m.set(b"raw", b"1")
        m.set("text", b"2")
        m.set(12345, b"3")
        m.set(-7, b"4")
        assert len(m) == 4
        for key in (b"raw", "text", 12345, -7):
            m.prove(key).verify(m.root)

    def test_object_with_to_bytes_key(self):
        class Keyed:
            def to_bytes_key(self):
                return b"custom"

        m = MerkleMap()
        key = Keyed()
        m.set(key, b"v")
        m.prove(key).verify(m.root)

    def test_unsupported_key_type(self):
        m = MerkleMap()
        with pytest.raises(MerkleError):
            m.set(3.14, b"v")

    def test_custom_key_bytes_fn(self):
        m = MerkleMap(key_bytes=lambda k: str(k).upper().encode())
        m.set("ab", b"1")
        assert m.expected_leaf("ab", b"1") == \
            m._hasher.leaf(b"AB" + b"1")
