"""Property tests: Merkle tree invariants under arbitrary operations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MerkleInclusionError
from repro.hashing import sha256
from repro.merkle import MerkleMap, MerkleTree


def leaves(min_size=0, max_size=40):
    return st.lists(
        st.integers(min_value=0, max_value=2**32).map(
            lambda i: sha256(i.to_bytes(8, "big"))),
        min_size=min_size, max_size=max_size)


class TestTreeProperties:
    @given(leaves(min_size=1))
    @settings(max_examples=120)
    def test_all_proofs_verify(self, items):
        tree = MerkleTree(items)
        for index in range(len(items)):
            tree.prove(index).verify(tree.root)

    @given(leaves(min_size=1))
    def test_incremental_append_matches_batch(self, items):
        incremental = MerkleTree()
        for item in items:
            incremental.append(item)
        assert incremental.root == MerkleTree(items).root

    @given(leaves(min_size=2),
           st.data())
    @settings(max_examples=120)
    def test_update_sequence_matches_rebuild(self, items, data):
        tree = MerkleTree(items)
        current = list(items)
        for _ in range(data.draw(st.integers(0, 5))):
            index = data.draw(st.integers(0, len(items) - 1))
            new_leaf = sha256(data.draw(st.binary(max_size=16)))
            tree.update(index, new_leaf)
            current[index] = new_leaf
        assert tree.root == MerkleTree(current).root

    @given(leaves(min_size=1), st.integers(0, 1000))
    def test_proof_rejects_wrong_leaf(self, items, nonce):
        tree = MerkleTree(items)
        proof = tree.prove(0)
        impostor = sha256(b"impostor" + nonce.to_bytes(8, "big"))
        if impostor != proof.leaf:
            from repro.merkle.proof import InclusionProof
            forged = InclusionProof(
                leaf_index=0, leaf=impostor,
                siblings=proof.siblings, tree_size=proof.tree_size)
            with pytest.raises(MerkleInclusionError):
                forged.verify(tree.root)

    @given(leaves(min_size=1, max_size=20))
    def test_vacant_then_append_consistency(self, items):
        tree = MerkleTree(items)
        size = tree.size
        if size >= (1 << tree.depth):
            return  # would need growth; covered by witness tests
        vacant = tree.prove_vacant(size)
        assert vacant.computed_root() == tree.root


class TestMapProperties:
    @given(st.dictionaries(st.binary(min_size=1, max_size=8),
                           st.binary(max_size=16),
                           min_size=1, max_size=25))
    @settings(max_examples=100)
    def test_every_key_provable(self, entries):
        m = MerkleMap()
        for key, value in entries.items():
            m.set(key, value)
        for key in entries:
            m.prove(key).verify(m.root)

    @given(st.lists(st.tuples(st.binary(min_size=1, max_size=4),
                              st.binary(max_size=8)),
                    min_size=1, max_size=30))
    def test_last_write_wins(self, operations):
        m = MerkleMap()
        expected = {}
        for key, value in operations:
            m.set(key, value)
            expected[key] = value
        assert dict(m.items()) == expected
        assert len(m) == len(expected)

    @given(st.dictionaries(st.binary(min_size=1, max_size=4),
                           st.binary(max_size=8),
                           min_size=2, max_size=10))
    def test_update_changes_root_iff_payload_changes(self, entries):
        m = MerkleMap()
        for key, value in entries.items():
            m.set(key, value)
        key = next(iter(entries))
        before = m.root
        m.set(key, entries[key])  # identical payload
        assert m.root == before
        m.set(key, entries[key] + b"!")
        assert m.root != before
