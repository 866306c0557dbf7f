"""Unit tests for inclusion proofs and multiproofs."""

import pytest

from repro.errors import MerkleError, MerkleInclusionError
from repro.hashing import tagged_hash
from repro.merkle import InclusionProof, MerkleTree, MultiProof


def leaf(i: int):
    return tagged_hash("test/leaf", i.to_bytes(4, "big"))


@pytest.fixture
def tree():
    return MerkleTree(leaf(i) for i in range(8))


class TestInclusionProof:
    def test_verify_raises_on_mismatch(self, tree):
        proof = tree.prove(3)
        bad = InclusionProof(leaf_index=3, leaf=leaf(99),
                             siblings=proof.siblings, tree_size=8)
        with pytest.raises(MerkleInclusionError):
            bad.verify(tree.root)

    def test_wrong_index_fails(self, tree):
        proof = tree.prove(3)
        moved = InclusionProof(leaf_index=4, leaf=proof.leaf,
                               siblings=proof.siblings, tree_size=8)
        with pytest.raises(MerkleInclusionError):
            moved.verify(tree.root)

    def test_tampered_sibling_fails(self, tree):
        proof = tree.prove(0)
        siblings = list(proof.siblings)
        siblings[1] = leaf(1234)
        tampered = InclusionProof(leaf_index=0, leaf=proof.leaf,
                                  siblings=tuple(siblings), tree_size=8)
        with pytest.raises(MerkleInclusionError):
            tampered.verify(tree.root)

    def test_negative_index_rejected(self):
        with pytest.raises(MerkleError):
            InclusionProof(leaf_index=-1, leaf=leaf(0), siblings=(),
                           tree_size=1)

    def test_index_outside_size_rejected(self):
        with pytest.raises(MerkleError):
            InclusionProof(leaf_index=3, leaf=leaf(0), siblings=(),
                           tree_size=3)

    def test_path_length_index_consistency(self):
        # index 5 needs at least 3 siblings.
        with pytest.raises(MerkleError):
            InclusionProof(leaf_index=5, leaf=leaf(0),
                           siblings=(leaf(1),), tree_size=8).computed_root()

    def test_wire_roundtrip(self, tree):
        proof = tree.prove(5)
        restored = InclusionProof.from_wire(proof.to_wire())
        assert restored == proof
        restored.verify(tree.root)

    def test_verify_inclusion_helper(self, tree):
        tree.prove(2).verify(tree.root)
        with pytest.raises(MerkleInclusionError):
            tree.prove(2).verify(leaf(0))

    def test_depth_property(self, tree):
        assert tree.prove(0).depth == 3


class TestMultiProof:
    def test_batch_verifies(self, tree):
        multi = tree.prove_many([1, 5, 6])
        multi.verify()
        multi.verify(tree.root)

    def test_indices_deduplicated_sorted(self, tree):
        multi = tree.prove_many([6, 1, 6, 5])
        assert multi.indices == (1, 5, 6)

    def test_mismatched_root_rejected(self, tree):
        multi = tree.prove_many([0])
        with pytest.raises(MerkleInclusionError):
            multi.verify(leaf(77))

    def test_one_bad_member_fails_batch(self, tree):
        multi = tree.prove_many([0, 1])
        bad_member = InclusionProof(
            leaf_index=1, leaf=leaf(42),
            siblings=multi.proofs[1].siblings, tree_size=8)
        tampered = MultiProof(proofs=(multi.proofs[0], bad_member),
                              root=tree.root)
        assert not tampered.is_valid()

    def test_wire_roundtrip(self, tree):
        multi = tree.prove_many([2, 3])
        restored = MultiProof.from_wire(multi.to_wire())
        restored.verify(tree.root)
        assert restored.indices == multi.indices
