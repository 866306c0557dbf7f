"""Unit tests for the Merkle tree."""

import pytest

from repro.errors import MerkleError, MerkleInclusionError
from repro.hashing import tagged_hash
from repro.merkle import EMPTY_ROOTS, MerkleTree
from repro.merkle.hasher import default_hasher


def leaf(i: int):
    return tagged_hash("test/leaf", i.to_bytes(4, "big"))


class TestConstruction:
    def test_empty_tree_root_is_empty_leaf(self):
        assert MerkleTree().root == EMPTY_ROOTS[0]

    def test_single_leaf_root_is_leaf(self):
        tree = MerkleTree([leaf(0)])
        assert tree.root == leaf(0)
        assert tree.depth == 0

    def test_two_leaves(self):
        tree = MerkleTree([leaf(0), leaf(1)])
        assert tree.root == default_hasher().node(leaf(0), leaf(1))
        assert tree.depth == 1

    def test_odd_count_pads_with_empty(self):
        tree = MerkleTree([leaf(0), leaf(1), leaf(2)])
        h = default_hasher()
        expected = h.node(h.node(leaf(0), leaf(1)),
                          h.node(leaf(2), EMPTY_ROOTS[0]))
        assert tree.root == expected

    @pytest.mark.parametrize("n,depth", [
        (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (1000, 10),
    ])
    def test_depth(self, n, depth):
        assert MerkleTree(leaf(i) for i in range(n)).depth == depth

    def test_from_payloads(self):
        h = default_hasher()
        tree = MerkleTree(h.leaf(p) for p in (b"a", b"b"))
        assert tree.root == h.node(h.leaf(b"a"), h.leaf(b"b"))


class TestAppend:
    def test_append_matches_rebuild(self):
        incremental = MerkleTree()
        for i in range(37):
            incremental.append(leaf(i))
            fresh = MerkleTree(leaf(j) for j in range(i + 1))
            assert incremental.root == fresh.root, f"diverged at {i}"

    def test_append_returns_index(self):
        tree = MerkleTree()
        assert tree.append(leaf(0)) == 0
        assert tree.append(leaf(1)) == 1

    def test_extend(self):
        tree = MerkleTree()
        tree.extend(leaf(i) for i in range(5))
        assert tree.size == 5
        assert tree.root == MerkleTree(leaf(i) for i in range(5)).root


class TestUpdate:
    def test_update_matches_rebuild(self):
        leaves = [leaf(i) for i in range(20)]
        tree = MerkleTree(leaves)
        tree.update(7, leaf(100))
        leaves[7] = leaf(100)
        assert tree.root == MerkleTree(leaves).root

    def test_update_every_position(self):
        n = 9
        for position in range(n):
            leaves = [leaf(i) for i in range(n)]
            tree = MerkleTree(leaves)
            tree.update(position, leaf(999))
            leaves[position] = leaf(999)
            assert tree.root == MerkleTree(leaves).root

    def test_update_out_of_range(self):
        tree = MerkleTree([leaf(0)])
        with pytest.raises(MerkleError):
            tree.update(1, leaf(9))
        with pytest.raises(MerkleError):
            tree.update(-1, leaf(9))

    def test_update_then_proofs_still_valid(self):
        tree = MerkleTree(leaf(i) for i in range(10))
        tree.update(3, leaf(42))
        for i in range(10):
            tree.prove(i).verify(tree.root)


class TestProve:
    def test_proofs_verify_at_all_sizes(self):
        for n in (1, 2, 3, 5, 8, 17):
            tree = MerkleTree(leaf(i) for i in range(n))
            for i in range(n):
                proof = tree.prove(i)
                assert proof.leaf == leaf(i)
                proof.verify(tree.root)

    def test_proof_fails_against_wrong_root(self):
        tree = MerkleTree(leaf(i) for i in range(4))
        proof = tree.prove(2)
        other = MerkleTree(leaf(i) for i in range(5))
        with pytest.raises(MerkleInclusionError):
            proof.verify(other.root)

    def test_prove_out_of_range(self):
        tree = MerkleTree([leaf(0)])
        with pytest.raises(MerkleError):
            tree.prove(1)


class TestProveVacant:
    def test_vacant_proof_verifies_against_current_root(self):
        tree = MerkleTree(leaf(i) for i in range(5))
        proof = tree.prove_vacant(5)
        assert proof.computed_root() == tree.root

    def test_vacant_then_fill_matches_update_path(self):
        tree = MerkleTree(leaf(i) for i in range(5))
        proof = tree.prove_vacant(5)
        tree.append(leaf(5))
        # Recomputing the path with the new leaf over the same siblings
        # must land on the post-append root.
        from repro.merkle.proof import InclusionProof
        recomputed = InclusionProof(
            leaf_index=5, leaf=leaf(5), siblings=proof.siblings,
            tree_size=6).computed_root()
        assert recomputed == tree.root

    def test_only_append_slot_provable(self):
        tree = MerkleTree(leaf(i) for i in range(5))
        with pytest.raises(MerkleError):
            tree.prove_vacant(4)
        with pytest.raises(MerkleError):
            tree.prove_vacant(6)

    def test_full_tree_requires_growth(self):
        tree = MerkleTree(leaf(i) for i in range(4))  # capacity 4
        with pytest.raises(MerkleError):
            tree.prove_vacant(4)

    def test_empty_tree_vacant_slot(self):
        tree = MerkleTree()
        proof = tree.prove_vacant(0)
        assert proof.computed_root() == tree.root


class TestEmptyRoots:
    def test_chain_rule(self):
        h = default_hasher()
        for height in range(5):
            assert EMPTY_ROOTS[height + 1] == \
                h.node(EMPTY_ROOTS[height], EMPTY_ROOTS[height])

    def test_empty_subtree_matches_built_tree(self):
        # A tree with 4 empty leaves has root EMPTY_ROOTS[2].
        tree = MerkleTree([EMPTY_ROOTS[0]] * 4)
        assert tree.root == EMPTY_ROOTS[2]
