"""Updatable binary Merkle tree over leaf digests.

The tree is padded to a power-of-two capacity with precomputed
empty-subtree digests, so single-leaf updates recompute exactly ``depth``
internal hashes — the access pattern the paper profiles ("the majority of
this overhead stems from Merkle tree updates performed within the zkVM",
§6; ≈35,000 hashes for 3,000 entries at depth 11, §7).

Levels are stored densely: ``_levels[0]`` is the leaf level (digests of
occupied slots only; padding is implicit), ``_levels[depth]`` is the root.
Appending past the padded capacity adds one level over the old root
rather than re-hashing the tree, so an append costs ``depth + 1`` node
hashes at every size.
"""

from __future__ import annotations

import copy
from typing import Iterable, Sequence

from ..errors import MerkleError
from ..hashing import Digest
from .hasher import MerkleHasher, default_hasher
from .proof import InclusionProof, MultiProof, SubtreeProof

_MAX_DEPTH = 48


def _empty_roots(hasher: MerkleHasher) -> list[Digest]:
    """Digest of the all-empty subtree at each height.

    Memoised by the hasher's ``algorithm`` name (not identity), so e.g. a
    cycle-metered guest hasher producing the same digests shares the
    host's precomputed table — empty-subtree roots are compile-time
    constants in a real guest and cost no in-VM hashing.
    """
    key = getattr(hasher, "algorithm", None)
    cache = _EMPTY_CACHE.get(key) if key is not None else None
    if cache is None:
        empty = hasher.empty()
        cache = [empty]
        for _ in range(_MAX_DEPTH):
            empty = hasher.node(empty, empty)
            cache.append(empty)
        if key is not None:
            _EMPTY_CACHE[key] = cache
    return cache


_EMPTY_CACHE: dict[str, list[Digest]] = {}

# Convenience: empty-subtree digests for the default hasher.
EMPTY_ROOTS: list[Digest] = _empty_roots(default_hasher())


class MerkleTree:
    """A power-of-two padded, updatable Merkle tree.

    Parameters
    ----------
    leaves:
        Initial leaf digests (already hashed with ``hasher.leaf``).
    hasher:
        Hash strategy; defaults to host-side tagged SHA-256.  Guests pass
        a cycle-metered hasher so in-VM Merkle work is charged correctly.
    """

    def __init__(self, leaves: Iterable[Digest] = (),
                 hasher: MerkleHasher | None = None) -> None:
        self._hasher = hasher or default_hasher()
        self._empty = _empty_roots(self._hasher)
        self._levels: list[list[Digest]] = [list(leaves)]
        self._build_levels()

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_payloads(cls, payloads: Iterable[bytes],
                      hasher: MerkleHasher | None = None) -> "MerkleTree":
        """Build a tree by leaf-hashing raw payload bytes."""
        h = hasher or default_hasher()
        return cls((h.leaf(p) for p in payloads), hasher=h)

    def copy(self) -> "MerkleTree":
        """An independent tree over the same leaves: every level list is
        copied, nothing is hashed."""
        other = copy.copy(self)
        other._levels = [list(level) for level in self._levels]
        return other

    # -- inspection ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of occupied leaves."""
        return len(self._levels[0])

    @property
    def depth(self) -> int:
        """Height of the padded tree (0 for an empty/singleton tree)."""
        return len(self._levels) - 1

    @property
    def root(self) -> Digest:
        return self._levels[-1][0] if self._levels[-1] else self._empty[0]

    def leaf(self, index: int) -> Digest:
        self._check_index(index)
        return self._levels[0][index]

    def leaves(self) -> Sequence[Digest]:
        return tuple(self._levels[0])

    # -- mutation -----------------------------------------------------------

    def append(self, leaf: Digest) -> int:
        """Append a leaf, growing the padded capacity if needed.

        Returns the index of the new leaf.
        """
        index = self.size
        depth = self.depth
        if index == 1 << depth:
            # Capacity exhausted: one more level over the old root, the
            # same step the aggregation guest's ``grow`` op takes.
            self._levels.append(
                [self._hasher.node(self.root, self._empty[depth])])
        self._levels[0].append(leaf)
        self._update_path(index)
        return index

    def update(self, index: int, leaf: Digest) -> None:
        """Replace the leaf at ``index``, recomputing its path to the root.

        Costs exactly ``depth`` node hashes — the per-entry update cost the
        paper attributes the zkVM overhead to.
        """
        self._check_index(index)
        self._levels[0][index] = leaf
        self._update_path(index)

    def extend(self, leaves: Iterable[Digest]) -> None:
        for leaf in leaves:
            self.append(leaf)

    # -- proofs --------------------------------------------------------------

    def prove(self, index: int) -> InclusionProof:
        """Produce an inclusion proof for the leaf at ``index``."""
        self._check_index(index)
        return InclusionProof(leaf_index=index, leaf=self._levels[0][index],
                              siblings=self._siblings(0, index),
                              tree_size=self.size)

    def prove_vacant(self, index: int) -> InclusionProof:
        """Prove that the *next* slot (``index == size``) is empty.

        Verified inserts need this: the updater shows the target slot
        currently holds the empty-leaf digest, then recomputes the root
        with the new leaf along the same sibling path.  Only the
        append position is provable (that is the only slot an insert may
        legally target), and the padded capacity must accommodate it —
        grow the tree first otherwise (see the aggregation witness).
        """
        if index != self.size:
            raise MerkleError(
                f"vacant proofs only cover the append slot "
                f"{self.size}, not {index}")
        if index >= (1 << self.depth) and index > 0:
            raise MerkleError(
                f"slot {index} exceeds padded capacity {1 << self.depth}; "
                "grow the tree first")
        return InclusionProof(leaf_index=index, leaf=self._empty[0],
                              siblings=self._siblings(0, index),
                              tree_size=index + 1)

    def node_at(self, level: int, pos: int) -> Digest:
        """The subtree root at (level, pos); the subtree must be fully
        occupied (used by consistency proofs over aligned blocks)."""
        if not 0 <= level <= self.depth:
            raise MerkleError(f"level {level} out of range")
        end_leaf = (pos + 1) << level
        if end_leaf > self.size:
            raise MerkleError(
                f"subtree ({level}, {pos}) is not fully occupied")
        return self._levels[level][pos]

    def prove_subtree(self, level: int, pos: int) -> SubtreeProof:
        """Prove the node at ``(level, pos)`` against the root.

        The node covers the aligned leaf block
        ``[pos << level, (pos + 1) << level)``.  Unlike :meth:`node_at`
        the block need not be fully occupied — only non-empty — because
        siblings follow the same right-padding rule as leaf proofs: a
        verifier that rebuilds the block's node from its occupied
        leaves (padding with empty-subtree roots) folds it to exactly
        this tree's root.  Partitioned query proving uses one such
        proof per slot-range partition.
        """
        if not 0 <= level <= self.depth:
            raise MerkleError(f"level {level} out of range")
        if not 0 <= pos < len(self._levels[level]):
            raise MerkleError(
                f"subtree ({level}, {pos}) holds no occupied leaves")
        return SubtreeProof(level=level, index=pos,
                            siblings=self._siblings(level, pos),
                            tree_size=self.size)

    def prove_consistency(self, old_size: int):
        """Prove this tree extends its own earlier ``old_size``-leaf
        checkpoint (see :mod:`repro.merkle.consistency`)."""
        from .consistency import prove_consistency
        return prove_consistency(self, old_size)

    def prove_many(self, indices: Sequence[int]) -> MultiProof:
        """Produce a batch proof for several leaves (deduplicated paths)."""
        for index in indices:
            self._check_index(index)
        proofs = tuple(self.prove(i) for i in sorted(set(indices)))
        return MultiProof(proofs=proofs, root=self.root)

    # -- internals -------------------------------------------------------------

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise MerkleError(
                f"leaf index {index} out of range (size {self.size})"
            )

    def _siblings(self, level: int, pos: int) -> tuple[Digest, ...]:
        """The path from node ``(level, pos)`` to the root; a sibling
        past the occupied nodes is the empty subtree of its height."""
        siblings: list[Digest] = []
        for height in range(level, self.depth):
            nodes = self._levels[height]
            siblings.append(nodes[pos ^ 1] if pos ^ 1 < len(nodes)
                            else self._empty[height])
            pos >>= 1
        return tuple(siblings)

    def _build_levels(self) -> None:
        """Hash every level above the leaves (construction only)."""
        for height in range(max(self.size - 1, 0).bit_length()):
            below = self._levels[height]
            above: list[Digest] = []
            for i in range(0, len(below), 2):
                left = below[i]
                right = below[i + 1] if i + 1 < len(below) \
                    else self._empty[height]
                above.append(self._hasher.node(left, right))
            self._levels.append(above)

    def _update_path(self, index: int) -> None:
        pos = index
        for height in range(self.depth):
            level = self._levels[height]
            above = self._levels[height + 1]
            pair = pos & ~1
            left = level[pair]
            right = level[pair + 1] if pair + 1 < len(level) \
                else self._empty[height]
            parent = self._hasher.node(left, right)
            parent_pos = pos >> 1
            if parent_pos < len(above):
                above[parent_pos] = parent
            else:
                above.append(parent)
            pos = parent_pos
