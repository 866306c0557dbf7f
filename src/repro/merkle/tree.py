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
from typing import Iterable, Mapping, Sequence

from ..errors import MerkleError
from ..hashing import Digest
from . import memo
from .hasher import MerkleHasher, default_hasher
from .proof import InclusionProof, MultiProof

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

    def set_leaves(self, leaves: Mapping[int, Digest]) -> None:
        """Write several leaves at once, then rehash each node above them
        once.

        Indices are occupied slots or appends past the end that leave
        no gap.  Where :meth:`update` and :meth:`append` pay ``depth``
        hashes per leaf, a batch pays one per distinct touched node; the
        root is the same.
        """
        level = self._levels[0]
        dirty = sorted(leaves)
        appended = sum(1 for index in dirty if index >= len(level))
        if dirty and (dirty[0] < 0 or dirty[-1] >= len(level) + appended):
            raise MerkleError(
                f"leaf indices {dirty} are not slots or gapless appends "
                f"(size {len(level)})")
        for index in dirty:
            if index < len(level):
                level[index] = leaves[index]
            else:
                level.append(leaves[index])
        depth = max(self.depth, max(len(level) - 1, 0).bit_length())
        while len(self._levels) <= depth:
            self._levels.append([])
        for height in range(depth):
            below, above = self._levels[height], self._levels[height + 1]
            parents = sorted({pos >> 1 for pos in dirty})
            for parent in parents:
                pair = parent << 1
                right = below[pair + 1] if pair + 1 < len(below) \
                    else self._empty[height]
                digest = self._hasher.node(below[pair], right)
                if parent < len(above):
                    above[parent] = digest
                else:
                    above.append(digest)
            dirty = parents

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

    def prove_subtree(self, level: int, pos: int) -> tuple[Digest, ...]:
        """The sibling path from the node at ``(level, pos)`` to the root.

        The node covers the aligned leaf block
        ``[pos << level, (pos + 1) << level)``.  The block need not be
        fully occupied — only non-empty — because siblings follow the
        same right-padding rule as leaf proofs: a verifier that rebuilds
        the block's node from its occupied leaves (padding with
        empty-subtree roots) and folds it up these siblings reaches
        exactly this tree's root.  Partitioned query proving hands one
        such path to each slot-range partition's guest.
        """
        if not 0 <= level <= self.depth:
            raise MerkleError(f"level {level} out of range")
        if not 0 <= pos < len(self._levels[level]):
            raise MerkleError(
                f"subtree ({level}, {pos}) holds no occupied leaves")
        return self._siblings(level, pos)

    def union_siblings(self, indices: Sequence[int]) -> tuple[Digest, ...]:
        """The siblings of the union of ``indices``' paths, each once:
        bottom-up, left to right within a level (a multiproof).

        ``indices`` ascend, distinct, below the padded capacity; one at
        or past :attr:`size` is a vacant slot.  A sibling past the
        occupied nodes is the empty subtree of its height, a constant
        the verifier knows, and is left out.  Nothing is hashed.
        """
        siblings: list[Digest] = []
        level = list(indices)
        for height in range(self.depth):
            nodes = self._levels[height]
            parents: list[int] = []
            i = 0
            while i < len(level):
                pos = level[i]
                if not pos & 1 and i + 1 < len(level) \
                        and level[i + 1] == pos + 1:
                    i += 2
                else:
                    if pos ^ 1 < len(nodes):
                        siblings.append(nodes[pos ^ 1])
                    i += 1
                parents.append(pos >> 1)
            level = parents
        return tuple(siblings)

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
        """Hash every level above the leaves (construction only).

        A hasher with ``charge_nodes`` (the guests' metered one) replays
        the levels of a leaf sequence built before from
        :data:`memo.BUILT_LEVELS` and pays for them in one call with
        the node count the walk would have charged.
        """
        charge_nodes = getattr(self._hasher, "charge_nodes", None)
        if charge_nodes is None or self.size < 2:
            self._hash_levels()
            return
        key = b"".join([leaf.raw for leaf in self._levels[0]])
        known = memo.BUILT_LEVELS.get(key)
        if known is None:
            nodes = self._hash_levels()
            memo.BUILT_LEVELS.put(
                key, (tuple(map(tuple, self._levels[1:])), nodes))
            return
        levels, nodes = known
        charge_nodes(nodes)
        self._levels.extend(list(level) for level in levels)

    def _hash_levels(self) -> int:
        """Hash the levels node by node; returns how many nodes."""
        nodes = 0
        for height in range(max(self.size - 1, 0).bit_length()):
            below = self._levels[height]
            above: list[Digest] = []
            for i in range(0, len(below), 2):
                left = below[i]
                right = below[i + 1] if i + 1 < len(below) \
                    else self._empty[height]
                above.append(self._hasher.node(left, right))
            nodes += len(above)
            self._levels.append(above)
        return nodes

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
