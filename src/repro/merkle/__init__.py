"""Merkle-tree authenticated data structures (paper §4.1, Figure 2).

The aggregation phase commits the CLog dataset under a Merkle root; queries
and subsequent aggregation rounds authenticate individual entries with
inclusion proofs.  Three building blocks live here:

* :class:`~repro.merkle.tree.MerkleTree` — an updatable binary hash tree
  over leaf digests, padded to a power-of-two capacity.
* :class:`~repro.merkle.proof.InclusionProof` /
  :class:`~repro.merkle.proof.MultiProof` — verifiable (multi-)inclusion
  proofs.
* :class:`~repro.merkle.maptree.MerkleMap` — a keyed authenticated map on
  top of the tree, used for CLogs keyed by flow ID.
"""

from .hasher import MerkleHasher, TaggedMerkleHasher, default_hasher
from .maptree import MerkleMap
from .memo import DigestMemo, clear_memos, memo_stats
from .proof import InclusionProof, MultiProof
from .tree import EMPTY_ROOTS, MerkleTree

__all__ = [
    "DigestMemo",
    "EMPTY_ROOTS",
    "InclusionProof",
    "MerkleHasher",
    "MerkleMap",
    "MerkleTree",
    "MultiProof",
    "TaggedMerkleHasher",
    "clear_memos",
    "default_hasher",
    "memo_stats",
]
