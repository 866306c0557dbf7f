"""Content-keyed memo cache for Merkle subtree digests.

The host's CLog tree is updated in place and copied structurally, so
it never re-hashes a leaf it committed.  The *guests* do: the query,
query-partition and merge guests build their trees from frames on
every execution, and between two executions most subtrees are unchanged
— only the slots touched by new records move.  A tagged Merkle digest
is a pure function of its content (``leaf(data)``, ``node(l, r)``), so a
process-global cache keyed by that content lets those from-scratch
builds (:mod:`repro.merkle.tree` under the metered guest hasher) skip
the SHA-256 work for every subtree an earlier round or query hashed.

Correctness is structural: a cache hit returns the digest of exactly the
bytes that would have been hashed, so roots, proofs, and journals are
bit-identical cold, warm, or against plain ``tagged_hash`` (the oracle
in ``tests/reference/``, which the property suite compares it with).
The *metered* guest hasher still charges the cycle meter on every call
— the cache saves host CPU, never modeled guest cycles.  There is no
switch: this is the one way a Merkle digest is computed, on the host and
in the guests.

The cache is a bounded LRU so long-running daemons (serve/worker) cannot
grow it without limit; eviction only costs a re-hash later.

One level up, a guest that builds a whole tree from leaves another
execution already built from (every cold query at one committed root
rebuilds the same tree) need not walk the levels node by node at all:
:data:`BUILT_LEVELS` keeps the interior levels of the last few leaf
sequences a metered hasher built, keyed by that exact digest sequence.
:class:`~repro.merkle.tree.MerkleTree` replays them and charges the
same node count in one meter call, so cycles and compressions match
the walk.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Any, Generic, TypeVar

from ..hashing import TAG_LEAF, TAG_NODE, Digest, tagged_hash

V = TypeVar("V")


class DigestMemo(Generic[V]):
    """Bounded LRU map from content bytes to a value that is a pure
    function of them (a :class:`Digest` here; a decoded CLog entry in
    the query guests)."""

    __slots__ = ("_entries", "_capacity", "hits", "misses", "__weakref__")

    def __init__(self, capacity: int = 1 << 18) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._entries: OrderedDict[bytes, V] = OrderedDict()
        self._capacity = capacity
        self.hits = 0
        self.misses = 0
        _MEMOS.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        return self._capacity

    def get(self, key: bytes) -> V | None:
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        try:
            self._entries.move_to_end(key)
        except KeyError:  # another thread evicted it since the lookup
            pass
        self.hits += 1
        return value

    def put(self, key: bytes, value: V) -> None:
        entries = self._entries
        if key in entries:
            try:
                entries.move_to_end(key)
            except KeyError:  # evicted by another thread meanwhile
                pass
            return
        entries[key] = value
        if len(entries) > self._capacity:
            entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def stats(self) -> dict[str, int]:
        return {
            "size": len(self._entries),
            "capacity": self._capacity,
            "hits": self.hits,
            "misses": self.misses,
        }


# Every memo constructed in this process, held weakly: the registry
# :func:`clear_memos` empties, wherever the memo lives (the node, leaf
# and level memos here, ``zkvm.guest.DECODED_FRAMES``,
# ``core.guest_programs.ENTRY_VIEWS`` and ``core.query_proof.ENTRY_FRAMES``).
_MEMOS: weakref.WeakSet[DigestMemo[Any]] = weakref.WeakSet()

# Process-global caches shared by every tree build in this process.
# Node keys are the 64-byte child-digest concatenation; leaf keys are the
# raw payload bytes (CLog wire entries are small and repeat across
# rounds for unchanged flows).
_NODE_MEMO: DigestMemo[Digest] = DigestMemo()
_LEAF_MEMO: DigestMemo[Digest] = DigestMemo()

#: Leaf sequences whose built levels one process keeps.  An entry costs
#: ~50 bytes per leaf (the 32-byte key slice plus the interior level
#: lists), so well under 1 MiB for four trees of a few thousand leaves;
#: a guest that builds no tree twice only pays the key join per build.
LEVEL_MEMO_CAPACITY = 4

# Concatenated leaf digests -> (interior levels bottom-up, node count).
BUILT_LEVELS: DigestMemo[tuple[tuple[tuple[Digest, ...], ...], int]] = \
    DigestMemo(LEVEL_MEMO_CAPACITY)


def node_digest(left: Digest, right: Digest) -> Digest:
    """``tagged_hash(TAG_NODE, left || right)`` with cross-round memo."""
    key = left.raw + right.raw
    digest = _NODE_MEMO.get(key)
    if digest is None:
        digest = tagged_hash(TAG_NODE, key)
        _NODE_MEMO.put(key, digest)
    return digest


def leaf_digest(data: bytes) -> Digest:
    """``tagged_hash(TAG_LEAF, data)`` with cross-round memo."""
    key = bytes(data)
    digest = _LEAF_MEMO.get(key)
    if digest is None:
        digest = tagged_hash(TAG_LEAF, key)
        _LEAF_MEMO.put(key, digest)
    return digest


def clear_memos() -> None:
    """Empty every :class:`DigestMemo` in the process and zero its
    counters (tests and memory-pressure escapes)."""
    for memo in list(_MEMOS):
        memo.clear()


def memo_stats() -> dict[str, dict[str, int]]:
    """Hit/miss counters for observability dashboards and tests."""
    return {"node": _NODE_MEMO.stats(), "leaf": _LEAF_MEMO.stats()}
