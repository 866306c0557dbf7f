"""Content-keyed memo cache for Merkle subtree digests.

The host's CLog tree is updated in place and copied structurally, so
it never re-hashes a leaf it committed.  The *guests* do: the query,
partition and rebuild guests build the tree from the entry frames on
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
"""

from __future__ import annotations

from collections import OrderedDict

from ..hashing import TAG_LEAF, TAG_NODE, Digest, tagged_hash


class DigestMemo:
    """Bounded LRU map from content bytes to :class:`Digest`."""

    __slots__ = ("_entries", "_capacity", "hits", "misses")

    def __init__(self, capacity: int = 1 << 18) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._entries: OrderedDict[bytes, Digest] = OrderedDict()
        self._capacity = capacity
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        return self._capacity

    def get(self, key: bytes) -> Digest | None:
        digest = self._entries.get(key)
        if digest is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return digest

    def put(self, key: bytes, digest: Digest) -> None:
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            return
        entries[key] = digest
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


# Process-global caches shared by every tree build in this process.
# Node keys are the 64-byte child-digest concatenation; leaf keys are the
# raw payload bytes (CLog wire entries are small and repeat across
# rounds for unchanged flows).
_NODE_MEMO = DigestMemo()
_LEAF_MEMO = DigestMemo()


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
    """Drop all cached digests (tests and memory-pressure escapes)."""
    _NODE_MEMO.clear()
    _LEAF_MEMO.clear()


def memo_stats() -> dict[str, dict[str, int]]:
    """Hit/miss counters for observability dashboards and tests."""
    return {"node": _NODE_MEMO.stats(), "leaf": _LEAF_MEMO.stats()}
