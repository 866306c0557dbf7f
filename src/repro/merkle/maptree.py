"""Keyed authenticated map on top of :class:`~repro.merkle.tree.MerkleTree`.

The paper's CLog is keyed by flow ID (Algorithm 1, ``FlowID(r_new)``):
existing keys are updated in place (after a Merkle integrity check of the
old entry) and new keys are appended.  :class:`MerkleMap` provides exactly
that interface: a stable key → leaf-slot assignment plus the underlying
tree's proofs, so the per-update cost stays at ``depth`` hashes.
"""

from __future__ import annotations

import copy
from typing import Callable, Iterator, Mapping

from ..errors import MerkleError
from ..hashing import Digest
from .hasher import MerkleHasher, default_hasher
from .proof import InclusionProof
from .tree import MerkleTree


class MerkleMap:
    """An authenticated ``key -> payload`` map with stable slot indices.

    Keys are arbitrary hashables rendered to bytes by ``key_bytes`` (needed
    only when the key is not already ``bytes``).  Leaf payloads are raw
    bytes; the leaf digest is ``hasher.leaf(key_bytes || payload)`` so a
    proof binds both the key and the value.
    """

    def __init__(self, hasher: MerkleHasher | None = None,
                 key_bytes: Callable[[object], bytes] | None = None) -> None:
        self._hasher = hasher or default_hasher()
        self._key_bytes = key_bytes or _default_key_bytes
        self._tree = MerkleTree(hasher=self._hasher)
        self._index: dict[object, int] = {}
        # Per slot: the key's bytes and the payload, exactly as hashed
        # into the leaf (slots are append-only, so ``_index`` iterates
        # in slot order too).
        self._slot_keys: list[bytes] = []
        self._payloads: list[bytes] = []

    # -- mapping interface ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: object) -> bool:
        return key in self._index

    def __iter__(self) -> Iterator[object]:
        return iter(self._index)

    def keys(self) -> Iterator[object]:
        return iter(self._index)

    def items(self) -> Iterator[tuple[object, bytes]]:
        return zip(self._index, self._payloads)

    def slot_items(self, start: int = 0, stop: int | None = None
                   ) -> Iterator[tuple[bytes, bytes]]:
        """``(key bytes, payload)`` of slots ``[start, stop)``, in order."""
        return zip(self._slot_keys[start:stop], self._payloads[start:stop])

    def get(self, key: object) -> bytes | None:
        slot = self._index.get(key)
        return None if slot is None else self._payloads[slot]

    def payload(self, key: object) -> bytes:
        return self._payloads[self.index_of(key)]

    def index_of(self, key: object) -> int:
        try:
            return self._index[key]
        except KeyError:
            raise MerkleError(f"unknown key {key!r}") from None

    # -- mutation ---------------------------------------------------------------

    def set(self, key: object, payload: bytes) -> int:
        """Insert or update ``key``; returns the leaf slot index."""
        slot = self._index.get(key)
        if slot is None:
            key_bytes = self._key_bytes(key)
            slot = self._tree.append(self._hasher.leaf(key_bytes + payload))
            self._index[key] = slot
            self._slot_keys.append(key_bytes)
            self._payloads.append(payload)
        else:
            self._tree.update(
                slot, self._hasher.leaf(self._slot_keys[slot] + payload))
            self._payloads[slot] = payload
        return slot

    def update_many(self, entries: Mapping[object, bytes]) -> None:
        """Insert or update every key of ``entries`` (a new key takes
        the next append slot, in ``entries`` order), hashing one leaf
        per key and each touched tree node once."""
        leaves: dict[int, Digest] = {}
        for key, payload in entries.items():
            slot = self._index.get(key)
            if slot is None:
                slot = len(self._slot_keys)
                self._index[key] = slot
                self._slot_keys.append(self._key_bytes(key))
                self._payloads.append(payload)
            else:
                self._payloads[slot] = payload
            leaves[slot] = self._hasher.leaf(self._slot_keys[slot] + payload)
        self._tree.set_leaves(leaves)

    def copy(self) -> "MerkleMap":
        """An independent map with the same slots, payloads and tree:
        structure is copied, nothing is re-encoded or re-hashed."""
        other = copy.copy(self)
        other._tree = self._tree.copy()
        other._index = dict(self._index)
        other._slot_keys = list(self._slot_keys)
        other._payloads = list(self._payloads)
        return other

    # -- authentication -----------------------------------------------------------

    @property
    def root(self) -> Digest:
        return self._tree.root

    @property
    def depth(self) -> int:
        return self._tree.depth

    @property
    def tree(self) -> MerkleTree:
        return self._tree

    def prove(self, key: object) -> InclusionProof:
        return self._tree.prove(self.index_of(key))

    def leaf_digest(self, key: object) -> Digest:
        return self._tree.leaf(self.index_of(key))

    def expected_leaf(self, key: object, payload: bytes) -> Digest:
        """What the leaf digest *should* be for (key, payload)."""
        return self._hasher.leaf(self._key_bytes(key) + payload)


def _default_key_bytes(key: object) -> bytes:
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, int):
        return key.to_bytes((key.bit_length() + 8) // 8 or 1, "big",
                            signed=True)
    to_bytes = getattr(key, "to_bytes_key", None)
    if callable(to_bytes):
        return to_bytes()
    raise MerkleError(
        f"cannot derive key bytes for {type(key).__name__}; "
        "pass key_bytes= or implement to_bytes_key()"
    )
