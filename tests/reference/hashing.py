"""Tagged hashing straight from its definition,
``SHA256(SHA256(tag) || SHA256(tag) || msg)``: the tag prefix is
re-derived and re-absorbed on every call, no midstate template."""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.hashing import TAG_EMPTY, TAG_LEAF, TAG_NODE, Digest


def tag_hasher(tag: str) -> "hashlib._Hash":
    tag_digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return hashlib.sha256(tag_digest + tag_digest)


def tagged_hash(tag: str, *parts: bytes) -> Digest:
    h = tag_hasher(tag)
    for part in parts:
        h.update(part)
    return Digest(h.digest())


def hash_many(tag: str, items: Iterable[bytes]) -> Digest:
    h = tag_hasher(tag)
    for item in items:
        h.update(len(item).to_bytes(8, "big"))
        h.update(item)
    return Digest(h.digest())


class PlainMerkleHasher:
    """Host-side Merkle hash strategy with no memo behind it."""

    algorithm = "tagged-sha256"

    def leaf(self, data: bytes) -> Digest:
        return tagged_hash(TAG_LEAF, data)

    def node(self, left: Digest, right: Digest) -> Digest:
        return tagged_hash(TAG_NODE, left.raw, right.raw)

    def empty(self) -> Digest:
        return tagged_hash(TAG_EMPTY, b"")
