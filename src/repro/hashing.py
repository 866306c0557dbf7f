"""Domain-separated hashing primitives.

Everything in the system that is hashed — raw-log batches, Merkle nodes,
zkVM trace rows, receipt claims — goes through a *tagged* SHA-256 so that
digests from different domains can never collide or be replayed across
contexts.  The scheme follows the BIP-340 style construction::

    tagged_hash(tag, msg) = SHA256(SHA256(tag) || SHA256(tag) || msg)

:class:`Digest` is a thin immutable wrapper over the 32 raw bytes with a
hex ``str()`` form, used pervasively instead of bare ``bytes`` so that type
confusion between digests and payloads is impossible.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Iterable

DIGEST_SIZE = 32

#: The runtime type of a ``hashlib.sha256()`` object (``hashlib._Hash``
#: exists only in the type stubs).
_Hash = type(hashlib.sha256())

# Canonical domain tags used across the library.  Centralising them here
# makes accidental reuse visible in review.
TAG_LEAF = "repro/merkle/leaf"
TAG_NODE = "repro/merkle/node"
TAG_EMPTY = "repro/merkle/empty"
TAG_RLOG = "repro/commit/rlog"
TAG_CLOG = "repro/clog/entry"
TAG_COMMITMENT = "repro/commit/window"
TAG_JOURNAL = "repro/zkvm/journal"
TAG_IMAGE_ID = "repro/zkvm/image"
TAG_INPUT = "repro/zkvm/input"
TAG_CLAIM = "repro/zkvm/claim"
TAG_SEAL = "repro/zkvm/seal"
TAG_SEGMENT = "repro/zkvm/segment"
TAG_TRACE = "repro/zkvm/trace"
TAG_TRANSCRIPT = "repro/zkvm/transcript"
TAG_ASSUMPTION = "repro/zkvm/assumption"
TAG_QUERY = "repro/query/text"
TAG_CHAIN = "repro/core/chain"
TAG_ENGINE_OPTS = "repro/engine/opts"
TAG_ENGINE_KEY = "repro/engine/cache-key"
TAG_QSERVE_KEY = "repro/qserve/result-key"
# The digest envelope on persistent cache entries (query results and
# engine receipts); the value predates the shared helper, so sealed
# entries already in a store stay readable.
TAG_SEALED_BLOB = "repro/qserve/result-blob"


class Digest:
    """An immutable 32-byte SHA-256 digest."""

    __slots__ = ("_raw",)

    def __init__(self, raw: bytes) -> None:
        if not isinstance(raw, (bytes, bytearray)):
            raise TypeError(f"Digest expects bytes, got {type(raw).__name__}")
        if len(raw) != DIGEST_SIZE:
            raise ValueError(
                f"Digest must be {DIGEST_SIZE} bytes, got {len(raw)}"
            )
        object.__setattr__(self, "_raw", bytes(raw))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Digest is immutable")

    @classmethod
    def from_hex(cls, text: str) -> "Digest":
        return cls(bytes.fromhex(text))

    @classmethod
    def zero(cls) -> "Digest":
        return _ZERO_DIGEST

    @property
    def raw(self) -> bytes:
        return self._raw

    def hex(self) -> str:
        return self._raw.hex()

    def short(self) -> str:
        """First 8 hex chars — handy for logs and test messages."""
        return self._raw[:4].hex()

    def __bytes__(self) -> bytes:
        return self._raw

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Digest):
            return self._raw == other._raw
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._raw)

    def __repr__(self) -> str:
        return f"Digest({self.hex()})"

    def __str__(self) -> str:
        return self.hex()


_ZERO_DIGEST = Digest(b"\x00" * DIGEST_SIZE)

_new_object = object.__new__
_set_raw = Digest._raw.__set__  # the slot, past the immutability guard


def _digest_of(raw: bytes) -> Digest:
    """A :class:`Digest` over ``raw`` without ``__init__``'s checks.

    Only for ``bytes`` already known to be ``DIGEST_SIZE`` long:
    ``hashlib`` output and the serialization decoder's 32-byte slice.
    """
    digest = _new_object(Digest)
    _set_raw(digest, raw)
    return digest


@lru_cache(maxsize=None)
def _tag_template(tag: str) -> _Hash:
    # Midstate template: the 64-byte tag prefix is absorbed exactly once
    # per tag and every tagged hash starts from a ``copy()`` of it,
    # skipping one SHA-256 compression per call.  This is the host-side
    # analogue of the accelerator's midstate caching that
    # ``cycles.sha256_cycles(midstate=True)`` already models.
    tag_digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return hashlib.sha256(tag_digest + tag_digest)


def _tag_hasher(tag: str) -> _Hash:
    return _tag_template(tag).copy()


def tagged_hash(tag: str, *parts: bytes) -> Digest:
    """Hash ``parts`` under domain ``tag`` (BIP-340 style)."""
    h = _tag_hasher(tag)
    for part in parts:
        h.update(part)
    return _digest_of(h.digest())


def sha256(data: bytes) -> Digest:
    """Plain (untagged) SHA-256; only for interop points, prefer tags."""
    return _digest_of(hashlib.sha256(data).digest())


def hash_many(tag: str, items: Iterable[bytes]) -> Digest:
    """Hash a sequence of byte strings with length framing.

    Unlike ``tagged_hash`` (raw concatenation, for fixed-width inputs) this
    prefixes each item with its 8-byte big-endian length so that the item
    boundaries are unambiguous for variable-length inputs.
    """
    h = _tag_hasher(tag)
    for item in items:
        h.update(len(item).to_bytes(8, "big"))
        h.update(item)
    return _digest_of(h.digest())


def seal_blob(payload: bytes) -> bytes:
    """Prefix ``payload`` with its content digest.

    The envelope the persistent cache tiers store under: the wire codec
    tolerates some single-byte mutations (e.g. in a value field) that
    decode cleanly into a *different* object; sealing turns every such
    mutation into a miss instead of a silently altered hit.
    """
    return tagged_hash(TAG_SEALED_BLOB, payload).raw + payload


def open_blob(blob: bytes) -> bytes | None:
    """The payload of a :func:`seal_blob` envelope, or ``None`` if the
    blob is truncated or any byte of it was altered."""
    if len(blob) <= DIGEST_SIZE:
        return None
    digest, payload = blob[:DIGEST_SIZE], blob[DIGEST_SIZE:]
    if tagged_hash(TAG_SEALED_BLOB, payload).raw != digest:
        return None
    return payload
