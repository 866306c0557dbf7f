"""Guest I/O and metered Merkle hashing as loops over the per-value
calls (``env.read`` / ``env.commit`` / ``env.tagged_hash``), which stay
public: the batched forms in ``repro.zkvm.guest`` must yield the same
values, journal bytes and meter state.  Also the query guests' entry
scan as it was before the entry-view memo: every payload decoded and
lowered to a fresh view on every query."""

from __future__ import annotations

from typing import Any

from repro.core.clog import entry_view_from_wire
from repro.core.guest_programs import QUERY_VIEW_CYCLES, read_entries
from repro.hashing import TAG_EMPTY, TAG_LEAF, TAG_NODE, Digest, tagged_hash
from repro.zkvm.guest import GuestEnv


def read_batch(env: GuestEnv, count: int) -> list[Any]:
    return [env.read() for _ in range(count)]


def commit_many(env: GuestEnv, values: list[Any]) -> None:
    for value in values:
        env.commit(value)


def read_entry_views(env: GuestEnv, hasher: Any, count: int) -> tuple[list[Digest], list[dict]]:
    """``_read_entry_views`` with no memo behind it."""
    leaves, wires = read_entries(env, hasher, count)
    env.tick(len(wires) * QUERY_VIEW_CYCLES, "decode")
    return leaves, [entry_view_from_wire(wire) for wire in wires]


class MeteredMerkleHasher:
    """Un-memoized: every leaf and node is a metered ``env.tagged_hash``."""

    algorithm = "tagged-sha256"

    def __init__(self, env: GuestEnv, category: str = "merkle") -> None:
        self._env = env
        self._category = category

    def leaf(self, data: bytes) -> Digest:
        return self._env.tagged_hash(TAG_LEAF, data, category=self._category)

    def node(self, left: Digest, right: Digest) -> Digest:
        return self._env.tagged_hash(TAG_NODE, left.raw, right.raw, category=self._category)

    def empty(self) -> Digest:
        return tagged_hash(TAG_EMPTY, b"")
