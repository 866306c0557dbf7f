"""Append-only public bulletin board of published commitments.

The board models the public channel routers publish their window hashes
to (a transparency log, a regulator's endpoint, a blockchain — the paper
leaves the medium open).  It is append-only: once published, a
commitment for a (router, window) pair can never be replaced, which is
exactly what makes post-hoc log rewriting detectable (Figure 3).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterator

from ..errors import IntegrityError, MissingCommitment
from ..hashing import Digest


@dataclass(frozen=True)
class Commitment:
    """One published window commitment."""

    router_id: str
    window_index: int
    digest: Digest
    record_count: int
    published_at_ms: int

    def to_wire(self) -> dict[str, Any]:
        return {
            "router_id": self.router_id,
            "window_index": self.window_index,
            "digest": self.digest,
            "record_count": self.record_count,
            "published_at_ms": self.published_at_ms,
        }

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "Commitment":
        return cls(**wire)


class BulletinBoard:
    """Thread-safe, append-only commitment registry."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, int], Commitment] = {}
        self._order: list[Commitment] = []
        self._lock = threading.Lock()

    def publish(self, commitment: Commitment) -> None:
        """Publish; re-publishing a different digest for the same
        (router, window) is rejected — the board is append-only."""
        key = (commitment.router_id, commitment.window_index)
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                if existing.digest == commitment.digest:
                    return  # idempotent re-publish
                raise IntegrityError(
                    f"commitment for {key} already published with a "
                    f"different digest — equivocation attempt"
                )
            self._entries[key] = commitment
            self._order.append(commitment)

    def get(self, router_id: str, window_index: int) -> Commitment:
        with self._lock:
            commitment = self._entries.get((router_id, window_index))
        if commitment is None:
            raise MissingCommitment(
                f"no commitment published for router {router_id!r} "
                f"window {window_index}"
            )
        return commitment

    def for_window(self, window_index: int) -> dict[str, Commitment]:
        """router_id → commitment, for every router that committed."""
        with self._lock:
            return {c.router_id: c for c in self._entries.values()
                    if c.window_index == window_index}

    def windows(self) -> list[int]:
        with self._lock:
            return sorted({w for (_r, w) in self._entries})

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __iter__(self) -> Iterator[Commitment]:
        with self._lock:
            return iter(list(self._order))
