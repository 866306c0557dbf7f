"""Router-side committer: buffer, store, hash, publish.

One :class:`RouterCommitter` runs per router (in the simulator, inside
that router's thread).  Records are buffered into the current integrity
window; when the clock crosses a window boundary (or on ``flush``), the
window's canonical bytes are written to the shared store and their
digest is published on the bulletin board.

The committer hashes *what it wrote* — the canonical record bytes — so
any later modification of the store (or of the records themselves) makes
the recomputed digest diverge from the published one.
"""

from __future__ import annotations

import logging

from ..commitments.bulletin import BulletinBoard, Commitment
from ..commitments.window import WindowConfig, window_digest
from ..errors import SimulationError
from ..netflow.clock import Clock
from ..netflow.records import NetFlowRecord
from ..storage.backend import LogStore

logger = logging.getLogger(__name__)


class RouterCommitter:
    """Per-router periodic hash commitment pipeline (§3)."""

    def __init__(self, router_id: str, store: LogStore,
                 bulletin: BulletinBoard, clock: Clock,
                 window: WindowConfig | None = None) -> None:
        self.router_id = router_id
        self.store = store
        self.bulletin = bulletin
        self.clock = clock
        self.window = window or WindowConfig()
        self._current_window: int | None = None
        self._buffer: list[NetFlowRecord] = []

    @property
    def pending_count(self) -> int:
        return len(self._buffer)

    def add_record(self, record: NetFlowRecord) -> None:
        """Buffer one record into the current window.

        Rolls the window over first if the clock has crossed a boundary,
        so records never land in an already-committed window.
        """
        now_window = self.window.index_for(self.clock.now_ms())
        if self._current_window is None:
            self._current_window = now_window
        elif now_window != self._current_window:
            self._commit_buffer()
            self._current_window = now_window
        self._buffer.append(record)

    def maybe_commit(self) -> Commitment | None:
        """Commit the buffered window if the clock has moved past it."""
        if self._current_window is None:
            return None
        if self.window.index_for(self.clock.now_ms()) == \
                self._current_window:
            return None
        return self._commit_buffer()

    def flush(self) -> Commitment | None:
        """Force-commit whatever is buffered (end of a run)."""
        if self._current_window is None:
            return None
        return self._commit_buffer()

    # -- internals ---------------------------------------------------------------

    def _commit_buffer(self) -> Commitment | None:
        window_index = self._current_window
        if window_index is None:
            raise SimulationError("no window open")
        records, self._buffer = self._buffer, []
        self._current_window = None
        if not records:
            return None
        self.store.append_records(self.router_id, window_index, records)
        blobs = [record.to_bytes() for record in records]
        commitment = Commitment(
            router_id=self.router_id,
            window_index=window_index,
            digest=window_digest(blobs),
            record_count=len(blobs),
            published_at_ms=self.clock.now_ms(),
        )
        self.bulletin.publish(commitment)
        logger.debug("router %s committed window %d: %d records, %s…",
                     self.router_id, window_index, len(blobs),
                     commitment.digest.short())
        return commitment
