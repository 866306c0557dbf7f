"""Unit tests for windows, the bulletin board and the committer."""

import pytest

from repro.commitments import (
    BulletinBoard,
    Commitment,
    RouterCommitter,
    WindowConfig,
    window_digest,
)
from repro.errors import (
    ConfigurationError,
    IntegrityError,
    MissingCommitment,
)
from repro.hashing import sha256
from repro.netflow.clock import SimClock
from repro.storage import MemoryLogStore

from ..conftest import make_record


class TestWindowConfig:
    def test_index_for(self):
        window = WindowConfig(interval_ms=5_000)
        assert window.index_for(0) == 0
        assert window.index_for(4_999) == 0
        assert window.index_for(5_000) == 1
        assert window.index_for(12_345) == 2

    def test_bounds(self):
        window = WindowConfig(interval_ms=5_000)
        assert window.start_of(2) == 10_000
        assert window.end_of(2) == 15_000

    def test_invalid_interval(self):
        with pytest.raises(ConfigurationError):
            WindowConfig(interval_ms=0)

    def test_window_digest_order_sensitive(self):
        assert window_digest([b"a", b"b"]) != window_digest([b"b", b"a"])


class TestBulletinBoard:
    def make(self, router="r1", window=0, digest=None):
        return Commitment(router_id=router, window_index=window,
                          digest=digest or sha256(b"w"),
                          record_count=3, published_at_ms=5_000)

    def test_publish_and_get(self):
        board = BulletinBoard()
        commitment = self.make()
        board.publish(commitment)
        assert board.get("r1", 0) == commitment
        assert len(board) == 1

    def test_missing_raises(self):
        with pytest.raises(MissingCommitment):
            BulletinBoard().get("r1", 0)

    def test_idempotent_republish(self):
        board = BulletinBoard()
        board.publish(self.make())
        board.publish(self.make())
        assert len(board) == 1

    def test_equivocation_rejected(self):
        board = BulletinBoard()
        board.publish(self.make(digest=sha256(b"original")))
        with pytest.raises(IntegrityError, match="equivocation"):
            board.publish(self.make(digest=sha256(b"rewritten")))

    def test_for_window(self):
        board = BulletinBoard()
        board.publish(self.make(router="r1", window=3))
        board.publish(self.make(router="r2", window=3))
        board.publish(self.make(router="r1", window=4))
        assert set(board.for_window(3)) == {"r1", "r2"}

    def test_windows_sorted(self):
        board = BulletinBoard()
        board.publish(self.make(window=7))
        board.publish(self.make(window=2))
        assert board.windows() == [2, 7]

    def test_iteration_order(self):
        board = BulletinBoard()
        first = self.make(window=7)
        second = self.make(window=2)
        board.publish(first)
        board.publish(second)
        assert list(board) == [first, second]

    def test_commitment_wire_roundtrip(self):
        commitment = self.make()
        assert Commitment.from_wire(commitment.to_wire()) == commitment


class TestRouterCommitter:
    def make_committer(self, interval_ms=5_000):
        store = MemoryLogStore()
        board = BulletinBoard()
        clock = SimClock()
        committer = RouterCommitter("r1", store, board, clock,
                                    WindowConfig(interval_ms))
        return committer, store, board, clock

    def test_records_buffer_until_window_rolls(self):
        committer, store, board, clock = self.make_committer()
        committer.add_record(make_record())
        assert committer.pending_count == 1
        assert len(board) == 0
        clock.advance_ms(5_000)
        commitment = committer.maybe_commit()
        assert commitment is not None
        assert commitment.window_index == 0
        assert committer.pending_count == 0
        assert board.get("r1", 0).digest == \
            window_digest(store.window_blobs("r1", 0))

    def test_maybe_commit_noop_within_window(self):
        committer, *_ = self.make_committer()
        committer.add_record(make_record())
        assert committer.maybe_commit() is None

    def test_add_record_rolls_window_automatically(self):
        committer, store, board, clock = self.make_committer()
        committer.add_record(make_record())
        clock.advance_ms(5_000)
        committer.add_record(make_record(sport=2000))
        assert "r1" in board.for_window(0)
        assert committer.pending_count == 1  # the new window's record

    def test_flush(self):
        committer, _store, board, _clock = self.make_committer()
        committer.add_record(make_record())
        committer.add_record(make_record(sport=2))
        commitment = committer.flush()
        assert commitment is not None
        assert commitment.record_count == 2
        assert board.windows() == [0]

    def test_flush_empty_is_none(self):
        committer, *_ = self.make_committer()
        assert committer.flush() is None

    def test_empty_window_publishes_nothing(self):
        committer, _store, board, clock = self.make_committer()
        committer.add_record(make_record())
        clock.advance_ms(20_000)
        committer.maybe_commit()
        assert len(board) == 1  # only the non-empty window

    def test_commitment_binds_exact_bytes(self):
        committer, store, board, clock = self.make_committer()
        record = make_record()
        committer.add_record(record)
        clock.advance_ms(5_000)
        committer.maybe_commit()
        # Tamper the store: the published digest no longer matches.
        store.overwrite_raw("r1", 0, 0,
                            record.with_updates(packets=1).to_bytes())
        assert window_digest(store.window_blobs("r1", 0)) != \
            board.get("r1", 0).digest
