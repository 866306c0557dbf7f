"""Fault-injection: failures must never corrupt the proof chain.

The prover service's invariant: state and chain advance *only* when a
round fully proves.  Inject storage failures, missing commitments and
mid-round exceptions and confirm the service stays consistent and can
continue once the fault clears.
"""

import pytest

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.prover_service import ProverService
from repro.errors import MissingCommitment, StorageError
from repro.storage import MemoryLogStore
from repro.storage.backend import LogStore

from ..conftest import make_record


class FaultyLogStore(LogStore):
    """Delegating store that fails reads after a fuse burns down."""

    def __init__(self, inner: LogStore, read_fuse: int) -> None:
        self.inner = inner
        self.read_fuse = read_fuse

    def _maybe_fail(self):
        if self.read_fuse <= 0:
            raise StorageError("injected backend outage")
        self.read_fuse -= 1

    # reads (fused)
    def window_blobs(self, router_id, window_index):
        self._maybe_fail()
        return self.inner.window_blobs(router_id, window_index)

    def window_indices(self, router_id):
        self._maybe_fail()
        return self.inner.window_indices(router_id)

    def router_ids(self):
        self._maybe_fail()
        return self.inner.router_ids()

    # writes (transparent)
    def append_records(self, router_id, window_index, records):
        self.inner.append_records(router_id, window_index, records)

    def overwrite_raw(self, router_id, window_index, seq, data):
        self.inner.overwrite_raw(router_id, window_index, seq, data)

    def replace_window(self, router_id, window_index, blobs):
        self.inner.replace_window(router_id, window_index, blobs)

    def purge_window(self, router_id, window_index):
        return self.inner.purge_window(router_id, window_index)

    def close(self):
        self.inner.close()


def committed_store(windows: int = 2):
    store = MemoryLogStore()
    bulletin = BulletinBoard()
    for window in range(windows):
        records = [make_record(sport=1000 + window * 10 + i)
                   for i in range(3)]
        store.append_records("r1", window, records)
        bulletin.publish(Commitment(
            "r1", window,
            window_digest([r.to_bytes() for r in records]),
            len(records), window * 5_000))
    return store, bulletin


class TestStorageOutage:
    def test_outage_fails_round_cleanly(self):
        store, bulletin = committed_store()
        faulty = FaultyLogStore(store, read_fuse=1)
        service = ProverService(faulty, bulletin)
        with pytest.raises(StorageError, match="outage"):
            service.aggregate_window(0)
        # Nothing advanced.
        assert len(service.chain) == 0
        assert len(service.state) == 0

    def test_recovery_after_outage(self):
        store, bulletin = committed_store()
        faulty = FaultyLogStore(store, read_fuse=1)
        service = ProverService(faulty, bulletin)
        with pytest.raises(StorageError):
            service.aggregate_window(0)
        faulty.read_fuse = 10**9  # outage over
        result = service.aggregate_window(0)
        assert result.round == 0
        assert len(service.chain) == 1

    def test_failed_round_does_not_mark_window_consumed(self):
        store, bulletin = committed_store()
        faulty = FaultyLogStore(store, read_fuse=1)
        service = ProverService(faulty, bulletin)
        with pytest.raises(StorageError):
            service.aggregate_window(0)
        faulty.read_fuse = 10**9
        # Window 0 is still aggregatable (was not marked consumed).
        service.aggregate_window(0)


class TestMissingCommitments:
    def test_round_refused_without_commitment(self):
        store, bulletin = committed_store()
        # A window present in the store but never published.
        orphan = [make_record(sport=9_000)]
        store.append_records("r1", 9, orphan)
        service = ProverService(store, bulletin)
        with pytest.raises(MissingCommitment):
            service.aggregate_window(9)

    def test_partial_router_coverage_is_fine(self):
        """Only routers that actually logged the window participate."""
        store, bulletin = committed_store(windows=1)
        extra = [make_record(router_id="r2", sport=7_000)]
        store.append_records("r2", 0, extra)
        bulletin.publish(Commitment(
            "r2", 0, window_digest([r.to_bytes() for r in extra]),
            1, 5_000))
        service = ProverService(store, bulletin)
        result = service.aggregate_window(0)
        routers = {r for r, _w, _c in result.header.windows}
        assert routers == {"r1", "r2"}


class TestChainUnaffectedByLaterFaults:
    def test_verified_history_survives_storage_loss(self):
        """Raw logs are ephemeral (§2.2): purging aggregated windows
        must not affect already-proven rounds or their verification."""
        store, bulletin = committed_store()
        service = ProverService(store, bulletin)
        service.aggregate_window(0)
        service.aggregate_window(1)
        # Logs get discarded after aggregation.
        store.purge_window("r1", 0)
        store.purge_window("r1", 1)
        from repro.core.verifier_client import VerifierClient
        verified = VerifierClient(bulletin).verify_chain(
            service.chain.receipts())
        assert len(verified) == 2
        # Queries still work: they run over CLogs, not raw logs.
        response = service.answer_query("SELECT COUNT(*) FROM clogs")
        assert response.value() == len(service.state)
