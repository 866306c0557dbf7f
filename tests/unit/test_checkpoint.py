"""Unit tests for crash-safe checkpoint/restore on the prover."""

import pytest

from repro.core.prover_service import ProverService
from repro.errors import CheckpointError, StorageError
from repro.serialization import encode_receipt
from repro.storage import MemoryLogStore, SqliteLogStore

from ..conftest import make_committed_records


@pytest.fixture
def proven(two_windows):
    """A service with two proven rounds over 20 committed records."""
    store, bulletin = two_windows
    service = ProverService(store, bulletin)
    service.aggregate_window(0)
    service.aggregate_window(1)
    return store, bulletin, service


@pytest.fixture
def two_windows():
    """A store and bulletin with windows 0 and 1 committed."""
    store, bulletin, _ = make_committed_records(20)
    extra_store, _, _ = make_committed_records(10, seed=9,
                                               window_index=1)
    for router_id in extra_store.router_ids():
        blobs = extra_store.window_blobs(router_id, 1)
        store.replace_window(router_id, 1, blobs)
    from repro.commitments import Commitment, window_digest
    for router_id in extra_store.router_ids():
        blobs = store.window_blobs(router_id, 1)
        bulletin.publish(Commitment(router_id, 1,
                                    window_digest(blobs),
                                    len(blobs), 5_000))
    return store, bulletin


class TestRoundTrip:
    def test_memory_roundtrip_bit_identical(self, proven):
        store, bulletin, service = proven
        root = service.checkpoint()
        assert root == service.state.root
        restored = ProverService(store, bulletin)
        assert restored.restore() is True
        assert restored.state.root == service.state.root
        assert restored.chain.latest.header.new_root == \
            service.chain.latest.header.new_root
        assert len(restored.chain) == len(service.chain)
        assert restored.aggregated_windows == \
            service.aggregated_windows
        before = service.answer_query("SELECT COUNT(*) FROM clogs")
        after = restored.answer_query("SELECT COUNT(*) FROM clogs")
        assert encode_receipt(before.receipt) == encode_receipt(after.receipt)

    def test_sqlite_roundtrip_across_connections(self, tmp_path):
        db = tmp_path / "prover.db"
        mem_store, bulletin, _ = make_committed_records(15)
        store = SqliteLogStore(str(db))
        for router_id in mem_store.router_ids():
            store.replace_window(router_id, 0,
                                 mem_store.window_blobs(router_id, 0))
        service = ProverService(store, bulletin)
        service.aggregate_window(0)
        service.checkpoint()
        store.close()  # simulated process exit
        reopened = SqliteLogStore(str(db))
        restored = ProverService(reopened, bulletin)
        assert restored.restore() is True
        assert restored.state.root == service.state.root
        reopened.close()

    def test_empty_service_checkpoints_and_restores(self):
        store, bulletin, _ = make_committed_records(5)
        service = ProverService(store, bulletin)
        service.checkpoint()
        restored = ProverService(store, bulletin)
        assert restored.restore() is True
        assert len(restored.chain) == 0
        assert len(restored.state) == 0

    def test_restore_without_checkpoint_is_cold_start(self):
        store, bulletin, _ = make_committed_records(5)
        service = ProverService(store, bulletin)
        assert service.restore() is False

    def test_named_checkpoints_are_independent(self, proven):
        store, bulletin, service = proven
        service.checkpoint("a")
        assert store.get_checkpoint("a") is not None
        assert store.get_checkpoint("prover-latest") is None
        assert store.checkpoint_names() == ["a"]
        assert store.delete_checkpoint("a") is True
        assert store.delete_checkpoint("a") is False


class TestAutoCheckpoint:
    def test_round_writes_checkpoint_automatically(self):
        store, bulletin, _ = make_committed_records(10)
        service = ProverService(store, bulletin, auto_checkpoint=True)
        service.aggregate_window(0)
        restored = ProverService(store, bulletin)
        assert restored.restore() is True
        assert restored.state.root == service.state.root

    def test_off_by_default(self):
        store, bulletin, _ = make_committed_records(10)
        service = ProverService(store, bulletin)
        service.aggregate_window(0)
        assert store.get_checkpoint("prover-latest") is None


class TestIntegrityOnRestore:
    def test_corrupt_blob_rejected(self, proven):
        store, bulletin, service = proven
        service.checkpoint()
        store.put_checkpoint("prover-latest", b"garbage")
        fresh = ProverService(store, bulletin)
        with pytest.raises(CheckpointError):
            fresh.restore()
        # The refused restore left the service untouched and usable.
        assert len(fresh.chain) == 0

    def test_tampered_entries_fail_root_check(self, proven):
        from repro.serialization import decode, encode
        store, bulletin, service = proven
        service.checkpoint()
        payload = decode(store.get_checkpoint("prover-latest"))
        entry = dict(payload["entries"][0])
        entry["octets"] += 1  # bump one counter post-proof
        payload["entries"][0] = entry
        store.put_checkpoint("prover-latest", encode(payload))
        with pytest.raises(CheckpointError, match="root"):
            ProverService(store, bulletin).restore()

    def test_tampered_entry_with_rewritten_head_copies_rejected(
            self, proven):
        """Root and size come from the latest receipt's journal: a
        forged entry fails even when every root/size copy the chain
        head's wire form holds is rewritten to match the forged state."""
        from repro.core.clog import CLogEntry, CLogState
        from repro.serialization import decode, encode
        store, bulletin, service = proven
        service.checkpoint()
        payload = decode(store.get_checkpoint("prover-latest"))
        entry = dict(payload["entries"][0])
        entry["octets"] += 1
        payload["entries"][0] = entry
        forged = CLogState()
        for wire in payload["entries"]:
            forged.set_entry(CLogEntry.from_wire(wire))
        head = dict(payload["chain"][-1])
        for key, value in (("new_root", forged.root),
                           ("size", len(forged))):
            if key in head:
                head[key] = value
        payload["chain"][-1] = head
        store.put_checkpoint("prover-latest", encode(payload))
        with pytest.raises(CheckpointError, match="root"):
            ProverService(store, bulletin).restore()

    def test_links_with_copied_header_fields_restore_ignoring_them(
            self, proven):
        """A checkpoint whose chain links still carry ``new_root`` /
        ``size`` / ``record_count`` beside the receipt (the layout
        before links read them off the journal) restores: the copies
        are ignored, however wrong they are."""
        from repro.hashing import tagged_hash
        from repro.serialization import decode, encode
        store, bulletin, service = proven
        service.checkpoint()
        payload = decode(store.get_checkpoint("prover-latest"))
        assert set(payload["chain"][0]) == {"round", "receipt"}
        for copies in (
                [{"new_root": link.header.new_root,
                  "size": link.header.size,
                  "record_count": link.header.entries}
                 for link in service.chain],
                [{"new_root": tagged_hash("test/forged", b"root"),
                  "size": 0, "record_count": 0}
                 for _ in service.chain]):
            payload["chain"] = [dict(wire, **copy) for wire, copy
                                in zip(payload["chain"], copies)]
            store.put_checkpoint("prover-latest", encode(payload))
            restored = ProverService(store, bulletin)
            assert restored.restore() is True
            assert restored.chain.latest.header \
                == service.chain.latest.header
            assert restored.state.root == service.state.root

    def test_truncated_chain_keeps_linkage_but_fails_root(self, proven):
        from repro.serialization import decode, encode
        store, bulletin, service = proven
        service.checkpoint()
        payload = decode(store.get_checkpoint("prover-latest"))
        payload["chain"] = payload["chain"][:1]  # drop round 1
        store.put_checkpoint("prover-latest", encode(payload))
        with pytest.raises(CheckpointError):
            ProverService(store, bulletin).restore()

    def test_spliced_chain_rejected(self, proven):
        from repro.serialization import decode, encode
        store, bulletin, service = proven
        service.checkpoint()
        payload = decode(store.get_checkpoint("prover-latest"))
        payload["chain"] = [payload["chain"][1], payload["chain"][0]]
        store.put_checkpoint("prover-latest", encode(payload))
        with pytest.raises(CheckpointError):
            ProverService(store, bulletin).restore()

    def test_unproven_entries_rejected(self, proven):
        from repro.serialization import decode, encode
        store, bulletin, service = proven
        service.checkpoint()
        payload = decode(store.get_checkpoint("prover-latest"))
        payload["chain"] = []
        store.put_checkpoint("prover-latest", encode(payload))
        with pytest.raises(CheckpointError, match="no proven round"):
            ProverService(store, bulletin).restore()

    def test_wrong_version_rejected(self, proven):
        from repro.serialization import decode, encode
        store, bulletin, service = proven
        service.checkpoint()
        payload = decode(store.get_checkpoint("prover-latest"))
        payload["version"] = 99
        store.put_checkpoint("prover-latest", encode(payload))
        with pytest.raises(CheckpointError, match="version"):
            ProverService(store, bulletin).restore()

    def test_aggregated_windows_come_from_the_round_headers(
            self, two_windows):
        """A checkpoint taken after round 0 whose stored window list is
        rewritten to claim window 1 as well still leaves window 1
        pending: restore reads the set off the chain, and the key is
        no longer written."""
        from repro.serialization import decode, encode
        store, bulletin = two_windows
        service = ProverService(store, bulletin)
        service.aggregate_window(0)
        service.checkpoint()
        payload = decode(store.get_checkpoint("prover-latest"))
        assert "aggregated_windows" not in payload
        payload["aggregated_windows"] = [0, 1]
        store.put_checkpoint("prover-latest", encode(payload))
        restored = ProverService(store, bulletin)
        assert restored.restore() is True
        assert restored.aggregated_windows == {0}
        assert restored.pending_windows() == [1]
        restored.aggregate_window(1)
        assert restored.aggregated_windows == {0, 1}

    def test_round_refuses_a_window_no_input_carries(self, two_windows):
        from repro.errors import ConfigurationError
        store, bulletin = two_windows
        service = ProverService(store, bulletin)
        inputs = service.gather_window(0)
        with pytest.raises(ConfigurationError, match=r"\[1\]"):
            service.prove_round([0, 1], inputs)
        assert len(service.chain) == 0
        assert service.aggregated_windows == frozenset()

    def test_restore_refused_on_non_fresh_service(self, proven):
        store, bulletin, service = proven
        service.checkpoint()
        with pytest.raises(CheckpointError, match="fresh"):
            service.restore()


class TestBackendSupport:
    def test_base_class_refuses_checkpoints(self):
        from repro.storage.backend import LogStore

        class Minimal(LogStore):
            def append_records(self, *a): ...
            def overwrite_raw(self, *a): ...
            def replace_window(self, *a): ...
            def purge_window(self, *a): return 0
            def window_blobs(self, *a): return []
            def window_indices(self, *a): return []
            def router_ids(self): return []
            def close(self): ...

        with pytest.raises(StorageError, match="checkpoint"):
            Minimal().put_checkpoint("x", b"")

    def test_memory_backend_kv_semantics(self):
        store = MemoryLogStore()
        assert store.get_checkpoint("x") is None
        store.put_checkpoint("x", b"1")
        store.put_checkpoint("x", b"2")  # overwrite
        assert store.get_checkpoint("x") == b"2"
        assert store.checkpoint_names() == ["x"]
