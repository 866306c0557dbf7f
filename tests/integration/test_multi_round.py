"""Integration: long aggregation chains and flows spanning rounds."""

import pytest

from repro.commitments import Commitment, window_digest
from repro.core.prover_service import ProverService
from repro.storage import MemoryLogStore
from repro.commitments import BulletinBoard

from ..conftest import make_record


def commit_window(store, bulletin, router, window, records):
    store.append_records(router, window, records)
    bulletin.publish(Commitment(
        router_id=router, window_index=window,
        digest=window_digest([r.to_bytes() for r in records]),
        record_count=len(records), published_at_ms=window * 5_000))


@pytest.fixture
def service():
    return ProverService(MemoryLogStore(), BulletinBoard())


class TestCrossRoundAggregation:
    def test_flow_accumulates_across_rounds(self, service):
        """The same flow seen in consecutive windows keeps one CLog
        entry whose counters accumulate (Merkle update path)."""
        for window in range(4):
            commit_window(service.store, service.bulletin, "r1", window,
                          [make_record(lost_packets=2,
                                       first_switched_ms=window * 5_000,
                                       last_switched_ms=(window + 1)
                                       * 5_000)])
            service.aggregate_window(window)
        assert len(service.state) == 1
        entry = service.state.entries_in_slot_order()[0]
        assert entry.lost_packets == 8      # SUM across 4 rounds
        assert entry.record_count == 4
        assert entry.first_ms == 0
        assert entry.last_ms == 20_000

    def test_ten_round_chain_verifies(self, service):
        for window in range(10):
            commit_window(service.store, service.bulletin, "r1", window,
                          [make_record(sport=1000 + window)])
            service.aggregate_window(window)
        from repro.core.verifier_client import VerifierClient
        verifier = VerifierClient(service.bulletin)
        verified = verifier.verify_chain(service.chain.receipts())
        assert [v.round for v in verified] == list(range(10))
        assert verified[-1].size == 10

    def test_state_root_consistent_with_last_journal(self, service):
        for window in range(3):
            commit_window(service.store, service.bulletin, "r1", window,
                          [make_record(sport=1000 + window)])
            service.aggregate_window(window)
        header = service.chain.latest.header
        assert header.new_root == service.state.root
        assert header.size == len(service.state)

    def test_query_after_each_round(self, service):
        for window in range(3):
            commit_window(service.store, service.bulletin, "r1", window,
                          [make_record(sport=1000 + window,
                                       lost_packets=window)])
            service.aggregate_window(window)
            response = service.answer_query(
                "SELECT COUNT(*), SUM(lost_packets) FROM clogs")
            assert response.values[0] == window + 1

    def test_growth_across_capacity_boundaries(self, service):
        """Insert counts that force repeated tree-depth growth across
        rounds; the chain must stay consistent."""
        sport = 1000
        for window, batch in enumerate([1, 2, 4, 8, 16]):
            records = []
            for _ in range(batch):
                records.append(make_record(sport=sport))
                sport += 1
            commit_window(service.store, service.bulletin, "r1", window,
                          records)
            service.aggregate_window(window)
        assert len(service.state) == 31
        assert service.state.depth == 5
        from repro.core.verifier_client import VerifierClient
        VerifierClient(service.bulletin).verify_chain(
            service.chain.receipts())


class TestMixedStrategyChain:
    """Rounds of the paper-path (Alg. 1), batched and rebuild guests
    form one history: each round's service restores the previous
    one's checkpoint and proves with its own strategy, and the chain
    verifies locally, over the wire, and after a final restore."""

    STRATEGIES = ("update", "batched", "rebuild", "update", "batched")

    def test_mixed_chain_verifies_everywhere(self):
        from repro.core.guest_programs import (
            aggregation_guest, batched_aggregation_guest)
        from repro.core.rebuild import rebuild_aggregation_guest
        from repro.core.verifier_client import VerifierClient
        from repro.net import ProverServer, QueryClient

        guests = {"update": aggregation_guest,
                  "batched": batched_aggregation_guest,
                  "rebuild": rebuild_aggregation_guest}
        store, bulletin = MemoryLogStore(), BulletinBoard()
        for window in range(len(self.STRATEGIES)):
            # After window 0: three old flows updated, one new flow.
            commit_window(store, bulletin, "r1", window,
                          [make_record(sport=1000 + window + i,
                                       lost_packets=i) for i in range(4)])
        for window, strategy in enumerate(self.STRATEGIES):
            service = ProverService(store, bulletin, strategy=strategy,
                                    auto_checkpoint=True)
            assert service.restore() == (window > 0)
            service.aggregate_window(window)
        receipts = service.chain.receipts()
        assert [r.claim.image_id for r in receipts] == [
            guests[strategy].image_id for strategy in self.STRATEGIES]
        verified = VerifierClient(bulletin).verify_chain(receipts)
        assert verified[-1].size == len(service.state) == 8

        restored = ProverService(store, bulletin)
        assert restored.restore()
        assert restored.state.root == service.state.root
        server = ProverServer(restored, idle_timeout=5.0)
        server.start_background()
        try:
            with QueryClient(server.host, server.port) as client:
                response, journal = client.verified_query(
                    "SELECT COUNT(*), SUM(lost_packets) FROM clogs")
        finally:
            server.stop_background()
        assert journal.values == response.values
        assert response.round == len(self.STRATEGIES) - 1
        assert response.values[0] == 8
