"""Integration: long aggregation chains and flows spanning rounds."""

import pytest

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.aggregation import Aggregator, BatchedAggregator
from repro.core.chain import ChainLink
from repro.core.clog import CLogState
from repro.core.guest_programs import aggregation_guest
from repro.core.prover_service import (
    CHECKPOINT_VERSION,
    DEFAULT_CHECKPOINT,
    ProverService,
)
from repro.core.verifier_client import VerifierClient
from repro.serialization import encode
from repro.storage import MemoryLogStore

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
        VerifierClient(service.bulletin).verify_chain(
            service.chain.receipts())


class TestMixedStrategyChain:
    """Alg. 1 and batched rounds form one history: each round extends
    the previous receipt through its own aggregator class, and the
    chain verifies as one.  A checkpoint naming the round option
    ``ProverService`` once had, with an Alg. 1 round at its head, still
    restores and serves."""

    AGGREGATORS = (Aggregator, BatchedAggregator, Aggregator,
                   BatchedAggregator, Aggregator)

    @pytest.fixture(scope="class")
    def mixed(self):
        store, bulletin = MemoryLogStore(), BulletinBoard()
        for window in range(len(self.AGGREGATORS)):
            # After window 0: three old flows updated, one new flow.
            commit_window(store, bulletin, "r1", window,
                          [make_record(sport=1000 + window + i,
                                       lost_packets=i) for i in range(4)])
        gather = ProverService(store, bulletin).gather_window
        state, prev_receipt, results = CLogState(), None, []
        for window, aggregator in enumerate(self.AGGREGATORS):
            result = aggregator().aggregate(state, gather(window),
                                            prev_receipt)
            state, prev_receipt = result.new_state, result.receipt
            results.append(result)
        return store, bulletin, results

    def test_alternating_guests_form_one_chain(self, mixed):
        _store, bulletin, results = mixed
        receipts = [result.receipt for result in results]
        assert [r.claim.image_id for r in receipts] == [
            aggregator.guest.image_id for aggregator in self.AGGREGATORS]
        verified = VerifierClient(bulletin).verify_chain(receipts)
        assert verified[-1].size == len(results[-1].new_state) == 8

    def test_checkpoint_naming_a_strategy_restores_and_serves(self, mixed):
        """The layout checkpoints were written in while the service had
        a ``strategy`` option: the key is ignored, the Alg. 1 head
        re-verifies, and the restored service answers over the wire."""
        from repro.net import ProverServer, QueryClient

        store, bulletin, results = mixed
        head = results[-1]
        store.put_checkpoint(DEFAULT_CHECKPOINT, encode({
            "version": CHECKPOINT_VERSION,
            "strategy": "update",
            "state_round": head.new_state.round,
            "chain": [ChainLink(round=r.round, receipt=r.receipt).to_wire()
                      for r in results],
            "entries": [entry.to_wire() for entry
                        in head.new_state.entries_in_slot_order()],
        }))
        restored = ProverService(store, bulletin)
        assert restored.restore()
        assert restored.chain.latest.receipt.claim.image_id \
            == aggregation_guest.image_id
        assert restored.state.root == head.new_root
        server = ProverServer(restored, idle_timeout=5.0)
        server.start_background()
        try:
            with QueryClient(server.host, server.port) as client:
                response, journal = client.verified_query(
                    "SELECT COUNT(*), SUM(lost_packets) FROM clogs")
        finally:
            server.stop_background()
        assert journal.values == response.values
        assert response.values[0] == 8
        assert response.round == len(results) - 1
