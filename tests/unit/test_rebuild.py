"""Unit tests for the full-rebuild aggregation strategy."""

import pytest

from repro.commitments import Commitment, window_digest
from repro.core.aggregation import Aggregator, RouterWindowInput
from repro.core.clog import CLogState
from repro.core.prover_service import ProverService
from repro.core.rebuild import RebuildAggregator, \
    rebuild_aggregation_guest
from repro.core.verifier_client import VerifierClient
from repro.errors import ConfigurationError, GuestAbort
from repro.hashing import sha256
from repro.storage import MemoryLogStore
from repro.commitments import BulletinBoard
from repro.zkvm import verify_receipt

from ..conftest import make_record


def window_inputs(records_by_router, window_index=0):
    inputs = []
    for router_id, records in sorted(records_by_router.items()):
        blobs = tuple(r.to_bytes() for r in records)
        inputs.append(RouterWindowInput(
            router_id=router_id, window_index=window_index,
            commitment=window_digest(list(blobs)), blobs=blobs))
    return inputs


SIMPLE = {
    "r1": [make_record(router_id="r1"),
           make_record(router_id="r1", sport=2000)],
    "r2": [make_record(router_id="r2")],
}


class TestRebuildRound:
    def test_round_zero(self):
        result = RebuildAggregator().aggregate(
            CLogState(), window_inputs(SIMPLE), None)
        assert result.round == 0
        assert len(result.new_state) == 2
        verify_receipt(result.receipt,
                       rebuild_aggregation_guest.image_id)

    def test_matches_update_strategy_exactly(self):
        """Both strategies must produce identical state AND identical
        Merkle roots — the strategies are proof-time tradeoffs only."""
        update = Aggregator().aggregate(CLogState(),
                                        window_inputs(SIMPLE), None)
        rebuild = RebuildAggregator().aggregate(
            CLogState(), window_inputs(SIMPLE), None)
        assert update.new_root == rebuild.new_root
        assert update.header.new_root == rebuild.header.new_root
        assert [e.to_payload() for e in
                update.new_state.entries_in_slot_order()] == \
            [e.to_payload() for e in
             rebuild.new_state.entries_in_slot_order()]

    def test_journal_layout_compatible(self):
        result = RebuildAggregator().aggregate(
            CLogState(), window_inputs(SIMPLE), None)
        header = result.receipt.journal.decode()[0]
        assert set(header) == {"round", "prev_root", "new_root", "size",
                               "depth", "windows", "policy", "entries"}
        items = result.receipt.journal.decode()[1:]
        assert all(set(item) == {"s", "l", "t"} for item in items)

    def test_commitment_mismatch_aborts(self):
        inputs = window_inputs(SIMPLE)
        forged = [RouterWindowInput(
            router_id=i.router_id, window_index=i.window_index,
            commitment=sha256(b"wrong"), blobs=i.blobs)
            for i in inputs]
        with pytest.raises(GuestAbort, match="commitment mismatch"):
            RebuildAggregator().aggregate(CLogState(), forged, None)

    def test_chained_round(self):
        first = RebuildAggregator().aggregate(
            CLogState(), window_inputs(SIMPLE), None)
        follow = window_inputs(
            {"r1": [make_record(router_id="r1", sport=3000)]},
            window_index=1)
        second = RebuildAggregator().aggregate(
            first.new_state, follow, first.receipt)
        assert second.round == 1
        assert second.header.prev_root == first.new_root
        verify_receipt(second.receipt,
                       rebuild_aggregation_guest.image_id)


class TestStrategyInterop:
    def make_service(self, strategy):
        store = MemoryLogStore()
        bulletin = BulletinBoard()
        for window in range(2):
            records = [make_record(router_id="r1",
                                   sport=1000 + window)]
            store.append_records("r1", window, records)
            bulletin.publish(Commitment(
                "r1", window,
                window_digest([r.to_bytes() for r in records]),
                len(records), window * 5000))
        return ProverService(store, bulletin, strategy=strategy)

    @pytest.mark.parametrize("strategy", ["update", "rebuild", "batched"])
    def test_service_with_strategy(self, strategy):
        service = self.make_service(strategy)
        service.aggregate_window(0)
        service.aggregate_window(1)
        verifier = VerifierClient(service.bulletin)
        chain = verifier.verify_chain(service.chain.receipts())
        assert [c.round for c in chain] == [0, 1]

    def test_mixed_strategy_chain(self):
        """An update round can extend a rebuild round and vice versa."""
        service = self.make_service("rebuild")
        first = service.aggregate_window(0)
        # Manually run round 1 with the *other* strategy.
        inputs = service.gather_window(1)
        second = Aggregator().aggregate(service.state, inputs,
                                        first.receipt)
        verifier = VerifierClient(service.bulletin)
        verified = verifier.verify_chain([first.receipt,
                                          second.receipt])
        assert verified[1].prev_root == verified[0].new_root

    def test_unknown_strategy_rejected(self):
        store = MemoryLogStore()
        with pytest.raises(ConfigurationError, match="strategy"):
            ProverService(store, BulletinBoard(), strategy="magic")

    def test_untrusted_image_rejected_by_client(self):
        """A receipt from a non-aggregation guest never enters a
        chain, even if internally valid."""
        from repro.zkvm import ExecutorEnvBuilder, Prover, guest_program

        @guest_program("rogue-aggregator")
        def rogue(env):
            env.commit({"round": 0, "prev_root": sha256(b"x"),
                        "new_root": sha256(b"y"), "size": 0,
                        "depth": 0, "windows": [], "policy": sha256(b"p"),
                        "entries": 0})

        info = Prover().prove(rogue, ExecutorEnvBuilder().build())
        verifier = VerifierClient(BulletinBoard())
        from repro.errors import VerificationError
        with pytest.raises(VerificationError, match="not a trusted"):
            verifier.verify_aggregation(info.receipt, None)


class TestCostProfile:
    def test_rebuild_cheaper_for_large_batches(self):
        """Large batch over small state: rebuild should meter fewer
        cycles than per-record path updates."""
        big_batch = {
            "r1": [make_record(router_id="r1", sport=1000 + i)
                   for i in range(64)],
        }
        update = Aggregator().aggregate(CLogState(),
                                        window_inputs(big_batch), None)
        rebuild = RebuildAggregator().aggregate(
            CLogState(), window_inputs(big_batch), None)
        assert rebuild.info.stats.total_cycles < \
            update.info.stats.total_cycles

    def test_update_cheaper_for_small_batches_over_large_state(self):
        base = {
            "r1": [make_record(router_id="r1", sport=1000 + i)
                   for i in range(128)],
        }
        update_state = Aggregator().aggregate(
            CLogState(), window_inputs(base), None)
        small_batch = window_inputs(
            {"r1": [make_record(router_id="r1", sport=5000)]},
            window_index=1)
        update = Aggregator().aggregate(update_state.new_state,
                                        small_batch,
                                        update_state.receipt)
        rebuild = RebuildAggregator().aggregate(
            update_state.new_state, small_batch, update_state.receipt)
        assert update.info.stats.total_cycles < \
            rebuild.info.stats.total_cycles
