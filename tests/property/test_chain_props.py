"""Property test: random round sequences always produce verifiable
chains whose content matches ground truth (chain soak test)."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.clog import CLogEntry
from repro.core.policy import DEFAULT_POLICY
from repro.core.prover_service import ProverService
from repro.core.verifier_client import VerifierClient
from repro.netflow.records import FlowKey, NetFlowRecord
from repro.storage import MemoryLogStore

# A round plan: list of windows, each a list of (flow_id, router, lost).
round_plans = st.lists(
    st.lists(
        st.tuples(st.integers(0, 5),       # flow id (repeats -> merges)
                  st.integers(1, 3),       # router
                  st.integers(0, 9)),      # lost packets
        min_size=1, max_size=4),
    min_size=1, max_size=4)


def record_for(flow_id: int, router: int, lost: int,
               window: int) -> NetFlowRecord:
    return NetFlowRecord(
        router_id=f"r{router}",
        key=FlowKey("10.0.0.1", "172.16.0.1", 1000 + flow_id, 2000, 6),
        packets=100, octets=10_000,
        first_switched_ms=window * 5_000,
        last_switched_ms=window * 5_000 + 1_000,
        lost_packets=lost, hop_count=router, rtt_us=1_000)


class TestChainSoak:
    @given(round_plans)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_round_sequence_verifies_and_matches_truth(self, plan):
        store = MemoryLogStore()
        bulletin = BulletinBoard()
        truth: dict[FlowKey, CLogEntry] = {}
        for window, specs in enumerate(plan):
            records = [record_for(flow_id, router, lost, window)
                       for flow_id, router, lost in specs]
            by_router: dict[str, list[NetFlowRecord]] = {}
            for record in records:
                by_router.setdefault(record.router_id,
                                     []).append(record)
            for router_id, router_records in by_router.items():
                store.append_records(router_id, window, router_records)
                bulletin.publish(Commitment(
                    router_id, window,
                    window_digest([r.to_bytes()
                                   for r in router_records]),
                    len(router_records), window * 5_000))
            # Ground truth follows the same deterministic order the
            # aggregator uses: sorted routers, append order.
            for router_id in sorted(by_router):
                for record in by_router[router_id]:
                    existing = truth.get(record.key)
                    truth[record.key] = (
                        existing.merge(record, DEFAULT_POLICY)
                        if existing else CLogEntry.fresh(record))

        service = ProverService(store, bulletin)
        service.aggregate_all_committed()

        # 1. The chain verifies from public material.
        verifier = VerifierClient(bulletin)
        verified = verifier.verify_chain(service.chain.receipts())
        assert len(verified) == len(plan)

        # 2. The proven dataset equals ground truth.
        state_entries = {e.key: e for e in
                         service.state.entries_in_slot_order()}
        assert set(state_entries) == set(truth)
        for key, entry in truth.items():
            assert state_entries[key].to_payload() == \
                entry.to_payload(), key

        # 3. A proven COUNT agrees.
        response = service.answer_query("SELECT COUNT(*) FROM clogs")
        proven = verifier.verify_query(response, verified[-1])
        assert proven.values[0] == len(truth)
