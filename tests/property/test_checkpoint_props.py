"""Property test: checkpoint → crash → restore is lossless.

For any random sequence of proven rounds, a service restored from its
checkpoint is bit-identical to the one that wrote it: same state root,
same chain roots, and the same receipt bytes for any query — the
recovery path can never silently change what the prover attests to.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.prover_service import ProverService
from repro.netflow.records import FlowKey, NetFlowRecord
from repro.serialization import encode_receipt
from repro.storage import MemoryLogStore

# A run: per window, a list of (flow_id, router, lost) records.
round_plans = st.lists(
    st.lists(
        st.tuples(st.integers(0, 5),
                  st.integers(1, 3),
                  st.integers(0, 9)),
        min_size=1, max_size=3),
    min_size=1, max_size=3)

queries = st.sampled_from([
    "SELECT COUNT(*) FROM clogs",
    "SELECT SUM(lost_packets) FROM clogs",
    "SELECT MAX(hop_count), SUM(octets) FROM clogs",
])


def record_for(flow_id: int, router: int, lost: int,
               window: int) -> NetFlowRecord:
    return NetFlowRecord(
        router_id=f"r{router}",
        key=FlowKey("10.0.0.1", "172.16.0.1", 1000 + flow_id, 2000, 6),
        packets=100, octets=10_000,
        first_switched_ms=window * 5_000,
        last_switched_ms=window * 5_000 + 1_000,
        lost_packets=lost, hop_count=router, rtt_us=1_000)


def build_and_prove(plan):
    store = MemoryLogStore()
    bulletin = BulletinBoard()
    service = ProverService(store, bulletin)
    for window, specs in enumerate(plan):
        by_router: dict[str, list[NetFlowRecord]] = {}
        for flow_id, router, lost in specs:
            record = record_for(flow_id, router, lost, window)
            by_router.setdefault(record.router_id, []).append(record)
        for router_id, records in by_router.items():
            store.append_records(router_id, window, records)
            bulletin.publish(Commitment(
                router_id, window,
                window_digest([r.to_bytes() for r in records]),
                len(records), window * 5_000))
        service.aggregate_window(window)
    return store, bulletin, service


class TestCheckpointRoundTrip:
    @given(round_plans, queries)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_restore_is_bit_identical(self, plan, sql):
        store, bulletin, service = build_and_prove(plan)
        service.checkpoint()
        # "Crash": the service object is gone; only the store (with
        # its checkpoint blob) and the public bulletin survive.
        restored = ProverService(store, bulletin)
        assert restored.restore() is True

        assert restored.state.root == service.state.root
        assert len(restored.chain) == len(service.chain)
        for before, after in zip(service.chain, restored.chain):
            assert after.header == before.header
            assert encode_receipt(after.receipt) == \
                encode_receipt(before.receipt)
        assert restored.aggregated_windows == \
            service.aggregated_windows

        original = service.answer_query(sql)
        recovered = restored.answer_query(sql)
        assert recovered.values == original.values
        assert recovered.root == original.root
        assert encode_receipt(recovered.receipt) == \
            encode_receipt(original.receipt)

    @given(round_plans)
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_restored_service_can_keep_proving(self, plan):
        store, bulletin, service = build_and_prove(plan)
        service.checkpoint()
        restored = ProverService(store, bulletin)
        restored.restore()
        # New window arrives after recovery; the chain must extend.
        window = len(plan)
        records = [record_for(0, 1, 1, window)]
        store.append_records("r1", window, records)
        bulletin.publish(Commitment(
            "r1", window,
            window_digest([r.to_bytes() for r in records]),
            1, window * 5_000))
        result = restored.aggregate_window(window)
        assert result.round == len(plan)
        assert restored.chain.latest.header.new_root == restored.state.root
