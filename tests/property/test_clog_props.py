"""Property tests: CLog aggregation semantics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clog import CLogEntry, CLogState
from repro.core.policy import DEFAULT_POLICY, SUM_ALL_POLICY
from repro.core.witness import build_witness
from repro.netflow.records import FlowKey, NetFlowRecord


def records(min_size=1, max_size=25, distinct_flows=4):
    def build(draw_tuple):
        flow_id, router, packets, lost, hops, rtt = draw_tuple
        return NetFlowRecord(
            router_id=f"r{router}",
            key=FlowKey("10.0.0.1", "172.16.0.1", 1000 + flow_id,
                        2000, 6),
            packets=packets,
            octets=packets * 100,
            first_switched_ms=0,
            last_switched_ms=1_000,
            hop_count=hops,
            lost_packets=lost,
            rtt_us=rtt,
        )

    one = st.tuples(
        st.integers(0, distinct_flows - 1),  # flow id
        st.integers(1, 4),                   # router
        st.integers(1, 1_000),               # packets
        st.integers(0, 50),                  # lost
        st.integers(1, 6),                   # hops
        st.integers(0, 100_000),             # rtt
    ).map(build)
    return st.lists(one, min_size=min_size, max_size=max_size)


class TestMergeSemantics:
    @given(records())
    @settings(max_examples=100)
    def test_sum_policy_totals_match(self, batch):
        """Under SUM_ALL, every counter equals the plain per-flow sum."""
        entries = {}
        for record in batch:
            existing = entries.get(record.key)
            entries[record.key] = (
                existing.merge(record, SUM_ALL_POLICY) if existing
                else CLogEntry.fresh(record))
        for key, entry in entries.items():
            matching = [r for r in batch if r.key == key]
            assert entry.packets == sum(r.packets for r in matching)
            assert entry.lost_packets == \
                sum(r.lost_packets for r in matching)
            assert entry.record_count == len(matching)

    @given(records())
    @settings(max_examples=100)
    def test_default_policy_invariants(self, batch):
        entries = {}
        for record in batch:
            existing = entries.get(record.key)
            entries[record.key] = (
                existing.merge(record, DEFAULT_POLICY) if existing
                else CLogEntry.fresh(record))
        for key, entry in entries.items():
            matching = [r for r in batch if r.key == key]
            assert entry.packets == max(r.packets for r in matching)
            assert entry.lost_packets == \
                sum(r.lost_packets for r in matching)
            assert entry.hop_count == max(r.hop_count for r in matching)
            assert entry.rtt_sum_us == sum(r.rtt_us for r in matching)
            assert set(entry.routers) == \
                {r.router_id for r in matching}

    @given(records(max_size=12))
    @settings(max_examples=60)
    def test_combine_partition_independent(self, batch):
        """Combining partial aggregates gives the same result no matter
        how the stream is partitioned (associativity ablation)."""
        def fold(stream):
            entries = {}
            for record in stream:
                existing = entries.get(record.key)
                entries[record.key] = (
                    existing.merge(record, DEFAULT_POLICY) if existing
                    else CLogEntry.fresh(record))
            return entries

        whole = fold(batch)
        for split in range(len(batch) + 1):
            left, right = fold(batch[:split]), fold(batch[split:])
            combined = dict(left)
            for key, entry in right.items():
                combined[key] = (combined[key].combine(entry,
                                                       DEFAULT_POLICY)
                                 if key in combined else entry)
            assert {k: v.to_payload() for k, v in combined.items()} == \
                {k: v.to_payload() for k, v in whole.items()}


class TestWitnessProperties:
    @given(records(max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_witness_root_matches_direct_state(self, batch):
        witness = build_witness(CLogState(), batch, DEFAULT_POLICY)
        direct = CLogState()
        entries = {}
        for record in batch:
            existing = entries.get(record.key)
            entries[record.key] = (
                existing.merge(record, DEFAULT_POLICY) if existing
                else CLogEntry.fresh(record))
        # Insert in first-seen order (same as witness).
        seen = []
        for record in batch:
            if record.key not in seen:
                seen.append(record.key)
        for key in seen:
            direct.set_entry(entries[key])
        assert witness.new_root == direct.root

    @given(records(max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_witness_round_trips_through_guest(self, batch):
        """Any witness the host builds is accepted by the guest and
        reproduces the same root (host/guest lockstep)."""
        from repro.commitments import window_digest
        from repro.core.aggregation import (Aggregator,
                                            RouterWindowInput)
        by_router = {}
        for record in batch:
            by_router.setdefault(record.router_id, []).append(record)
        inputs = [
            RouterWindowInput(
                router_id=router_id, window_index=0,
                commitment=window_digest(
                    [r.to_bytes() for r in router_records]),
                blobs=tuple(r.to_bytes() for r in router_records))
            for router_id, router_records in sorted(by_router.items())
        ]
        result = Aggregator().aggregate(CLogState(), inputs, None)
        assert result.header.new_root == result.new_root
