"""Property: the batched round guest proves Alg. 1's journal, byte for byte.

:class:`~repro.core.aggregation.BatchedAggregator` (step 3 over one
multiproof) against :class:`~repro.core.aggregation.Aggregator` (Alg. 1,
the paper path and the oracle) on the same round: random prior state
sizes, genesis, flows repeated within a round, updates of old entries,
and rounds that cross one or several capacity boundaries.  Journal bytes,
header, items and the host's new state must all agree.
"""

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.commitments import window_digest
from repro.core.aggregation import Aggregator, BatchedAggregator, RouterWindowInput
from repro.core.clog import CLogState
from repro.errors import MerkleError
from repro.hashing import sha256
from repro.merkle import MerkleTree
from repro.netflow.records import FlowKey, NetFlowRecord


def record(flow: int, router: int, packets: int) -> NetFlowRecord:
    return NetFlowRecord(
        router_id=f"r{router}",
        key=FlowKey("10.0.0.1", "172.16.0.1", 1000 + flow, 2000, 6),
        packets=packets,
        octets=packets * 100,
        first_switched_ms=0,
        last_switched_ms=1_000,
        hop_count=router,
        lost_packets=packets % 3,
        rtt_us=1_000 + flow,
    )


def window_inputs(records: list[NetFlowRecord], window: int) -> list[RouterWindowInput]:
    by_router: dict[str, list[NetFlowRecord]] = {}
    for one in records:
        by_router.setdefault(one.router_id, []).append(one)
    inputs = []
    for router_id, router_records in sorted(by_router.items()):
        blobs = tuple(one.to_bytes() for one in router_records)
        inputs.append(RouterWindowInput(router_id, window, window_digest(list(blobs)), blobs))
    return inputs


@lru_cache(maxsize=None)
def prior(size: int):
    """Round 0 over flows ``0 .. size - 1`` on the paper path, or the
    empty genesis state; aggregating never mutates it."""
    if size == 0:
        return CLogState(), None
    inputs = window_inputs([record(flow, 1, 5) for flow in range(size)], 0)
    result = Aggregator().aggregate(CLogState(), inputs, None)
    return result.new_state, result.receipt


def assert_same_round(size: int, records: list[NetFlowRecord]) -> None:
    state, receipt = prior(size)
    inputs = window_inputs(records, 1)
    paper = Aggregator().aggregate(state, inputs, receipt)
    batched = BatchedAggregator().aggregate(state, inputs, receipt)
    assert batched.receipt.journal.data == paper.receipt.journal.data
    assert batched.header == paper.header
    assert batched.receipt.journal.decode()[1:] == paper.receipt.journal.decode()[1:]
    assert batched.new_root == paper.new_root == batched.header.new_root
    assert batched.new_state.entry_frames() == paper.new_state.entry_frames()
    assert batched.new_state.round == paper.new_state.round


rounds = st.lists(
    st.tuples(
        st.integers(0, 47),  # flow id: below the prior size updates, above inserts
        st.integers(1, 3),  # router
        st.integers(1, 50),  # packets
    ),
    max_size=24,
)


class TestBatchedEqualsPaperPath:
    @given(st.integers(0, 40), rounds)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_rounds(self, size, specs):
        assert_same_round(size, [record(*spec) for spec in specs])

    @pytest.mark.parametrize("size", [0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17])
    @pytest.mark.parametrize("new", [1, 2, 3, 9, 20])
    def test_capacity_crossings(self, size, new):
        """Every old entry updated (the first twice), then ``new`` new
        flows: every size from genesis past 16, crossing up to four
        capacity boundaries in one round."""
        old = [record(flow, 2, 7) for flow in range(size)]
        fresh = [record(size + flow, 3, 9) for flow in range(new)]
        assert_same_round(size, old[:1] + fresh + old)

    def test_round_without_records(self):
        assert_same_round(5, [])


class TestSetLeaves:
    @given(
        st.integers(0, 40),
        st.lists(st.integers(0, 39), max_size=12),
        st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_leaf_by_leaf(self, size, updates, appends):
        """``set_leaves`` lands on the tree that ``update`` and
        ``append`` one leaf at a time build."""
        leaves = [sha256(b"%d" % index) for index in range(size)]
        batch = {index: sha256(b"new %d" % index) for index in updates if index < size}
        batch.update({size + index: sha256(b"add %d" % index) for index in range(appends)})
        one_by_one = MerkleTree(leaves)
        for index in sorted(batch):
            if index < size:
                one_by_one.update(index, batch[index])
            else:
                one_by_one.append(batch[index])
        batched = MerkleTree(leaves)
        batched.set_leaves(batch)
        assert batched.root == one_by_one.root
        assert batched.depth == one_by_one.depth
        assert batched.leaves() == one_by_one.leaves()
        rebuilt = MerkleTree(one_by_one.leaves())
        assert [batched.prove(i) for i in range(batched.size)] == [
            rebuilt.prove(i) for i in range(rebuilt.size)
        ]

    @pytest.mark.parametrize("indices", [[-1], [5], [2, 4, 6]])
    def test_a_gap_is_refused_before_any_write(self, indices):
        tree = MerkleTree([sha256(b"%d" % index) for index in range(4)])
        root = tree.root
        with pytest.raises(MerkleError, match="gapless"):
            tree.set_leaves({index: sha256(b"x") for index in indices})
        assert (tree.size, tree.root) == (4, root)
