"""Unit tests for parallel (partitioned) aggregation —
``ProvingEngine.prove_round``, §7's partition-and-merge round."""

import pytest

from repro.commitments import window_digest
from repro.core.aggregation import RouterWindowInput
from repro.core.guest_programs import merge_guest
from repro.core.policy import AggOp, AggregationPolicy
from repro.engine import ProvingEngine
from repro.errors import ConfigurationError, GuestAbort
from repro.hashing import sha256
from repro.zkvm import verify_receipt
from repro.zkvm.costmodel import CostModel

from ..conftest import make_record


def inputs_for(records_by_router):
    inputs = []
    for router_id, records in sorted(records_by_router.items()):
        blobs = tuple(r.to_bytes() for r in records)
        inputs.append(RouterWindowInput(
            router_id=router_id, window_index=0,
            commitment=window_digest(list(blobs)), blobs=blobs))
    return inputs


@pytest.fixture
def engine():
    with ProvingEngine() as engine:
        yield engine


@pytest.fixture
def four_router_inputs():
    return inputs_for({
        f"r{i}": [make_record(router_id=f"r{i}", sport=1000 + j)
                  for j in range(3)]
        for i in range(1, 5)
    })


class TestParallelAggregation:
    def test_produces_verifiable_receipt(self, engine,
                                         four_router_inputs):
        result = engine.prove_round(four_router_inputs)
        verify_receipt(result.receipt, merge_guest.image_id)
        assert result.size == 3  # 3 distinct flows across 4 routers
        assert len(result.partition_infos) == 4

    def test_matches_sequential_aggregation_content(self, engine,
                                                    four_router_inputs):
        """Partitioned merge must combine to the same per-flow values a
        sequential aggregation produces (associative policy)."""
        from repro.core.aggregation import Aggregator
        from repro.core.clog import CLogState
        sequential = Aggregator().aggregate(CLogState(),
                                            four_router_inputs, None)
        parallel = engine.prove_round(four_router_inputs)
        seq_entries = {e.key: e for e in
                       sequential.new_state.entries_in_slot_order()}
        # Decode parallel journal partials indirectly via size check +
        # root determinism across runs.
        with ProvingEngine() as fresh:
            again = fresh.prove_round(four_router_inputs)
        assert parallel.new_root == again.new_root
        assert parallel.size == len(seq_entries)

    def test_partition_count_clamped(self, engine, four_router_inputs):
        result = engine.prove_round(four_router_inputs,
                                    num_partitions=100)
        assert len(result.partition_infos) == 4  # one per router max

    def test_fewer_partitions_than_routers(self, engine,
                                           four_router_inputs):
        result = engine.prove_round(four_router_inputs, num_partitions=2)
        assert len(result.partition_infos) == 2
        verify_receipt(result.receipt, merge_guest.image_id)

    def test_modeled_speedup(self, engine, four_router_inputs):
        result = engine.prove_round(four_router_inputs)
        model = CostModel()
        assert result.modeled_seconds(model) < \
            result.sequential_seconds(model)

    def test_modeled_seconds_is_critical_path_not_sum(
            self, engine, four_router_inputs):
        """The parallel model is max(partitions) + merge; the sum of
        partition times belongs to sequential_seconds only."""
        result = engine.prove_round(four_router_inputs)
        model = CostModel()
        partition_times = [model.prove_seconds(info.stats)
                           for info in result.partition_infos]
        merge_time = model.prove_seconds(result.merge_info.stats)
        assert result.modeled_seconds(model) == pytest.approx(
            max(partition_times) + merge_time)
        assert result.sequential_seconds(model) == pytest.approx(
            sum(partition_times) + merge_time)

    def test_single_partition_degenerates_to_sequential(
            self, engine, four_router_inputs):
        """With one partition there is no parallelism to exploit:
        modeled and sequential latency coincide."""
        result = engine.prove_round(four_router_inputs, num_partitions=1)
        assert len(result.partition_infos) == 1
        model = CostModel()
        assert result.modeled_seconds(model) == pytest.approx(
            result.sequential_seconds(model))

    def test_empty_inputs_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            engine.prove_round([])

    def test_bad_partition_count(self, engine, four_router_inputs):
        with pytest.raises(ConfigurationError):
            engine.prove_round(four_router_inputs, num_partitions=0)

    def test_tampered_partition_aborts(self, engine, four_router_inputs):
        forged = [four_router_inputs[0]] + [
            RouterWindowInput(router_id=i.router_id,
                              window_index=i.window_index,
                              commitment=sha256(b"nope"), blobs=i.blobs)
            for i in four_router_inputs[1:2]
        ] + four_router_inputs[2:]
        with pytest.raises(GuestAbort, match="commitment mismatch"):
            engine.prove_round(forged)

    def test_non_associative_policy_fails(self, four_router_inputs):
        policy = AggregationPolicy(packets=AggOp.LAST)
        with ProvingEngine(policy=policy) as engine, \
                pytest.raises((ConfigurationError, GuestAbort)):
            engine.prove_round(four_router_inputs)


class TestConstructorValidation:
    """Bad configuration must fail before any job reaches a worker —
    identically on every backend.  (The class and test names predate
    the engine: the partition count is now a ``prove_round`` argument,
    the backend still a constructor one.)"""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_zero_partitions_rejected_in_constructor(
            self, backend, four_router_inputs):
        with ProvingEngine(backend=backend) as engine:
            with pytest.raises(ConfigurationError):
                engine.prove_round(four_router_inputs, num_partitions=0)
            snap = engine.snapshot()
            assert snap["jobs_done"] == snap["in_flight"] == 0

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_negative_partitions_rejected_in_constructor(
            self, backend, four_router_inputs):
        with ProvingEngine(backend=backend) as engine:
            with pytest.raises(ConfigurationError):
                engine.prove_round(four_router_inputs, num_partitions=-3)
            snap = engine.snapshot()
            assert snap["jobs_done"] == snap["in_flight"] == 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            ProvingEngine(backend="quantum")

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_constructor_partitions_used_by_aggregate(
            self, backend, four_router_inputs):
        with ProvingEngine(backend=backend) as engine:
            result = engine.prove_round(four_router_inputs,
                                        num_partitions=2)
        assert len(result.partition_infos) == 2

    def test_receipt_cache_shared_across_aggregate_calls(
            self, four_router_inputs):
        """The engine's cache persists across rounds: a repeated
        identical round replays every proof."""
        with ProvingEngine(backend="serial") as engine:
            cold = engine.prove_round(four_router_inputs)
            warm = engine.prove_round(four_router_inputs)
        assert warm.receipt.to_wire() == cold.receipt.to_wire()
        assert all(info.cached for info in warm.partition_infos)
        assert warm.merge_info.cached
