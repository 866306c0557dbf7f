"""Design-choice ablation — Alg. 1's per-record path updates vs the
batched round update.

DESIGN.md commits to verified Merkle path updates (the access pattern
the paper profiles).  Alg. 1 hashes every record's old and new path,
≈ records × 2·depth hashes; the batched round guest (the one the
service proves with) checks and recomputes one multiproof, hashing each
touched node once per root.  This bench meters both over a standing
CLog at growing batch sizes; batched must be at or below Alg. 1 at
every batch.
"""

from __future__ import annotations

import pytest

from repro.commitments import window_digest
from repro.core.aggregation import Aggregator, BatchedAggregator, RouterWindowInput
from repro.core.clog import CLogState
from repro.netflow.records import FlowKey, NetFlowRecord
from repro.zkvm.costmodel import CostModel
from repro.zkvm.prover import ProveStats

MODEL = CostModel()
STATE_SIZE = 512


def record_for(index: int) -> NetFlowRecord:
    return NetFlowRecord(
        router_id="r1",
        key=FlowKey("10.0.0.1", "172.16.0.1", 1000 + index % 60000,
                    2000, 6),
        packets=10, octets=1000,
        first_switched_ms=0, last_switched_ms=1000,
        hop_count=2, lost_packets=1, rtt_us=5000, jitter_us=100)


def batch_inputs(start: int, count: int,
                 window: int) -> list[RouterWindowInput]:
    records = [record_for(start + i) for i in range(count)]
    blobs = tuple(r.to_bytes() for r in records)
    return [RouterWindowInput(
        router_id="r1", window_index=window,
        commitment=window_digest(list(blobs)), blobs=blobs)]


def round_stats(aggregator: type[Aggregator], state_size: int,
                batch: int) -> ProveStats:
    """Metered stats of one ``aggregator`` round of `batch` fresh
    records over an existing CLog of `state_size` entries."""
    # Build the base state through a real round-0 proof so the chain
    # binding is available for round 1.
    genesis_inputs = batch_inputs(0, state_size, window=0)
    genesis = Aggregator().aggregate(CLogState(), genesis_inputs, None)
    inputs = batch_inputs(state_size, batch, window=1)
    result = aggregator().aggregate(genesis.new_state, inputs,
                                    genesis.receipt)
    return result.info.stats


BATCHES = (16, 64, 256, 1024)


@pytest.mark.parametrize("batch", BATCHES)
def test_batched_at_or_below_update(benchmark, report, batch):
    update = round_stats(Aggregator, STATE_SIZE, batch)
    batched = benchmark.pedantic(
        lambda: round_stats(BatchedAggregator, STATE_SIZE, batch),
        rounds=1, iterations=1, warmup_rounds=0)
    report.table(
        "ablate-strategy",
        f"Alg. 1 vs batched round update over a {STATE_SIZE}-entry "
        "CLog (metered guest cycles per round)",
        ["batch", "update_cycles", "update_min", "batched_cycles",
         "batched_min", "batched<=update"],
    )
    report.row("ablate-strategy", batch, update.total_cycles,
               MODEL.estimate(update).minutes, batched.total_cycles,
               MODEL.estimate(batched).minutes,
               batched.total_cycles <= update.total_cycles)
    assert batched.total_cycles <= update.total_cycles
