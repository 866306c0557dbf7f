"""Design-choice ablation — update-path vs full-rebuild aggregation.

DESIGN.md commits to per-record verified Merkle path updates (the
access pattern the paper profiles).  The alternative is shipping the
whole previous CLog into the guest and rebuilding the tree.  Analysis
(src/repro/core/rebuild.py): update costs ≈ records × 2·depth hashes,
rebuild ≈ 2 × (3·size + records); rebuild wins for batch-heavy rounds,
update wins for incremental rounds over a large dataset.  This bench
measures the crossover empirically from metered cycles.

A third column is the batched round guest (the service's default):
step 3 over one multiproof, each touched node hashed once per root.
Whether it is at or below rebuild at every batch is the evidence for
retiring the rebuild guest.
"""

from __future__ import annotations

import pytest

from repro.commitments import window_digest
from repro.core.aggregation import Aggregator, BatchedAggregator, RouterWindowInput
from repro.core.clog import CLogEntry, CLogState
from repro.core.rebuild import RebuildAggregator
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


def base_state(size: int) -> CLogState:
    state = CLogState()
    for index in range(size):
        state.set_entry(CLogEntry.fresh(record_for(index)))
    state.round = 1  # pretend a prior round exists? round 0 needed.
    state.round = 0
    return state


def batch_inputs(start: int, count: int,
                 window: int) -> list[RouterWindowInput]:
    records = [record_for(start + i) for i in range(count)]
    blobs = tuple(r.to_bytes() for r in records)
    return [RouterWindowInput(
        router_id="r1", window_index=window,
        commitment=window_digest(list(blobs)), blobs=blobs)]


def round_stats(strategy: str, state_size: int, batch: int) -> ProveStats:
    """Metered stats of one round of `batch` fresh records over an
    existing CLog of `state_size` entries."""
    # Build the base state through a real round-0 proof so the chain
    # binding is available for round 1.
    genesis_inputs = batch_inputs(0, state_size, window=0)
    genesis = Aggregator().aggregate(CLogState(), genesis_inputs, None)
    inputs = batch_inputs(state_size, batch, window=1)
    aggregator = {"update": Aggregator, "batched": BatchedAggregator,
                  "rebuild": RebuildAggregator}[strategy]()
    result = aggregator.aggregate(genesis.new_state, inputs,
                                  genesis.receipt)
    return result.info.stats


BATCHES = (16, 64, 256, 1024)


@pytest.mark.parametrize("batch", BATCHES)
def test_strategy_crossover_point(benchmark, report, batch):
    update = round_stats("update", STATE_SIZE, batch)
    batched = round_stats("batched", STATE_SIZE, batch)
    rebuild = benchmark.pedantic(
        lambda: round_stats("rebuild", STATE_SIZE, batch),
        rounds=1, iterations=1, warmup_rounds=0)
    winner = "update" if update.total_cycles < rebuild.total_cycles \
        else "rebuild"
    report.table(
        "ablate-strategy",
        f"Update-path vs full-rebuild vs batched over a {STATE_SIZE}-entry "
        "CLog (metered guest cycles per round)",
        ["batch", "update_cycles", "rebuild_cycles", "winner",
         "update_min", "rebuild_min", "batched_cycles", "batched_min",
         "batched<=rebuild"],
    )
    report.row("ablate-strategy", batch, update.total_cycles,
               rebuild.total_cycles, winner,
               MODEL.estimate(update).minutes,
               MODEL.estimate(rebuild).minutes,
               batched.total_cycles, MODEL.estimate(batched).minutes,
               batched.total_cycles <= rebuild.total_cycles)
    assert batched.total_cycles < update.total_cycles


def test_crossover_falls_where_analysis_predicts(report):
    """Crossover ≈ where records × 2·depth = rebuild's size-dependent
    term — for a 512-entry CLog (depth 10) that's a few hundred
    records.  Assert update wins at 16 and rebuild wins at 1024."""
    small_update = round_stats("update", STATE_SIZE, 16).total_cycles
    small_rebuild = round_stats("rebuild", STATE_SIZE, 16).total_cycles
    large_update = round_stats("update", STATE_SIZE, 1024).total_cycles
    large_rebuild = round_stats("rebuild", STATE_SIZE,
                                1024).total_cycles
    report.table("ablate-strategy-verdict",
                 "Strategy crossover verdict",
                 ["batch", "update_wins"])
    report.row("ablate-strategy-verdict", 16,
               small_update < small_rebuild)
    report.row("ablate-strategy-verdict", 1024,
               large_update < large_rebuild)
    assert small_update < small_rebuild
    assert large_rebuild < large_update
