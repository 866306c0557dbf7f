"""Design ablation — integrity-window length (the paper's 5 seconds).

§6 commits every 5 seconds "to model a realistic integrity window".
The window length trades off:

* shorter windows → finer tamper-detection granularity and fresher
  aggregation, but more rounds, each paying the fixed proving overhead
  (base + per-segment costs, prev-proof verification);
* longer windows → fewer/larger rounds amortizing the overhead, but a
  longer exposure interval before logs are committed.

We split the same record stream into different window counts and
compare the total modeled proving time plus the per-round overhead
share.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.prover_service import ProverService
from repro.netflow import NetworkTopology, TrafficGenerator
from repro.netflow.generator import TrafficConfig
from repro.storage import MemoryLogStore
from repro.zkvm.costmodel import CostModel

MODEL = CostModel()
TOTAL_RECORDS = 600
WINDOW_COUNTS = (1, 3, 6, 12)


def committed_in_windows(num_windows: int):
    """The same deterministic stream, committed as N windows."""
    topology = NetworkTopology.paper_eval()
    generator = TrafficGenerator(topology, TrafficConfig(seed=7))
    records = []
    while len(records) < TOTAL_RECORDS:
        for record in generator.observe(generator.generate_flow(1_000)):
            records.append(record)
            if len(records) >= TOTAL_RECORDS:
                break
    per_window = (len(records) + num_windows - 1) // num_windows
    store = MemoryLogStore()
    bulletin = BulletinBoard()
    for window in range(num_windows):
        chunk = records[window * per_window:(window + 1) * per_window]
        by_router: dict[str, list] = {}
        for record in chunk:
            by_router.setdefault(record.router_id, []).append(record)
        for router_id, router_records in by_router.items():
            store.append_records(router_id, window, router_records)
            bulletin.publish(Commitment(
                router_id, window,
                window_digest([r.to_bytes() for r in router_records]),
                len(router_records), window * 5_000))
    return store, bulletin


@pytest.mark.parametrize("num_windows", WINDOW_COUNTS)
def test_window_size_sweep(benchmark, report, num_windows):
    store, bulletin = committed_in_windows(num_windows)

    def aggregate_all():
        service = ProverService(store, bulletin)
        return service, service.aggregate_all_committed()

    service, results = benchmark.pedantic(aggregate_all, rounds=1,
                                          iterations=1, warmup_rounds=0)
    total_modeled = sum(MODEL.prove_seconds(r.info.stats)
                        for r in results)
    # The fixed share: each round's proof priced with no cycles, i.e.
    # its base plus per-segment overhead.
    overhead = sum(MODEL.prove_seconds(replace(r.info.stats,
                                               padded_cycles=0))
                   for r in results)
    report.table(
        "ablate-window",
        f"Integrity-window ablation over {TOTAL_RECORDS} records "
        "(total modeled proving time)",
        ["windows", "rounds", "total_min", "fixed_overhead_min",
         "exposure"],
    )
    report.row("ablate-window", num_windows, len(results),
               total_modeled / 60, overhead / 60,
               f"1/{num_windows} of stream")
    assert len(results) == num_windows
    assert len(service.state) > 0


def test_window_tradeoff_shape(report):
    """More windows must cost more total proving time (fixed overheads)
    while each individual round gets cheaper (freshness)."""
    def totals(num_windows):
        store, bulletin = committed_in_windows(num_windows)
        service = ProverService(store, bulletin)
        results = service.aggregate_all_committed()
        per_round = [MODEL.prove_seconds(r.info.stats)
                     for r in results]
        return sum(per_round), max(per_round)

    one_total, one_max = totals(1)
    many_total, many_max = totals(12)
    report.table("ablate-window-verdict",
                 "Window tradeoff: total cost vs per-round latency",
                 ["windows", "total_min", "slowest_round_min"])
    report.row("ablate-window-verdict", 1, one_total / 60, one_max / 60)
    report.row("ablate-window-verdict", 12, many_total / 60,
               many_max / 60)
    assert many_total > one_total       # overheads accumulate
    assert many_max < one_max           # but rounds are fresher/faster
