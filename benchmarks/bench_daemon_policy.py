"""Extension bench — background-aggregation scheduling policy.

§4: aggregation "runs independently in the background ... scaled
according to the available resources of the provider."  The daemon's
batching knob trades total prover cost (fewer, larger rounds amortize
fixed overheads) against staleness (how long committed telemetry waits
before it becomes queryable).  This bench replays the same committed
stream under different policies and reports both sides of the tradeoff.
"""

from __future__ import annotations

import pytest

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.daemon import AggregationDaemon, DaemonPolicy
from repro.core.prover_service import ProverService
from repro.netflow import NetworkTopology, TrafficGenerator
from repro.netflow.clock import SimClock
from repro.netflow.generator import TrafficConfig
from repro.storage import MemoryLogStore
from repro.zkvm.costmodel import CostModel

MODEL = CostModel()
NUM_WINDOWS = 8
WINDOW_MS = 5_000


def build_stream():
    """NUM_WINDOWS committed windows of deterministic traffic."""
    topology = NetworkTopology.paper_eval()
    generator = TrafficGenerator(topology, TrafficConfig(seed=7))
    store = MemoryLogStore()
    bulletin_entries = []
    for window in range(NUM_WINDOWS):
        per_router: dict[str, list] = {}
        for _ in range(15):
            flow = generator.generate_flow(window * WINDOW_MS)
            for record in generator.observe(flow):
                per_router.setdefault(record.router_id,
                                      []).append(record)
        for router_id, records in per_router.items():
            store.append_records(router_id, window, records)
            bulletin_entries.append(Commitment(
                router_id, window,
                window_digest([r.to_bytes() for r in records]),
                len(records), (window + 1) * WINDOW_MS))
    return store, bulletin_entries


def replay(batch_limit: int):
    """Publish windows on schedule; let the daemon schedule rounds."""
    store, entries = build_stream()
    bulletin = BulletinBoard()
    clock = SimClock()
    service = ProverService(store, bulletin)
    daemon = AggregationDaemon(
        service, clock,
        DaemonPolicy(batch_limit=batch_limit, max_lag_ms=20_000))
    staleness_ms: list[int] = []
    for window in range(NUM_WINDOWS):
        clock.advance_ms(WINDOW_MS)
        for entry in entries:
            if entry.window_index == window:
                bulletin.publish(entry)
        result = daemon.step()
        if result is not None:
            consumed = {w["w"] for w in
                        result.journal_header["windows"]}
            for w in consumed:
                staleness_ms.append(clock.now_ms()
                                    - (w + 1) * WINDOW_MS)
    # End of stream: flush the tail in the policy's batches (past the
    # lag cap every pending window is due).
    clock.advance_ms(daemon.policy.max_lag_ms)
    while daemon.step() is not None:
        pass
    total_prove_s = sum(MODEL.prove_seconds(r.info.stats)
                        for r in daemon.stats.results)
    avg_staleness = (sum(staleness_ms) / len(staleness_ms)
                     if staleness_ms else 0.0)
    return daemon, total_prove_s, avg_staleness


@pytest.mark.parametrize("batch_limit", [1, 2, 4, 8])
def test_daemon_policy_sweep(benchmark, report, batch_limit):
    daemon, total_prove_s, avg_staleness = benchmark.pedantic(
        lambda: replay(batch_limit), rounds=1, iterations=1,
        warmup_rounds=0)
    report.table(
        "daemon-policy",
        f"Background-aggregation policy over {NUM_WINDOWS} windows "
        "(total modeled prove time vs staleness)",
        ["batch_limit", "rounds", "total_prove_min",
         "avg_staleness_s"],
    )
    report.row("daemon-policy", batch_limit, daemon.stats.rounds,
               total_prove_s / 60, avg_staleness / 1000)
    assert daemon.stats.windows_consumed == NUM_WINDOWS


def test_policy_tradeoff_shape(report):
    """Bigger batches: fewer rounds and less total prove time, at the
    price of staler data."""
    _d1, eager_cost, eager_staleness = replay(1)
    _d8, lazy_cost, lazy_staleness = replay(8)
    report.table("daemon-policy-verdict",
                 "Policy tradeoff: eager (1) vs lazy (8)",
                 ["policy", "total_prove_min", "avg_staleness_s"])
    report.row("daemon-policy-verdict", "batch=1", eager_cost / 60,
               eager_staleness / 1000)
    report.row("daemon-policy-verdict", "batch=8", lazy_cost / 60,
               lazy_staleness / 1000)
    assert lazy_cost < eager_cost
    assert lazy_staleness >= eager_staleness
