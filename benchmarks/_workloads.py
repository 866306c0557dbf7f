"""Shared workload builders for the benchmark suite.

Every figure/table benchmark needs the same substrate the paper used:
the 4-router topology with N committed NetFlow records in a window,
ready for aggregation and querying.
"""

from __future__ import annotations

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.aggregation import AggregationResult, Aggregator
from repro.core.clog import CLogState
from repro.core.prover_service import ProverService
from repro.netflow import NetworkTopology, TrafficGenerator
from repro.netflow.generator import TrafficConfig
from repro.netflow.records import NetFlowRecord
from repro.storage import MemoryLogStore

# The x-axis of Figure 4 and Table 1.
PAPER_RECORD_COUNTS = (50, 100, 500, 1000, 2000, 3000)

# Paper-reported reference points (§6, Table 1).
PAPER_AGG_MINUTES_AT_3000 = 87.0
PAPER_QUERY_MINUTES_AT_3000 = 16.0
PAPER_VERIFY_MS = 3.0
PAPER_TABLE1 = {
    # records: (proof bytes, journal KB, receipt KB)
    50: (256, 3.6, 7.6),
    100: (256, 5.6, 12.0),
    500: (256, 29.3, 58.0),
    1000: (256, 58.9, 116.0),
    2000: (256, 118.1, 231.0),
    3000: (256, 176.7, 346.0),
}

PAPER_QUERY = ('SELECT SUM(hop_count) FROM clogs '
               'WHERE src_ip = "1.1.1.1" AND dst_ip = "9.9.9.9"')


def median_seconds(benchmark) -> float | None:
    """The timed median of ``benchmark``, or ``None`` when
    pytest-benchmark runs untimed (``--benchmark-disable``), where it
    keeps no stats."""
    return benchmark.stats.stats.median if benchmark.stats else None


def committed_workload(num_records: int, seed: int = 7,
                       window_index: int = 0
                       ) -> tuple[MemoryLogStore, BulletinBoard]:
    """Exactly ``num_records`` committed records in one window across
    the paper's 4 routers."""
    topology = NetworkTopology.paper_eval()
    generator = TrafficGenerator(topology, TrafficConfig(seed=seed))
    store = MemoryLogStore()
    bulletin = BulletinBoard()
    per_router: dict[str, list[NetFlowRecord]] = {
        router_id: [] for router_id in topology.router_ids()}
    count = 0
    while count < num_records:
        flow = generator.generate_flow(now_ms=1_000)
        for record in generator.observe(flow):
            if count >= num_records:
                break
            per_router[record.router_id].append(record)
            count += 1
    for router_id, records in per_router.items():
        if not records:
            continue
        store.append_records(router_id, window_index, records)
        bulletin.publish(Commitment(
            router_id=router_id,
            window_index=window_index,
            digest=window_digest([r.to_bytes() for r in records]),
            record_count=len(records),
            published_at_ms=5_000,
        ))
    return store, bulletin


def aggregated_service(num_records: int, seed: int = 7) -> ProverService:
    """A prover service with one proven aggregation round over
    ``num_records``."""
    store, bulletin = committed_workload(num_records, seed)
    service = ProverService(store, bulletin)
    service.aggregate_window(0)
    return service


def paper_round(service: ProverService) -> AggregationResult:
    """Alg. 1 as laid out (``telemetry-aggregation-v1``, the guest the
    cost model is calibrated on) over ``service``'s window 0, from the
    empty CLog.  The service's own state is not touched; its rounds are
    batched, with byte-identical journals."""
    return Aggregator().aggregate(CLogState(), service.gather_window(0),
                                  None)
