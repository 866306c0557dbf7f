"""Figure 4 — proof generation latency vs number of records.

Paper: aggregation-proof latency grows with input size ("primarily due
to the computational cost of Merkle tree construction within the
zkVM"), reaching ≈87 min at 3,000 entries; query proofs follow the same
trend at ≈16 min.  We measure real wall-clock for the simulated prover
(pytest-benchmark) and report the calibrated modeled latency per point.

The aggregation curve is Alg. 1 as the paper lays it out
(:func:`_workloads.paper_round`), the guest the cost model is calibrated
on.  Each point also reports the batched round guest — the one the
service proves with, byte-identical journal — as a second curve.  A
query's cost depends only on the state, which both guests leave the
same, so the query curve runs on the service's own round.
"""

from __future__ import annotations

import pytest

from repro.core.prover_service import ProverService
from repro.zkvm.costmodel import CostModel, ProverBackend

from _workloads import (
    PAPER_AGG_MINUTES_AT_3000,
    PAPER_QUERY,
    PAPER_QUERY_MINUTES_AT_3000,
    PAPER_RECORD_COUNTS,
    aggregated_service,
    committed_workload,
    paper_round,
)

MODEL = CostModel()


@pytest.mark.parametrize("num_records", PAPER_RECORD_COUNTS)
def test_fig4_aggregation_latency(benchmark, report, num_records):
    service = ProverService(*committed_workload(num_records))
    result = benchmark.pedantic(paper_round, args=(service,), rounds=1,
                                iterations=1, warmup_rounds=0)
    stats = result.info.stats
    modeled_min = MODEL.prove_seconds(stats) / 60.0
    batched = service.aggregate_window(0)
    assert batched.receipt.journal.data == result.receipt.journal.data
    batched_stats = batched.info.stats
    report.table(
        "fig4-agg",
        "Figure 4: aggregation proof latency, Alg. 1 and batched "
        f"(paper @3000: {PAPER_AGG_MINUTES_AT_3000:.0f} min)",
        ["records", "cycles", "sha_blocks", "modeled_min",
         "batched_cycles", "batched_min", "paper_min@3000"],
    )
    report.row("fig4-agg", num_records, stats.total_cycles,
               stats.sha_compressions, modeled_min,
               batched_stats.total_cycles,
               MODEL.prove_seconds(batched_stats) / 60.0,
               PAPER_AGG_MINUTES_AT_3000 if num_records == 3000 else "-")
    if num_records == 3000:
        # Calibration check: within 10% of the paper's endpoint.
        assert modeled_min == pytest.approx(PAPER_AGG_MINUTES_AT_3000,
                                            rel=0.10)


@pytest.mark.parametrize("num_records", PAPER_RECORD_COUNTS)
def test_fig4_query_latency(benchmark, report, num_records):
    service = aggregated_service(num_records)

    response = benchmark.pedantic(
        lambda: service.answer_query(PAPER_QUERY),
        rounds=1, iterations=1, warmup_rounds=0)
    assert response.receipt is not None
    stats = service.last_prove_info.stats
    modeled_min = MODEL.prove_seconds(stats) / 60.0
    report.table(
        "fig4-query",
        "Figure 4: query proof latency "
        f"(paper @3000: {PAPER_QUERY_MINUTES_AT_3000:.0f} min)",
        ["records", "entries", "cycles", "modeled_min",
         "paper_min@3000"],
    )
    report.row("fig4-query", num_records, response.scanned,
               stats.total_cycles, modeled_min,
               PAPER_QUERY_MINUTES_AT_3000 if num_records == 3000
               else "-")
    if num_records == 3000:
        # Shape check: within 25% of the paper's endpoint.
        assert modeled_min == pytest.approx(
            PAPER_QUERY_MINUTES_AT_3000, rel=0.25)


def test_fig4_latency_grows_linearly(report):
    """The defining shape of Figure 4: latency ∝ input size."""
    small = paper_round(ProverService(*committed_workload(200)))
    large = paper_round(ProverService(*committed_workload(2_000)))
    small_min = MODEL.prove_seconds(small.info.stats) / 60
    large_min = MODEL.prove_seconds(large.info.stats) / 60
    ratio = large_min / small_min
    report.table("fig4-shape", "Figure 4 shape: 10x records",
                 ["records_ratio", "latency_ratio"])
    report.row("fig4-shape", 10.0, ratio)
    assert 5.0 < ratio < 20.0  # linear-ish, not constant or quadratic


def test_fig4_gpu_backend_order_of_magnitude(report):
    """§7 GPU acceleration: ~10x on the same workload."""
    stats = paper_round(ProverService(*committed_workload(1_000))).info.stats
    cpu = MODEL.prove_seconds(stats, ProverBackend.CPU_ZKVM)
    gpu = MODEL.prove_seconds(stats, ProverBackend.GPU_ZKVM)
    report.table("fig4-gpu", "GPU backend on the Fig. 4 workload",
                 ["records", "cpu_min", "gpu_min", "speedup"])
    report.row("fig4-gpu", 1000, cpu / 60, gpu / 60, cpu / gpu)
    assert cpu / gpu == pytest.approx(10.0)
