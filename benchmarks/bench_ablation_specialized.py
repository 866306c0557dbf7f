"""§7 ablation — specialized proof systems and hash accounting.

Paper: "the work of [2] offers 600,000 hashes per second on an M3
MacBook Pro.  Since aggregating 3,000 NetFlow records in a Merkle tree
of depth 11 requires ≈35,000 hashes, this would offer a substantial
improvement over our current running time of 87 minutes."

We reproduce both halves: (a) the in-guest hash count for the
3,000-record aggregation is in the tens of thousands, and (b) a
specialized hash prover at 600k hashes/s collapses the 87-minute run to
seconds.
"""

from __future__ import annotations

import pytest

from repro.core.prover_service import ProverService
from repro.zkvm.costmodel import CostModel, ProverBackend

from _workloads import committed_workload, paper_round

MODEL = CostModel()


@pytest.fixture(scope="module")
def agg_3000():
    return paper_round(ProverService(*committed_workload(3000))).info.stats


def test_hash_count_matches_paper_estimate(agg_3000, report):
    """Paper estimate: ≈35,000 Merkle hashes for 3,000 records.  Our
    guest meters every compression (Merkle + commitments + journal);
    the Merkle-attributable share should be the same order."""
    merkle_cycles = agg_3000.cycle_breakdown.get("merkle", 0)
    from repro.zkvm.cycles import SHA256_COMPRESS_CYCLES
    merkle_compressions = merkle_cycles // SHA256_COMPRESS_CYCLES
    # Each tagged node/leaf hash costs ~2 compressions with midstate
    # caching, so hashes ≈ compressions / 2.
    merkle_hashes = merkle_compressions // 2
    report.table(
        "ablate-specialized",
        "§7: hash counts and specialized-prover latency @3000 records",
        ["metric", "ours", "paper"],
    )
    report.row("ablate-specialized", "merkle_hashes", merkle_hashes,
               "~35,000")
    assert 20_000 <= merkle_hashes <= 90_000


def test_specialized_prover_collapses_latency(agg_3000, report):
    cpu_min = MODEL.prove_seconds(agg_3000,
                                  ProverBackend.CPU_ZKVM) / 60
    specialized_s = MODEL.prove_seconds(
        agg_3000, ProverBackend.SPECIALIZED_HASH)
    hash_only_s = agg_3000.sha_compressions / 600_000.0
    report.row("ablate-specialized", "cpu_zkvm_minutes", cpu_min, "~87")
    report.row("ablate-specialized", "specialized_seconds",
               specialized_s, "(seconds)")
    report.row("ablate-specialized", "hash_time_at_600k/s",
               hash_only_s, "<1s")
    assert cpu_min == pytest.approx(87, rel=0.10)
    assert specialized_s < 60
    assert hash_only_s < 1.0


@pytest.mark.parametrize("backend", list(ProverBackend))
def test_backend_latency_ordering(benchmark, agg_3000, backend):
    seconds = benchmark(
        lambda: MODEL.prove_seconds(agg_3000, backend))
    assert seconds > 0
    cpu = MODEL.prove_seconds(agg_3000, ProverBackend.CPU_ZKVM)
    assert MODEL.prove_seconds(agg_3000, backend) <= cpu
