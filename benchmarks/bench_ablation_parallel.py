"""§7 ablation — proof parallelization.

Paper: "NetFlow entries can be partitioned by flow ID or router ID,
with separate proofs generated in parallel.  These partial proofs can
then be merged into a single final proof, reducing end-to-end latency."
We sweep the partition count over the same workload and report the
modeled end-to-end latency (slowest partition + merge) against the
sequential baseline.
"""

from __future__ import annotations

import pytest

from repro.core.prover_service import ProverService
from repro.engine import ProvingEngine, ReceiptCache
from repro.zkvm.costmodel import CostModel

from _workloads import committed_workload

MODEL = CostModel()
WORKLOAD_RECORDS = 800


@pytest.fixture(scope="module")
def window_inputs():
    store, bulletin = committed_workload(WORKLOAD_RECORDS)
    return ProverService(store, bulletin).gather_window(0)


def cold_round(window_inputs, num_partitions):
    """One partition-and-merge round on an engine with an empty
    receipt cache, so every proof in it is a cold prove."""
    with ProvingEngine(cache=ReceiptCache()) as engine:
        return engine.prove_round(window_inputs, num_partitions)


@pytest.mark.parametrize("num_partitions", [1, 2, 4])
def test_ablation_partition_sweep(benchmark, report, window_inputs,
                                  num_partitions):
    # Multiple rounds keep the median stable enough for the CI
    # regression gate.
    result = benchmark.pedantic(
        cold_round, args=(window_inputs, num_partitions),
        rounds=5, iterations=1, warmup_rounds=1)
    parallel_s = result.modeled_seconds(MODEL)
    sequential_s = result.sequential_seconds(MODEL)
    report.table(
        "ablate-parallel",
        f"§7 proof parallelization over {WORKLOAD_RECORDS} records "
        "(modeled end-to-end latency)",
        ["partitions", "parallel_min", "sequential_min", "speedup"],
    )
    report.row("ablate-parallel", num_partitions, parallel_s / 60,
               sequential_s / 60, sequential_s / parallel_s)
    if num_partitions == 1:
        assert sequential_s / parallel_s == pytest.approx(1.0, rel=0.01)
    else:
        assert sequential_s / parallel_s > 1.3


def test_ablation_partitioned_result_is_deterministic(window_inputs,
                                                      report):
    """Re-running with the same partition count reproduces the root
    bit-for-bit, and the combined flow count is partition-independent
    (slot order — hence the root — legitimately depends on the merge
    order, but the *content* must not)."""
    results = {
        n: cold_round(window_inputs, n) for n in (1, 2, 4)
    }
    report.table("ablate-parallel-consistency",
                 "Determinism & content independence across partitions",
                 ["partitions", "flows", "root"])
    for n, result in results.items():
        report.row("ablate-parallel-consistency", n, result.size,
                   result.new_root.short())
        rerun = cold_round(window_inputs, n)
        assert rerun.new_root == result.new_root
    assert len({result.size for result in results.values()}) == 1
