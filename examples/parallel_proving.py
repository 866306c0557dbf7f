#!/usr/bin/env python3
"""Proof parallelization and prover backends (paper §7).

"ZKP generation in our system can be parallelized by dividing the
workload into smaller, independent segments ... partitioned by flow ID
or router ID, with separate proofs generated in parallel [and] merged
into a single final proof."

This walkthrough partitions one committed window by router, proves the
partitions concurrently, merges them under a single receipt, and then
compares the modeled latency across the §7 backends (CPU zkVM, GPU
zkVM, specialized hash prover).

Run:  python examples/parallel_proving.py
"""

from repro import build_paper_eval_system
from repro.core.guest_programs import merge_guest
from repro.engine import ProvingEngine
from repro.zkvm import verify_receipt
from repro.zkvm.costmodel import CostModel, ProverBackend


def main() -> None:
    system = build_paper_eval_system(target_records=600, seed=3,
                                     flows_per_tick=12)
    windows = system.prover.gather_window(0)
    total_records = sum(len(w.blobs) for w in windows)
    print(f"workload: window 0, {total_records} records across "
          f"{len(windows)} routers\n")

    model = CostModel()
    print(f"{'partitions':>10} {'parallel':>10} {'sequential':>11} "
          f"{'speedup':>8}")
    final = None
    # One engine — one worker pool and receipt cache — for every round.
    with ProvingEngine() as engine:
        for partitions in (1, 2, 4):
            result = engine.prove_round(windows, partitions)
            parts = [info.stats for info in result.partition_infos]
            merge = result.merge_info.stats
            parallel_min = model.fanout_seconds(parts, merge) / 60
            sequential_min = model.fanout_seconds(
                parts, merge, concurrent=False) / 60
            print(f"{partitions:>10} {parallel_min:>8.1f}m "
                  f"{sequential_min:>9.1f}m "
                  f"{sequential_min / parallel_min:>7.2f}x")
            final = result

    # The merged receipt is a single, ordinary receipt.
    verify_receipt(final.receipt, merge_guest.image_id)
    print(f"\nmerged receipt verifies: root {final.new_root.short()}…, "
          f"{final.size} flows, seal {final.receipt.seal_size} B")

    # §7 backends on the 4-partition workload's merge-equivalent:
    stats = final.merge_info.stats
    print(f"\nprover backends (merge step, "
          f"{stats.sha_compressions:,} sha compressions):")
    for backend in ProverBackend:
        seconds = model.prove_seconds(stats, backend)
        print(f"  {backend.value:<18} {seconds:>8.1f} s")


if __name__ == "__main__":
    main()
