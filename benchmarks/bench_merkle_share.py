"""§6 profiling claim — Merkle work dominates in-guest cycles.

Paper: "Profiling with RISC Zero indicates that the majority of this
overhead stems from Merkle tree updates performed within the zkVM."
Our cycle meter attributes every compression to a category; this bench
reproduces the profile on Alg. 1 as the paper lays it out
(:func:`_workloads.paper_round`), and reports the batched round guest —
the one the service proves with, which hashes each touched node once —
beside it.
"""

from __future__ import annotations

import pytest

from repro.merkle import MerkleTree
from repro.hashing import sha256
from repro.zkvm.costmodel import CostModel

from _workloads import PAPER_QUERY, aggregated_service, paper_round

MODEL = CostModel()


@pytest.fixture(scope="module")
def profile():
    """Stats of the Alg. 1 round, the batched round and the paper's
    query, all over the same 2,000 records."""
    service = aggregated_service(2000)
    batched = service.last_prove_info.stats
    agg = paper_round(service).info.stats
    service.answer_query(PAPER_QUERY)
    query = service.last_prove_info.stats
    return agg, batched, query


def test_merkle_dominates_aggregation(profile, report):
    agg, _batched, _query = profile
    breakdown = agg.cycle_breakdown
    merkle_share = breakdown.get("merkle", 0) / agg.total_cycles
    report.table(
        "merkle-share",
        "§6 profiling: in-guest cycle share by category @2000 records",
        ["phase", "category", "cycles", "share"],
    )
    for category, cycles in sorted(breakdown.items(),
                                   key=lambda kv: -kv[1]):
        report.row("merkle-share", "aggregation", category, cycles,
                   cycles / agg.total_cycles)
    assert merkle_share > 0.5  # "the majority of this overhead"


def test_batched_aggregation_profile(profile, report):
    """The same round through the batched round guest: the Merkle
    share it leaves, and its cycles and modeled minutes."""
    agg, batched, _query = profile
    for category, cycles in sorted(batched.cycle_breakdown.items(),
                                   key=lambda kv: -kv[1]):
        report.row("merkle-share", "batched", category, cycles,
                   cycles / batched.total_cycles)
    report.table("merkle-share-batched",
                 "§6 profiling: Alg. 1 vs batched round @2000 records",
                 ["guest", "cycles", "merkle_share", "modeled_min"])
    for guest, stats in (("update", agg), ("batched", batched)):
        report.row("merkle-share-batched", guest, stats.total_cycles,
                   stats.cycle_breakdown.get("merkle", 0)
                   / stats.total_cycles,
                   MODEL.prove_seconds(stats) / 60.0)
    assert batched.total_cycles < agg.total_cycles


def test_query_profile_reported(profile, report):
    _agg, _batched, query = profile
    for category, cycles in sorted(query.cycle_breakdown.items(),
                                   key=lambda kv: -kv[1]):
        report.row("merkle-share", "query", category, cycles,
                   cycles / query.total_cycles)
    assert query.total_cycles > 0


def test_host_merkle_update_microbench(benchmark):
    """Substrate microbenchmark: single-leaf update on a 4096-leaf tree
    (the per-record operation the guest pays depth hashes for)."""
    leaves = [sha256(i.to_bytes(4, "big")) for i in range(4096)]
    tree = MerkleTree(leaves)
    new_leaf = sha256(b"updated")

    counter = iter(range(10**9))
    benchmark(lambda: tree.update(next(counter) % 4096, new_leaf))


def test_host_merkle_proof_microbench(benchmark):
    leaves = [sha256(i.to_bytes(4, "big")) for i in range(4096)]
    tree = MerkleTree(leaves)
    root = tree.root
    proof = tree.prove(1234)
    benchmark(lambda: proof.verify(root))
