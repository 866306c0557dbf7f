"""Every way to configure proving yields the default service's journals.

Where a proof runs and how it is decomposed are deployment choices
(§7 "proof parallelization"), made through ``ProverService`` arguments
— the same ones ``repro serve --pool-backend / --query-partitions``
sets.  This module drives one committed 3-window fixture through every
cell of backend {serial, thread, process} × ``query_partitions``
{None, 2} and asserts, per cell, that

* round and query journals are byte-identical to the engine-less
  default service's;
* ``VerifierClient`` accepts the chain and every answer;
* the cell took the path it names: every round is one monolithic
  proof by the default (batched) round guest, and ``query_partitions=2`` answers come out
  of the query merge guest over partition proofs.
"""

from __future__ import annotations

import itertools

import pytest

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.guest_programs import batched_aggregation_guest, query_guest, query_merge_guest
from repro.core.planner import QueryPlanner
from repro.core.prover_service import ProverService
from repro.core.query_proof import PartitionedQueryInfo
from repro.core.verifier_client import VerifierClient
from repro.netflow import NetworkTopology, TrafficGenerator
from repro.netflow.generator import TrafficConfig
from repro.storage import MemoryLogStore

RECORDS_PER_WINDOW = 150
#: Two rounds: window 0 alone, then windows 1 and 2 together.
ROUNDS = ([0], [1, 2])
QUERIES = (
    "SELECT COUNT(*), SUM(packets) FROM clogs",
    "SELECT AVG(rtt_avg_us) FROM clogs WHERE protocol = 6",
    "SELECT SUM(octets) FROM clogs GROUP BY src_net16",
)

CELLS = list(itertools.product(("serial", "thread", "process"), (None, 2)))


def cell_id(cell: tuple) -> str:
    """``mono``: every round is one monolithic round-guest proof."""
    backend, partitions = cell
    return f"{backend}-q{partitions or 'none'}-mono"


def fixture_windows() -> list[dict[str, list]]:
    """Per window, per router: the records one traffic generator
    observes (new flows every window, seen along their paths)."""
    generator = TrafficGenerator(NetworkTopology.paper_eval(), TrafficConfig(seed=23))
    windows = []
    for window in range(3):
        rows: dict[str, list] = {}
        count = 0
        while count < RECORDS_PER_WINDOW:
            flow = generator.generate_flow(now_ms=1_000 + 5_000 * window)
            for record in generator.observe(flow):
                if count == RECORDS_PER_WINDOW:
                    break
                rows.setdefault(record.router_id, []).append(record)
                count += 1
        windows.append(rows)
    return windows


WINDOWS = fixture_windows()


def committed() -> tuple[MemoryLogStore, BulletinBoard]:
    """A fresh store and bulletin holding the fixture, all committed."""
    store, bulletin = MemoryLogStore(), BulletinBoard()
    for window_index, rows in enumerate(WINDOWS):
        for router_id, records in sorted(rows.items()):
            store.append_records(router_id, window_index, records)
            bulletin.publish(
                Commitment(
                    router_id=router_id,
                    window_index=window_index,
                    digest=window_digest([r.to_bytes() for r in records]),
                    record_count=len(records),
                    published_at_ms=5_000 * (window_index + 1),
                )
            )
    return store, bulletin


def run(service: ProverService) -> dict:
    """Prove the rounds and answer the queries; keep what a cell is judged on."""
    rounds = [service.aggregate_windows(windows) for windows in ROUNDS]
    answers, infos = [], []
    for sql in QUERIES:
        answers.append(service.answer_query(sql))
        infos.append(service.last_prove_info)
    return {
        "receipts": service.chain.receipts(),
        "round_journals": [r.receipt.journal.data for r in rounds],
        "answers": answers,
        "query_journals": [a.receipt.journal.data for a in answers],
        "query_infos": infos,
    }


@pytest.fixture(scope="module")
def default_run() -> dict:
    store, bulletin = committed()
    service = ProverService(store, bulletin)
    assert service.engine is None
    return run(service)


def test_default_service_is_monolithic_and_fixture_partitions(default_run):
    """The oracle proves every round and query monolithically, and at
    this size the planner splits every query, so the partitioned cells
    exercise the fan-out rather than falling back to the full scan."""
    assert {r.claim.image_id for r in default_run["receipts"]} == {
        batched_aggregation_guest.image_id
    }
    assert {a.receipt.claim.image_id for a in default_run["answers"]} == {query_guest.image_id}
    store, bulletin = committed()
    service = ProverService(store, bulletin)
    for windows in ROUNDS:
        service.aggregate_windows(windows)
    planner = QueryPlanner(service.state, len(service.chain.latest_receipt.journal.data))
    assert [planner.choose_strategy(sql, 2) for sql in QUERIES] == ["partitioned"] * 3


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_cell_matches_default_service(cell, default_run):
    backend, partitions = cell
    store, bulletin = committed()
    service = ProverService(
        store,
        bulletin,
        pool_backend=backend,
        prove_workers=2,
        query_partitions=partitions,
    )
    try:
        assert service.engine.pool.backend == backend
        got = run(service)
    finally:
        service.close()

    assert got["round_journals"] == default_run["round_journals"]
    assert got["query_journals"] == default_run["query_journals"]

    verifier = VerifierClient(bulletin)
    chain = verifier.verify_chain(got["receipts"])
    for answer in got["answers"]:
        verifier.verify_query(answer, chain[-1])

    assert {r.claim.image_id for r in got["receipts"]} == {batched_aggregation_guest.image_id}
    query_images = {a.receipt.claim.image_id for a in got["answers"]}
    if partitions:
        assert query_images == {query_merge_guest.image_id}
        assert all(
            isinstance(info, PartitionedQueryInfo) and info.num_partitions == partitions
            for info in got["query_infos"]
        )
    else:
        assert query_images == {query_guest.image_id}
