"""Multi-tenant query-serving benchmarks.

Two of these feed the CI regression gate (``check_regression.py``
against ``results/baseline.json``, normalized by
``test_engine_calibration`` from ``bench_engine.py`` — run the two
files in the same pytest invocation):

* ``test_qserve_serve_100_clients`` — the serving-throughput bench:
  100 concurrent asyncio clients over real TCP, 4 tenants, a warm
  result cache.  This prices the whole non-proving path — framing,
  admission, fair-queue bookkeeping, the tiered cache — which is
  exactly the layer this PR added and the one a regression would
  silently tax on every query.  Queries/sec lands in the report and
  in ``extra_info``.
* ``test_qserve_cold_batch`` — one cold 4-query batch through the
  shared-scan fan-out (fresh engine + receipt cache per iteration),
  the proving-path cost of batched serving.

Both hard-assert correctness on the side: every flood answer matches,
and the batch journals are byte-identical to serial proofs.

``REPRO_BENCH_SLEEP=<seconds>`` injects a per-iteration delay to
verify the gate itself; never set in CI.
"""

from __future__ import annotations

import asyncio
import os
import time

import pytest

from repro.core.prover_service import ProverService
from repro.core.query_proof import QueryProver
from repro.engine import ProvingEngine, ReceiptCache
from repro.net import AsyncQueryClient, ProverServer
from repro.qserve import QueryService

from _workloads import committed_workload

SERVE_RECORDS = int(os.environ.get("REPRO_BENCH_QSERVE_RECORDS",
                                   "600"))
N_CLIENTS = 100
N_TENANTS = 4

QUERIES = [
    "SELECT COUNT(*) FROM clogs",
    "SELECT SUM(octets) FROM clogs",
    "SELECT AVG(rtt_avg_us) FROM clogs",
    "SELECT COUNT(*), SUM(packets) FROM clogs WHERE packets > 50",
]


def _sleep_penalty() -> None:
    delay = float(os.environ.get("REPRO_BENCH_SLEEP", "0") or 0.0)
    if delay > 0:
        time.sleep(delay)


@pytest.fixture(scope="module")
def serve_service():
    store, bulletin = committed_workload(SERVE_RECORDS)
    service = ProverService(store, bulletin, pool_backend="thread",
                            prove_workers=2)
    service.aggregate_window(0)
    yield service
    service.close()


def test_qserve_serve_100_clients(benchmark, report, serve_service):
    """100 concurrent clients against a warm multi-tenant server."""
    service = serve_service
    qserve = QueryService(service, max_inflight=N_CLIENTS * 2,
                          batch_window=0.005)
    for sql in QUERIES:  # warm both cache tiers
        service.answer_query(sql)
    expected = {sql: service.answer_query(sql).receipt.journal.data
                for sql in QUERIES}

    async def flood(server) -> list:
        async def one(index: int):
            async with AsyncQueryClient(server.host,
                                        server.port) as client:
                return await client.query(
                    QUERIES[index % len(QUERIES)],
                    tenant=f"tenant-{index % N_TENANTS}")

        return await asyncio.gather(
            *(one(index) for index in range(N_CLIENTS)))

    server = ProverServer(service, qserve=qserve,
                          max_connections=N_CLIENTS * 2,
                          request_timeout=120.0)
    with server:
        def round_trip():
            _sleep_penalty()
            return asyncio.run(flood(server))

        responses = benchmark.pedantic(round_trip, rounds=10,
                                       iterations=1, warmup_rounds=2)

    assert len(responses) == N_CLIENTS
    for index, response in enumerate(responses):
        assert response.receipt.journal.data == \
            expected[QUERIES[index % len(QUERIES)]]
    qps = N_CLIENTS / benchmark.stats.stats.median
    benchmark.extra_info["queries_per_second"] = qps
    report.table(
        "qserve-throughput",
        f"{N_CLIENTS} concurrent clients, {N_TENANTS} tenants, "
        f"warm cache over {SERVE_RECORDS} records",
        ["clients", "median_s", "queries_per_sec"])
    report.row("qserve-throughput", N_CLIENTS,
               benchmark.stats.stats.median, qps)


def test_qserve_cold_batch(benchmark, report, serve_service):
    """One cold 4-query batch: shared partition scan + per-query
    merges, proven through a fresh engine each iteration."""
    service = serve_service
    receipt = service.chain.latest.receipt
    serial = {}
    for sql in QUERIES:
        response, _ = QueryProver().prove_query(sql, service.state,
                                                receipt)
        serial[sql] = response

    def cold_batch():
        _sleep_penalty()
        with ProvingEngine(backend="thread", max_workers=4,
                           cache=ReceiptCache()) as engine:
            # The query service's batching call, opts included.
            return QueryProver(
                engine.opts, engine=engine).prove_queries_partitioned(
                QUERIES, service.state, receipt, 4)

    results = benchmark.pedantic(cold_batch, rounds=5, iterations=1,
                                 warmup_rounds=1)
    for sql, result in zip(QUERIES, results):
        assert not isinstance(result, Exception), result
        response, _info = result
        assert response.receipt.journal.data == \
            serial[sql].receipt.journal.data
    report.table(
        "qserve-cold-batch",
        f"cold 4-query batch over {SERVE_RECORDS} records "
        "(shared scan, 4 partitions)",
        ["queries", "flows", "median_s"])
    report.row("qserve-cold-batch", len(QUERIES),
               len(service.state), benchmark.stats.stats.median)
