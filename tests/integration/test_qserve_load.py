"""Concurrency harness for the multi-tenant query-serving layer.

Hundreds of asyncio clients (coroutines over real TCP connections)
against a threaded :class:`~repro.net.server.ProverServer` running the
:class:`~repro.qserve.service.QueryService`.  The invariants:

* **Exactly-once** — every submitted query receives exactly one
  answer or exactly one typed error; nothing is lost, nothing is
  answered twice (the async client is deliberately single-attempt, so
  the transport cannot blur the accounting).
* **Verifiability under load** — every receipt that comes back
  verifies against the bulletin, and all answers to the same (sql,
  round) carry byte-identical journals no matter which batch proved
  them.
* **Typed backpressure** — overload surfaces as
  :class:`~repro.errors.AdmissionRejected` (never a hang, never an
  untyped 500), and per-tenant rate limits hold within tolerance.
* **Loop responsiveness** — a slow uncached query proves on an
  executor thread, so concurrent STATUS/METRICS requests answer
  immediately instead of queueing behind it.

``REPRO_LOAD_CLIENTS`` scales the client count (default 120).
"""

from __future__ import annotations

import asyncio
import os
import time

import pytest

from repro.core.prover_service import ProverService
from repro.core.verifier_client import VerifierClient
from repro.errors import AdmissionRejected
from repro.net import AsyncQueryClient, ProverServer
from repro.qserve import QueryService

from ..conftest import make_committed_records

N_CLIENTS = int(os.environ.get("REPRO_LOAD_CLIENTS", "120"))
N_TENANTS = 4

# A small family of distinct queries so the load both batches (distinct
# sqls share scans) and coalesces (repeats hit the result cache).
QUERIES = [
    "SELECT COUNT(*) FROM clogs",
    "SELECT SUM(octets) FROM clogs",
    "SELECT AVG(rtt_avg_us) FROM clogs",
    "SELECT COUNT(*), SUM(packets) FROM clogs WHERE packets > 50",
    "SELECT SUM(octets) FROM clogs GROUP BY src_net16",
    "SELECT MIN(packets), MAX(packets) FROM clogs",
]


@pytest.fixture(scope="module")
def backdrop():
    """An aggregated engine-backed service plus its bulletin."""
    store, bulletin, _ = make_committed_records(60, seed=17)
    service = ProverService(store, bulletin, pool_backend="thread",
                            prove_workers=2)
    service.aggregate_all_committed()
    yield service, bulletin
    service.close()


def serve(service, qserve, **kwargs):
    kwargs.setdefault("max_connections", N_CLIENTS * 2)
    kwargs.setdefault("request_timeout", 120.0)
    return ProverServer(service, qserve=qserve, **kwargs)


class TestQServeLoad:
    def test_no_query_lost_or_double_answered(self, backdrop):
        service, bulletin = backdrop
        service.query_cache.clear()
        qserve = QueryService(service, max_inflight=N_CLIENTS * 2,
                              batch_window=0.01)
        server = serve(service, qserve)
        with server:
            outcomes = asyncio.run(self._flood(server))

        assert len(outcomes) == N_CLIENTS
        failures = [o for o in outcomes if isinstance(o, Exception)]
        assert failures == [], failures

        # Same (sql, round) ⇒ byte-identical journal, whichever batch
        # (or cache tier) produced it.
        by_sql: dict[str, bytes] = {}
        for index, response in enumerate(outcomes):
            sql = QUERIES[index % len(QUERIES)]
            assert response.sql == sql
            journal = response.receipt.journal.data
            assert by_sql.setdefault(sql, journal) == journal

        # Every distinct receipt verifies against the public material.
        verifier = VerifierClient(bulletin)
        chain = verifier.verify_chain(service.chain.receipts())
        seen: set[bytes] = set()
        for response in outcomes:
            if response.receipt.journal.data in seen:
                continue
            seen.add(response.receipt.journal.data)
            verifier.verify_query(response, chain[-1])

        stats = qserve.stats()
        assert stats["inflight"] == 0
        assert stats["queued"] == 0
        # The cache did real coalescing work: far fewer proofs than
        # clients.
        assert stats["cache"]["hits"] > 0

    async def _flood(self, server):
        async def one(index: int):
            sql = QUERIES[index % len(QUERIES)]
            tenant = f"tenant-{index % N_TENANTS}"
            try:
                async with AsyncQueryClient(server.host,
                                            server.port) as client:
                    return await client.query(sql, tenant=tenant)
            except Exception as exc:  # typed errors count as outcomes
                return exc

        return await asyncio.gather(
            *(one(index) for index in range(N_CLIENTS)))

    def test_rate_limited_tenant_within_tolerance(self, backdrop):
        """A hot tenant hammering a cache-warm query is throttled to
        its bucket; a polite tenant on the same server is untouched."""
        service, _ = backdrop
        sql = "SELECT COUNT(*) FROM clogs"
        service.answer_query(sql)  # warm: successes cost no proving
        rate, burst = 5.0, 3.0
        qserve = QueryService(service, max_inflight=256,
                              tenant_rate=rate, tenant_burst=burst)
        server = serve(service, qserve)
        with server:
            hot, polite, elapsed = asyncio.run(
                self._hammer(server, sql))

        rejected = [o for o in hot if isinstance(o, Exception)]
        accepted = [o for o in hot if not isinstance(o, Exception)]
        assert rejected, "the hot tenant was never throttled"
        assert all(isinstance(o, AdmissionRejected) for o in rejected)
        assert all("rate limit" in str(o) for o in rejected)
        # Tolerance: the bucket admits at most burst + rate * elapsed
        # whole tokens (+1 for refill raggedness at the boundary).
        assert len(accepted) <= int(burst + rate * elapsed) + 1
        assert len(accepted) >= int(burst)
        # The polite tenant (one request) was never collateral damage.
        assert not isinstance(polite, Exception)

    async def _hammer(self, server, sql):
        start = time.monotonic()
        async with AsyncQueryClient(server.host, server.port) as hot:
            outcomes = []
            for _ in range(40):
                try:
                    outcomes.append(await hot.query(sql, tenant="hot"))
                except AdmissionRejected as exc:
                    outcomes.append(exc)
        elapsed = time.monotonic() - start
        async with AsyncQueryClient(server.host, server.port) as cold:
            try:
                polite = await cold.query(sql, tenant="polite")
            except Exception as exc:
                polite = exc
        return outcomes, polite, elapsed

    def test_capacity_backpressure_is_typed(self, backdrop):
        """Flooding a tiny admission bound yields immediate typed
        rejections for the overflow — and every accepted query still
        answers correctly."""
        service, _ = backdrop
        # A query no other test warms: the shared persistent tier must
        # miss, or every submit would resolve without holding a slot.
        sql = ("SELECT SUM(octets), COUNT(*) FROM clogs "
               "GROUP BY dst_port")
        qserve = QueryService(service, max_inflight=4, batch_window=0.05)
        server = serve(service, qserve)
        with server:
            outcomes = asyncio.run(self._burst(server, 24, sql))

        accepted = [o for o in outcomes if not isinstance(o, Exception)]
        rejected = [o for o in outcomes if isinstance(o, Exception)]
        assert len(accepted) + len(rejected) == 24
        assert rejected, "overflow was absorbed rather than rejected"
        assert all(isinstance(o, AdmissionRejected) for o in rejected)
        assert all("admission queue is full" in str(o)
                   for o in rejected)
        journals = {o.receipt.journal.data for o in accepted}
        assert len(journals) == 1  # everyone got the same proven answer
        assert qserve.stats()["inflight"] == 0

    async def _burst(self, server, count, sql):
        async def one(_index: int):
            try:
                async with AsyncQueryClient(server.host,
                                            server.port) as client:
                    return await client.query(sql, tenant="burst")
            except Exception as exc:
                return exc

        return await asyncio.gather(*(one(i) for i in range(count)))

    def test_slow_query_does_not_stall_status(self, backdrop):
        """Regression: proof work runs on an executor thread, so the
        event loop keeps answering STATUS/METRICS while a cold query
        proves.  (Before the fix, the loop itself proved the query and
        every concurrent request queued behind it.)"""
        service, _ = backdrop
        service.query_cache.clear()
        qserve = QueryService(service, max_inflight=16)
        server = serve(service, qserve)
        with server:
            status_latencies, query_seconds = asyncio.run(
                self._probe(server))

        # The cold proof takes real work; the probes must not inherit
        # any of it.  Generous absolute bound to stay CI-safe.
        assert query_seconds > 0
        assert max(status_latencies) < min(2.0, query_seconds + 2.0)
        assert len(status_latencies) == 10

    async def _probe(self, server):
        sql = ("SELECT SUM(octets), AVG(rtt_avg_us) FROM clogs "
               "WHERE packets > 10 GROUP BY src_port")

        async def slow_query():
            start = time.monotonic()
            async with AsyncQueryClient(server.host,
                                        server.port) as client:
                await client.query(sql, tenant="heavy")
            return time.monotonic() - start

        async def probes():
            latencies = []
            async with AsyncQueryClient(server.host,
                                        server.port) as client:
                for _ in range(10):
                    start = time.monotonic()
                    status = await client.fetch_status()
                    latencies.append(time.monotonic() - start)
                    assert status["service"]["rounds"] >= 1
                    assert status["qserve"] is not None
                    await asyncio.sleep(0.01)
            return latencies

        query_task = asyncio.ensure_future(slow_query())
        await asyncio.sleep(0.05)  # let the query reach the prover
        latencies = await probes()
        query_seconds = await query_task
        return latencies, query_seconds
