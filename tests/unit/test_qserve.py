"""Unit tests for the multi-tenant query-serving layer.

Covers the three loop-affine admission pieces (token bucket, fair
queue, admission controller), the tiered result cache, and the typed
error surface of :class:`~repro.qserve.service.QueryService` and the
fan-out it batches through
(:meth:`~repro.core.query_proof.QueryProver.prove_queries_partitioned`).
Everything here is deterministic: buckets run on injected clocks, and
the only proving is a couple of tiny real rounds for the service-level
tests.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.prover_service import ProverService
from repro.core.query_proof import QueryProver
from repro.errors import (
    AdmissionRejected,
    ChainError,
    ConfigurationError,
    NetworkError,
    ProofError,
    QuerySyntaxError,
    StorageError,
)
from repro.qserve import (
    AdmissionController,
    FairQueue,
    QueryResultCache,
    QueryService,
    TokenBucket,
    result_cache_key,
)
from repro.qserve.admission import REASON_CAPACITY, REASON_RATE
from repro.storage import MemoryLogStore

from ..conftest import make_committed_records


class FakeClock:
    """A hand-cranked monotonic clock for bucket tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_throttle(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.try_take() for _ in range(4)] == \
            [True, True, True, False]

    def test_continuous_refill_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        for _ in range(3):
            bucket.try_take()
        clock.advance(0.49)  # 0.98 tokens: not yet a whole one
        assert not bucket.try_take()
        clock.advance(0.02)  # 1.02 tokens
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=clock)
        clock.advance(60.0)
        assert bucket.tokens == 2.0

    def test_clock_going_backwards_is_harmless(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=1.0, clock=clock)
        assert bucket.try_take()
        clock.now = -5.0
        assert not bucket.try_take()
        clock.now = 1.0
        assert bucket.try_take()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1, burst=0.5)


class TestFairQueue:
    def test_fifo_within_a_tenant(self):
        queue = FairQueue()
        for i in range(3):
            queue.push("a", f"a{i}")
        assert list(queue.drain(10)) == ["a0", "a1", "a2"]
        assert len(queue) == 0

    def test_round_robin_across_tenants(self):
        queue = FairQueue()
        # A hot tenant floods its queue; a light one lands after.
        for i in range(4):
            queue.push("hot", f"h{i}")
        queue.push("light", "l0")
        drained = list(queue.drain(10))
        # One-per-tenant-per-pass: light is served second, not fifth.
        assert drained[:2] == ["h0", "l0"]
        assert drained[2:] == ["h1", "h2", "h3"]

    def test_rotation_does_not_favour_first_tenant(self):
        queue = FairQueue()
        for tenant in ("a", "b"):
            for i in range(2):
                queue.push(tenant, f"{tenant}{i}")
        # Drain one at a time: service order must alternate.
        order = [list(queue.drain(1))[0] for _ in range(4)]
        assert order == ["a0", "b0", "a1", "b1"]

    def test_drain_respects_limit(self):
        queue = FairQueue()
        for i in range(5):
            queue.push("a", i)
        assert list(queue.drain(2)) == [0, 1]
        assert len(queue) == 3

    def test_clear_returns_everything(self):
        queue = FairQueue()
        queue.push("a", 1)
        queue.push("b", 2)
        assert sorted(queue.clear()) == [1, 2]
        assert len(queue) == 0
        assert list(queue.drain(10)) == []


class TestAdmissionController:
    def test_capacity_rejection_is_typed(self):
        admission = AdmissionController(max_inflight=2)
        admission.admit("a")
        admission.admit("b")
        with pytest.raises(AdmissionRejected) as info:
            admission.admit("c")
        assert info.value.reason == REASON_CAPACITY
        admission.release()
        admission.admit("c")  # slot returned

    def test_rate_rejection_is_typed_and_per_tenant(self):
        clock = FakeClock()
        admission = AdmissionController(max_inflight=100,
                                        tenant_rate=1.0,
                                        tenant_burst=2.0,
                                        clock=clock)
        admission.admit("hot")
        admission.admit("hot")
        with pytest.raises(AdmissionRejected) as info:
            admission.admit("hot")
        assert info.value.reason == REASON_RATE
        # Another tenant has its own bucket.
        admission.admit("cold")
        # And the hot tenant recovers at the configured rate.
        clock.advance(1.0)
        admission.admit("hot")

    def test_rate_checked_before_capacity(self):
        """A throttled tenant is told to slow down even when the
        global queue is also full — the actionable reason wins."""
        clock = FakeClock()
        admission = AdmissionController(max_inflight=1,
                                        tenant_rate=1.0,
                                        tenant_burst=1.0,
                                        clock=clock)
        admission.admit("hot")  # consumes the slot AND the token
        with pytest.raises(AdmissionRejected) as info:
            admission.admit("hot")
        assert info.value.reason == REASON_RATE

    def test_rejected_request_costs_no_slot(self):
        admission = AdmissionController(max_inflight=1)
        admission.admit("a")
        for _ in range(3):
            with pytest.raises(AdmissionRejected):
                admission.admit("b")
        assert admission.inflight == 1
        admission.release()
        assert admission.inflight == 0
        admission.release()  # over-release is clamped
        assert admission.inflight == 0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ConfigurationError):
            AdmissionController(tenant_rate=-1.0)


def _responses(n=3):
    """A few real proven responses to feed cache tests."""
    store, bulletin, _ = make_committed_records(20, seed=3)
    service = ProverService(store, bulletin)
    service.aggregate_all_committed()
    sqls = ["SELECT COUNT(*) FROM clogs",
            "SELECT SUM(octets) FROM clogs",
            "SELECT MIN(packets), MAX(packets) FROM clogs"]
    return [service.answer_query(sql) for sql in sqls[:n]]


class BrokenStore(MemoryLogStore):
    """A persistent tier that fails on demand."""

    def __init__(self) -> None:
        super().__init__()
        self.broken = False

    def get_checkpoint(self, name):
        if self.broken:
            raise StorageError("checkpoint tier is down")
        return super().get_checkpoint(name)

    def put_checkpoint(self, name, data):
        if self.broken:
            raise StorageError("checkpoint tier is down")
        super().put_checkpoint(name, data)


class TestQueryResultCache:
    def test_memory_lru_bound_and_eviction(self):
        responses = _responses(3)
        cache = QueryResultCache(memory_entries=2)
        for response in responses:
            cache.put(response)
        first = responses[0]
        assert cache.get(first.sql, first.round, first.root) is None
        for response in responses[1:]:
            assert cache.get(response.sql, response.round,
                             response.root) is response
        stats = cache.stats()
        assert stats["memory_entries"] == 2
        assert stats["evictions"] == 1

    def test_persistent_round_trip_and_promotion(self):
        (response,) = _responses(1)
        store = MemoryLogStore()
        warm = QueryResultCache(store=store)
        warm.put(response)
        # A fresh cache over the same store: persistent hit, promoted.
        cold = QueryResultCache(store=store)
        hit = cold.get(response.sql, response.round, response.root)
        assert hit is not None
        assert hit.receipt.journal.data == response.receipt.journal.data
        # Promotion: the next lookup is a memory hit (same object).
        assert cold.get(response.sql, response.round,
                        response.root) is hit

    def test_corrupt_persistent_entry_is_a_miss(self):
        (response,) = _responses(1)
        store = MemoryLogStore()
        cache = QueryResultCache(store=store)
        key = result_cache_key(response.sql, response.round,
                               response.root)
        store.put_checkpoint(f"query-results/{key.hex()}",
                             b"\x00garbage")
        assert cache.get(response.sql, response.round,
                         response.root) is None
        # The tier is NOT degraded by corruption — a later put works.
        cache.put(response)
        fresh = QueryResultCache(store=store)
        assert fresh.get(response.sql, response.round,
                         response.root) is not None

    def test_mismatched_entry_is_never_served(self):
        """An entry filed under the wrong key (sql/root cross-check)
        decodes fine but must not be returned."""
        from repro.hashing import seal_blob
        from repro.serialization import encode_query_response
        (response,) = _responses(1)
        store = MemoryLogStore()
        cache = QueryResultCache(store=store)
        other_sql = "SELECT SUM(octets) FROM clogs"
        key = result_cache_key(other_sql, response.round, response.root)
        # Sealed correctly, so it passes the integrity check and is
        # rejected by the (sql, root) cross-check alone.
        store.put_checkpoint(
            f"query-results/{key.hex()}",
            seal_blob(encode_query_response(response)))
        assert cache.get(other_sql, response.round,
                         response.root) is None

    def test_entry_for_another_round_is_never_served(self):
        """A real answer sealed under the next round's key: its sql and
        root match the lookup, so only the round keeps it out."""
        from repro.hashing import seal_blob
        from repro.serialization import encode_query_response
        (response,) = _responses(1)
        store = MemoryLogStore()
        other_round = response.round + 1
        key = result_cache_key(response.sql, other_round, response.root)
        store.put_checkpoint(
            f"query-results/{key.hex()}",
            seal_blob(encode_query_response(response)))
        assert QueryResultCache(store=store).get(
            response.sql, other_round, response.root) is None

    def test_storage_error_degrades_to_memory_only(self):
        (response,) = _responses(1)
        store = BrokenStore()
        cache = QueryResultCache(store=store)
        store.broken = True
        cache.put(response)  # write fails quietly → degraded
        assert cache.stats()["persistent"] is False
        # Memory tier still serves; the broken store is never retried.
        assert cache.get(response.sql, response.round,
                         response.root) is response

    def test_clear_drops_memory_keeps_persistent(self):
        (response,) = _responses(1)
        store = MemoryLogStore()
        cache = QueryResultCache(store=store)
        cache.put(response)
        cache.clear()
        assert cache.stats()["memory_entries"] == 0
        # Root-keyed persistent entries survive a restore...
        hit = cache.get(response.sql, response.round, response.root)
        assert hit is not None
        # ...but a diverged root can never be served.
        from repro.hashing import tagged_hash
        other_root = tagged_hash("test/diverged", b"x")
        assert cache.get(response.sql, response.round,
                         other_root) is None

    def test_key_separates_sql_round_and_root(self):
        from repro.hashing import tagged_hash
        root = tagged_hash("test/root", b"r")
        base = result_cache_key("SELECT COUNT(*) FROM clogs", 0, root)
        assert base == result_cache_key(
            "SELECT COUNT(*) FROM clogs", 0, root)
        assert base != result_cache_key(
            "SELECT SUM(octets) FROM clogs", 0, root)
        assert base != result_cache_key(
            "SELECT COUNT(*) FROM clogs", 1, root)
        assert base != result_cache_key(
            "SELECT COUNT(*) FROM clogs", 0,
            tagged_hash("test/root", b"other"))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            QueryResultCache(memory_entries=0)


@pytest.fixture(scope="module")
def served():
    """A small aggregated engine-backed service for QueryService tests."""
    store, bulletin, _ = make_committed_records(30, seed=9)
    service = ProverService(store, bulletin, pool_backend="thread",
                            prove_workers=2)
    service.aggregate_all_committed()
    yield service
    service.close()


def run(coro):
    return asyncio.run(coro)


class TestQueryService:
    def test_submit_requires_running_service(self, served):
        qserve = QueryService(served)

        async def scenario():
            with pytest.raises(NetworkError):
                await qserve.submit("SELECT COUNT(*) FROM clogs")

        run(scenario())

    def test_typed_errors_before_admission(self, served):
        """Bad SQL and bad rounds raise their own types and never cost
        a token or an in-flight slot."""
        qserve = QueryService(served, tenant_rate=1.0, tenant_burst=1.0)

        async def scenario():
            await qserve.start()
            try:
                with pytest.raises(QuerySyntaxError):
                    await qserve.submit("SELECT NOT VALID")
                with pytest.raises(ProofError):
                    await qserve.submit("SELECT COUNT(*) FROM clogs",
                                        round_index=99)
                # The tenant's single token is still available.
                response = await qserve.submit(
                    "SELECT COUNT(*) FROM clogs")
                assert response.value() == len(served.state)
            finally:
                await qserve.stop()

        run(scenario())

    def test_empty_chain_is_a_chain_error(self):
        store, bulletin, _ = make_committed_records(10, seed=4)
        service = ProverService(store, bulletin)  # nothing aggregated
        qserve = QueryService(service)

        async def scenario():
            await qserve.start()
            try:
                with pytest.raises(ChainError):
                    await qserve.submit("SELECT COUNT(*) FROM clogs")
            finally:
                await qserve.stop()

        run(scenario())

    def test_cache_hit_skips_the_queue(self, served):
        qserve = QueryService(served)
        sql = "SELECT COUNT(*) FROM clogs"
        warm = served.answer_query(sql)

        async def scenario():
            await qserve.start()
            try:
                response = await qserve.submit(sql)
                assert response is warm
                assert qserve.stats()["inflight"] == 0
            finally:
                await qserve.stop()

        run(scenario())

    def test_stop_fails_queued_tickets(self, served):
        """Tickets still queued at stop() get a typed failure rather
        than hanging forever — and stop() itself returns at once, not
        after the batch window the dispatcher is lingering in."""
        qserve = QueryService(served, batch_window=30.0)
        served.query_cache.clear()

        async def scenario():
            await qserve.start()
            task = asyncio.ensure_future(qserve.submit(
                "SELECT SUM(octets) FROM clogs WHERE packets > 1"))
            # Let the submit reach the queue (the long batch window
            # keeps the dispatcher from proving it yet).
            await asyncio.sleep(0.05)
            loop = asyncio.get_running_loop()
            started = loop.time()
            await qserve.stop()
            assert loop.time() - started < 1.0
            with pytest.raises(NetworkError):
                await task
            assert qserve.stats()["inflight"] == 0

        run(scenario())

    def test_batch_window_still_lingers(self, served):
        """The interruptible linger is still a linger: a lone query
        waits out the window before it is proven, and a second one
        landing inside the window rides the same drain."""
        qserve = QueryService(served, batch_window=0.2)
        served.query_cache.clear()

        async def scenario():
            await qserve.start()
            try:
                loop = asyncio.get_running_loop()
                started = loop.time()
                first = asyncio.ensure_future(qserve.submit(
                    "SELECT MIN(packets) FROM clogs"))
                await asyncio.sleep(0.05)
                assert qserve.stats()["queued"] == 1
                second = asyncio.ensure_future(qserve.submit(
                    "SELECT MAX(packets) FROM clogs"))
                await asyncio.gather(first, second)
                assert loop.time() - started >= 0.2
            finally:
                await qserve.stop()

        run(scenario())

    def test_config_validation(self, served):
        with pytest.raises(ConfigurationError):
            QueryService(served, batch_window=-1.0)
        with pytest.raises(ConfigurationError):
            QueryService(served, batch_max=0)

    def test_batch_disabled_without_engine(self):
        store, bulletin, _ = make_committed_records(10, seed=5)
        service = ProverService(store, bulletin)  # no engine
        assert QueryService(service).stats()["batch"] is False

    def test_batch_follows_the_engine(self, served):
        """Batching is what an engine-backed service does: the stat is
        derived from the attached engine, not from a switch."""
        assert served.engine is not None
        assert QueryService(served).stats()["batch"] is True


class TestBatchQueryProver:
    """Input validation of the shared-scan fan-out the service batches
    through (:meth:`QueryProver.prove_queries_partitioned`)."""

    def test_duplicate_sqls_rejected(self, served):
        prover = QueryProver(engine=served.engine)
        sql = "SELECT COUNT(*) FROM clogs"
        with pytest.raises(ConfigurationError):
            prover.prove_queries_partitioned(
                [sql, sql], served.state, served.chain.latest.receipt, 2)

    def test_empty_batch_and_empty_state_rejected(self, served):
        from repro.core.clog import CLogState
        prover = QueryProver(engine=served.engine)
        with pytest.raises(ConfigurationError):
            prover.prove_queries_partitioned(
                [], served.state, served.chain.latest.receipt, 2)
        with pytest.raises(ProofError):
            prover.prove_queries_partitioned(
                ["SELECT COUNT(*) FROM clogs"], CLogState(),
                served.chain.latest.receipt, 2)
