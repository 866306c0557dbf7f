"""The multi-tenant query service: admit → batch → prove → cache.

:class:`QueryService` sits between the wire server and a
:class:`~repro.core.prover_service.ProverService` and owns the three
multi-tenant concerns the in-process query path never had:

* **Admission** (:mod:`.admission`): per-tenant token buckets and a
  bounded in-flight count.  Overload turns into an immediate, typed
  ``admission-rejected`` wire error instead of unbounded queueing, and
  a hot tenant only ever drains its own FIFO — the dispatcher serves
  tenants round-robin.
* **Batching**: admitted queries wait up to ``batch_window`` seconds;
  on an engine-backed service, two or more distinct compatible ones
  (same requested round, same committed root at admission) then share
  one partition scan
  (:meth:`~repro.core.query_proof.QueryProver.prove_queries_partitioned`),
  while every query still receives its own standalone receipt.
* **Result caching** (:mod:`.cache`): the service promotes the prover
  service's :class:`~repro.qserve.cache.QueryResultCache` to the
  shared persistent tier and turns on its counters, so identical
  (sql, round, root) requests — from any tenant, before or after a
  restart — replay a proven response without touching a prover.

All bookkeeping is loop-affine: :meth:`submit` and the dispatcher run
on the server's event loop, and only the proving itself
(:meth:`_prove_group`) runs on an executor thread — which is also what
keeps a slow query from stalling concurrent STATUS/METRICS requests.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass, field
from typing import Any

from ..errors import ConfigurationError, NetworkError
from ..hashing import Digest
from ..obs import names as obs_names
from ..obs import runtime as obs
from .admission import AdmissionController

logger = logging.getLogger(__name__)

#: Partition count for batched proving when the service did not
#: configure ``query_partitions`` itself.
DEFAULT_BATCH_PARTITIONS = 4


@dataclass
class _Ticket:
    """One admitted query waiting in the fair queue."""

    sql: str
    round_index: int | None
    tenant: str
    effective_round: int
    root: Digest
    future: "asyncio.Future[Any]" = field(repr=False)


class QueryService:
    """Admission-controlled, batching front-end over a prover service."""

    def __init__(self, service: Any, *,
                 max_inflight: int = 64,
                 tenant_rate: float | None = None,
                 tenant_burst: float | None = None,
                 batch_window: float = 0.005,
                 batch_max: int = 16) -> None:
        if batch_window < 0:
            raise ConfigurationError("batch_window must be >= 0")
        if batch_max < 1:
            raise ConfigurationError("batch_max must be >= 1")
        self.service = service
        self._admission = AdmissionController(
            max_inflight=max_inflight,
            tenant_rate=tenant_rate,
            tenant_burst=tenant_burst)
        self.batch_window = batch_window
        self.batch_max = batch_max
        # Batched proving needs the engine's fan-out queue; without one
        # the service still admits, caches, and fair-queues — it just
        # proves each query serially off-loop.
        engine = getattr(service, "engine", None)
        self._fanout_prover = None
        if engine is not None:
            from ..core.query_proof import QueryProver
            self._fanout_prover = QueryProver(engine.opts, engine=engine)
        # The shared tiers: persistence + counters are the query
        # service's contract, so turn both on for the service's cache.
        service.query_cache.attach_store(service.store)
        service.query_cache.enable_observation()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._task: asyncio.Task | None = None
        self._wake: asyncio.Event | None = None
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Start the dispatcher on the running event loop."""
        if self._task is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._closed = False
        self._task = self._loop.create_task(self._dispatch_loop())

    async def stop(self) -> None:
        """Stop dispatching; fail whatever is still queued."""
        if self._task is None:
            return
        self._closed = True
        self._wake.set()
        await self._task
        self._task = None
        for ticket in self._admission.queue.clear():
            if not ticket.future.done():
                ticket.future.set_exception(NetworkError(
                    "query service stopped before answering"))
            self._admission.release()
        self._gauge()

    # -- the front door ------------------------------------------------------

    async def submit(self, sql: str, round_index: int | None = None,
                     tenant: str = "default") -> Any:
        """Admit, (maybe) batch, and answer one query.

        Raises exactly the typed errors the wire protocol maps:
        :class:`~repro.errors.AdmissionRejected` on backpressure,
        :class:`~repro.errors.ChainError` /
        :class:`~repro.errors.ProofError` /
        :class:`~repro.errors.QuerySyntaxError` for invalid requests —
        all *before* the request occupies a queue slot or a prover.
        """
        if self._task is None or self._closed:
            raise NetworkError("query service is not running")
        tenant = tenant or "default"
        registry = obs.registry()
        with obs.tracer().span(obs_names.SPAN_QSERVE_ADMIT,
                               tenant=tenant) as span:
            # Reject malformed queries and bad rounds before they cost
            # anyone a token: admission protects proving capacity, and
            # these requests were never going to reach a prover.
            from ..query import parse_query
            parse_query(sql)
            effective_round, root = \
                self.service.resolve_query_round(round_index)
            try:
                self._admission.admit(tenant)
            except Exception as exc:
                reason = getattr(exc, "reason", "rate")
                registry.counter(obs_names.QSERVE_REJECTED,
                                 ("tenant", "reason")).inc(
                    tenant=tenant, reason=reason)
                span.set("outcome", f"rejected:{reason}")
                raise
            registry.counter(obs_names.QSERVE_ADMITTED,
                             ("tenant",)).inc(tenant=tenant)
            self._gauge()
            cached = self.service.query_cache.get(sql, effective_round,
                                                  root)
            if cached is not None:
                self._admission.release()
                self._gauge()
                span.set("outcome", "cached")
                return cached
            ticket = _Ticket(sql=sql, round_index=round_index,
                             tenant=tenant,
                             effective_round=effective_round,
                             root=root,
                             future=self._loop.create_future())
            depth = self._admission.enqueue(tenant, ticket)
            span.set("outcome", "queued")
            span.set("depth", depth)
            self._wake.set()
        return await ticket.future

    def stats(self) -> dict[str, Any]:
        return {
            "inflight": self._admission.inflight,
            "max_inflight": self._admission.max_inflight,
            "queued": len(self._admission.queue),
            "tenant_rate": self._admission.tenant_rate,
            "batch": self._fanout_prover is not None,
            "batch_window": self.batch_window,
            "batch_max": self.batch_max,
            "cache": self.service.query_cache.stats(),
        }

    # -- dispatcher ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if self._closed:
                return
            while len(self._admission.queue):
                await self._linger()
                if self._closed:
                    return
                tickets = list(
                    self._admission.queue.drain(self.batch_max))
                for group in self._group(tickets):
                    outcomes = await self._loop.run_in_executor(
                        None, self._prove_group, group)
                    for ticket, outcome in outcomes:
                        if not ticket.future.done():
                            if isinstance(outcome, Exception):
                                ticket.future.set_exception(outcome)
                            else:
                                ticket.future.set_result(outcome)
                        self._admission.release()
                    self._gauge()
            if self._closed:
                return

    async def _linger(self) -> None:
        """The batching window: give concurrent submitters a beat to
        land in the queue so compatible queries share one scan.

        Returns early once a full batch is waiting, and — because it
        waits on the wake event rather than sleeping — the moment
        :meth:`stop` is called, so shutdown never waits out the window.
        """
        deadline = self._loop.time() + self.batch_window
        while not self._closed \
                and len(self._admission.queue) < self.batch_max:
            remaining = deadline - self._loop.time()
            if remaining <= 0:
                return
            try:
                await asyncio.wait_for(self._wake.wait(), remaining)
            except asyncio.TimeoutError:
                return
            self._wake.clear()

    @staticmethod
    def _group(tickets: list[_Ticket]) -> list[list[_Ticket]]:
        """Split a drained batch into provable groups.

        Compatible = same requested round *and* same committed root at
        admission: a batch shares partition scans, so every member must
        bind the same state.  (For "latest" requests that straddle a
        new round, the root differs and they simply prove separately.)
        """
        groups: dict[tuple[Any, bytes], list[_Ticket]] = {}
        for ticket in tickets:
            groups.setdefault(
                (ticket.round_index, ticket.root.raw), []).append(ticket)
        return list(groups.values())

    # -- proving (executor thread) -------------------------------------------

    def _prove_group(self, tickets: list[_Ticket]
                     ) -> list[tuple[_Ticket, Any]]:
        """Answer one compatible group; never raises.

        Returns ``(ticket, QueryResponse | Exception)`` pairs — the
        dispatcher settles the futures back on the loop.
        """
        registry = obs.registry()
        outcomes: list[tuple[_Ticket, Any]] = []
        with obs.tracer().span(obs_names.SPAN_QSERVE_BATCH,
                               size=len(tickets)) as span:
            # An earlier group (or a concurrent in-process caller) may
            # have proven some of these while they queued.
            pending: dict[str, list[_Ticket]] = {}
            for ticket in tickets:
                cached = self.service.query_cache.get(
                    ticket.sql, ticket.effective_round, ticket.root)
                if cached is not None:
                    outcomes.append((ticket, cached))
                else:
                    pending.setdefault(ticket.sql, []).append(ticket)
            if not pending:
                span.set("strategy", "cached")
                return outcomes
            sqls = list(pending)
            round_index = tickets[0].round_index
            if self._fanout_prover is not None and len(sqls) > 1:
                span.set("strategy", "batched")
                results = self._prove_batched(sqls, round_index,
                                              registry)
            else:
                span.set("strategy", "serial")
                results = [self._prove_serial(sql, round_index)
                           for sql in sqls]
            for sql, result in zip(sqls, results):
                for ticket in pending[sql]:
                    outcomes.append((ticket, result))
        return outcomes

    def _prove_batched(self, sqls: list[str],
                       round_index: int | None,
                       registry: Any) -> list[Any]:
        """One shared-scan batch, with one retry for faulted members.

        Retrying re-submits the *same* jobs: completed partitions and
        merges replay instantly from the engine's content-addressed
        receipt cache (a cache hit resolves before the fault injector
        even fires), so only the faulted pieces re-prove.
        """
        counter = registry.counter(obs_names.QSERVE_BATCHED,
                                   ("outcome",))

        def attempt() -> list[Any]:
            state, receipt = self.service.query_state(round_index)
            partitions = self.service.query_partitions \
                or DEFAULT_BATCH_PARTITIONS
            if len(state) <= 1:
                # A 1-entry state cannot be partitioned; prove each
                # query serially (still off-loop, still cached).
                return [self._prove_serial(sql, round_index)
                        for sql in sqls]
            outcomes = self._fanout_prover.prove_queries_partitioned(
                sqls, state, receipt, partitions)
            return [outcome if isinstance(outcome, Exception)
                    else outcome[0] for outcome in outcomes]

        try:
            results = attempt()
        except Exception as exc:
            logger.warning("batch of %d queries faulted (%s); "
                           "retrying from cached partitions",
                           len(sqls), exc)
            counter.inc(outcome="retry")
            try:
                results = attempt()
            except Exception as exc2:
                counter.inc(len(sqls), outcome="failed")
                return [exc2] * len(sqls)
        if any(isinstance(result, Exception) for result in results):
            # Per-query merge faults: retry once; everything that
            # already proved replays from the receipt cache.
            counter.inc(outcome="retry")
            try:
                retried = attempt()
            except Exception:
                retried = results
            results = [result if not isinstance(result, Exception)
                       else retried[index]
                       for index, result in enumerate(results)]
        for result in results:
            if isinstance(result, Exception):
                counter.inc(outcome="failed")
            else:
                counter.inc(outcome="proven")
                self.service.query_cache.put(result)
        return results

    def _prove_serial(self, sql: str,
                      round_index: int | None) -> Any:
        """One query through the ordinary service path (handles its
        own caching); exceptions become that query's answer."""
        try:
            return self.service.answer_query(sql, round_index)
        except Exception as exc:
            return exc

    # -- internals -----------------------------------------------------------

    def _gauge(self) -> None:
        obs.registry().gauge(obs_names.QSERVE_INFLIGHT).set(
            self._admission.inflight)


__all__ = [
    "DEFAULT_BATCH_PARTITIONS",
    "QueryService",
]
