"""Query proving (§4.2): run a SQL query in the zkVM, bound to the
latest aggregation claim.

The returned :class:`QueryResponse` is what the provider ships to the
client: the result values plus an unconditional receipt whose journal
binds (query text, aggregation root, result).  The client never sees a
CLog entry — only the public journal.

Two proving strategies produce that same journal:

* **full-scan** — the original monolith: one guest re-hashes and
  re-scans the entire entry set (§7 measures ~16 minutes at 3,000
  entries, which is the bottleneck this module exists to attack);
* **partitioned** — the entry set is split into aligned slot ranges,
  each proven as *partial* queries (bound to the aggregation root via a
  subtree sibling path) on the :class:`~repro.engine.ProvingEngine`
  work queue, then folded — one small merge proof per query — into
  journals byte-identical to the full scan's.  One scan serves any
  number of distinct queries over the same committed state.  The
  planner picks whichever is modeled faster for a lone query; clients
  verify both through the same ``VerifierClient.verify_query``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from ..errors import ConfigurationError, ProofError
from ..hashing import Digest
from ..merkle.memo import DigestMemo
from ..obs import names as obs_names
from ..obs import runtime as obs
from ..serialization import DictLayout
from ..zkvm import ExecutorEnvBuilder, ProveInfo, Prover, ProverOpts, Receipt
from ..zkvm.prover import ProveStats
from ..zkvm.recursion import resolve, resolve_all
from .aggregation import make_receipt_binding
from .clog import CLogState
from .guest_programs import (
    query_guest,
    query_merge_guest,
    query_partition_guest,
)
from .journals import QueryJournal

# An entry frame, ``encode({"key": key, "payload": payload})``, written
# without the generic encoder walking a fresh dict per entry.
_ENTRY_FRAME = DictLayout(("key", "payload"))

#: Committed states whose encoded entry frames one process keeps: the
#: latest root and one more (a historical query, or the root a new
#: round just replaced); ~0.24 KiB an entry, so ~0.5 MiB at 2,000.
ENTRY_FRAME_MEMO_CAPACITY = 2

# Root -> the state's entry frames in slot order.  A root binds every
# slot's key and payload, so the frames kept under it are those of any
# state with that root; and a wrong frame could only make a guest
# abort, never prove.
ENTRY_FRAMES: DigestMemo[tuple[bytes, ...]] = \
    DigestMemo(ENTRY_FRAME_MEMO_CAPACITY)


def entry_frames(state: CLogState) -> tuple[bytes, ...]:
    """The guest input frames of every entry of ``state``, in slot
    order (:meth:`CLogState.entry_frames`, encoded): encoded once per
    committed root, then read from :data:`ENTRY_FRAMES`."""
    root = state.root.raw
    frames = ENTRY_FRAMES.get(root)
    if frames is None:
        encode_frame = _ENTRY_FRAME.encode
        frames = tuple(encode_frame(item)
                       for item in state.merkle_map.slot_items())
        ENTRY_FRAMES.put(root, frames)
    return frames


@dataclass(frozen=True)
class QueryResponse:
    """What the client receives for a query."""

    sql: str
    labels: tuple[str, ...]
    values: tuple[int | float | None, ...]
    matched: int
    scanned: int
    round: int
    root: Digest
    receipt: Receipt
    group_by: str | None = None
    groups: tuple[tuple[Any, tuple[int | float | None, ...]], ...] = ()

    @property
    def claim(self) -> QueryJournal:
        """The journal this response claims its receipt commits."""
        return QueryJournal(
            query=self.sql, root=self.root, round=self.round,
            labels=tuple(self.labels), values=tuple(self.values),
            matched=self.matched, scanned=self.scanned,
            group_by=self.group_by, groups=self.groups)

    def value(self, label: str | None = None) -> int | float | None:
        if self.group_by is not None:
            raise ProofError("grouped query: read .groups instead")
        if label is None:
            if len(self.values) != 1:
                raise ProofError("query has multiple result columns; "
                                 "name one")
            return self.values[0]
        try:
            return self.values[self.labels.index(label)]
        except ValueError:
            raise ProofError(f"no result column {label!r}") from None


@dataclass(frozen=True)
class PartitionedQueryInfo:
    """Proving metadata for one partitioned query.

    Duck-compatible with :class:`ProveInfo` where the service relies on
    it (``.receipt``, ``.stats``); ``stats`` totals the work across
    every partition plus this query's merge (queries proven through one
    fan-out share — and each report — the same ``partition_infos``).
    Its modeled latency is :meth:`CostModel.fanout_seconds` over the
    partition and merge stats: partitions prove concurrently, the merge
    after the slowest of them.
    """

    receipt: Receipt
    partition_infos: tuple[Any, ...]
    merge_info: Any
    num_partitions: int
    chunk_po2: int

    @property
    def stats(self) -> ProveStats:
        return ProveStats.combined(
            info.stats
            for info in (*self.partition_infos, self.merge_info))


class QueryProver:
    """Generates query proofs against the current CLog state.

    ``prover`` optionally injects a pool-routed prover (see
    :class:`repro.engine.pool.PooledProver`); the default proves
    in-process.  ``engine`` + ``num_partitions`` opt into partitioned
    proving: :meth:`prove_query` asks the planner whether splitting
    pays for the given query and entry count, and falls back to the
    full scan when it does not.  With an engine attached, even
    full-scan query jobs route through its pool and content-addressed
    receipt cache.
    """

    def __init__(self, prover_opts: ProverOpts | None = None,
                 prover: Any | None = None,
                 engine: Any | None = None,
                 num_partitions: int | None = None) -> None:
        if num_partitions is not None and num_partitions < 1:
            raise ConfigurationError("num_partitions must be >= 1")
        self._opts = prover_opts or ProverOpts.groth16()
        if prover is not None:
            self._prover = prover
        elif engine is not None:
            self._prover = engine.prover(self._opts)
        else:
            self._prover = Prover(self._opts)
        self._engine = engine
        self._num_partitions = num_partitions

    def prove_query(self, sql: str, state: CLogState,
                    agg_receipt: Receipt) -> tuple[QueryResponse, Any]:
        """Prove ``sql`` over ``state``, which ``agg_receipt`` attests.

        Picks the modeled-faster strategy when partitioning is
        configured; both strategies commit byte-identical journals.
        """
        num_partitions = self._num_partitions
        if self._engine is not None and num_partitions is not None \
                and num_partitions > 1 and len(state) > 1:
            from .planner import QueryPlanner
            planner = QueryPlanner(state, len(agg_receipt.journal.data))
            if planner.choose_strategy(sql, num_partitions) \
                    == "partitioned":
                return self.prove_query_partitioned(
                    sql, state, agg_receipt, num_partitions)
        return self._prove_query_full_scan(sql, state, agg_receipt)

    def _prove_query_full_scan(
            self, sql: str, state: CLogState, agg_receipt: Receipt,
    ) -> tuple[QueryResponse, ProveInfo]:
        """The §4.2 monolith: one guest scans the full entry set."""
        start = time.perf_counter()
        with obs.tracer().span(obs_names.SPAN_QUERY_PROVE, sql=sql,
                               entries=len(state)) as span:
            builder = ExecutorEnvBuilder()
            builder.write({"query": sql, "num_entries": len(state)})
            builder.write(make_receipt_binding(agg_receipt))
            builder.write_frames(entry_frames(state))
            info = self._prover.prove(query_guest, builder.build())
            receipt = resolve(info.receipt, agg_receipt)
            span.add_cycles(info.stats.total_cycles)
        registry = obs.registry()
        registry.counter(obs_names.QUERY_PROOFS).inc()
        registry.histogram(obs_names.QUERY_SECONDS).observe(
            time.perf_counter() - start)
        return response_from_receipt(receipt, sql), info

    def prove_query_partitioned(
            self, sql: str, state: CLogState, agg_receipt: Receipt,
            num_partitions: int | None = None,
    ) -> tuple[QueryResponse, PartitionedQueryInfo]:
        """Prove ``sql`` as partial queries over aligned slot ranges:
        the length-1 case of :meth:`prove_queries_partitioned`."""
        (outcome,) = self.prove_queries_partitioned(
            [sql], state, agg_receipt, num_partitions)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def prove_queries_partitioned(
            self, sqls: list[str], state: CLogState,
            agg_receipt: Receipt, num_partitions: int | None = None,
    ) -> list[Any]:
        """Prove every query in ``sqls`` through one partition fan-out.

        One partition job per aligned slot range binds the range to the
        committed root once and evaluates **every** query over the
        shared entry views; one merge job per query folds that query's
        partial frames into a journal byte-identical to the full
        scan's — so each caller still gets a standalone receipt that
        cannot tell how many strangers shared its scan.  Every job rides
        the engine's work queue and content-addressed
        :class:`~repro.engine.cache.ReceiptCache` (which is what makes
        retrying a faulted fan-out cheap).  Merge receipts are resolved
        against the partition receipts (themselves resolved against
        ``agg_receipt``), so every response receipt is unconditional.

        Returns one entry per query, **in order**: a ``(QueryResponse,
        PartitionedQueryInfo)`` pair, or the ``Exception`` that query's
        merge died with.  A *partition* failure (or a failure building
        the merges) poisons the whole fan-out and raises — no query can
        be answered without the shared scan.  ``sqls`` must be unique:
        each merge selects its frame by position (callers dedupe and
        fan the response back out).
        """
        if self._engine is None:
            raise ConfigurationError(
                "partitioned query proving needs a ProvingEngine")
        if not sqls:
            raise ConfigurationError("fan-out needs at least one query")
        if len(set(sqls)) != len(sqls):
            raise ConfigurationError("fan-out queries must be unique")
        requested = num_partitions if num_partitions is not None \
            else self._num_partitions
        if requested is None or requested < 1:
            raise ConfigurationError("num_partitions must be >= 1")
        size = len(state)
        if size == 0:
            raise ProofError(
                "cannot prove a partitioned query over an empty CLog")
        from ..engine.jobs import ProofJob
        from .planner import partition_layout
        chunk_po2, count = partition_layout(size, requested)
        chunk = 1 << chunk_po2
        tree = state.merkle_map.tree
        binding = make_receipt_binding(agg_receipt)
        frames = entry_frames(state)

        start = time.perf_counter()
        tracer = obs.tracer()
        with tracer.span(obs_names.SPAN_QUERY_PROVE, sql="; ".join(sqls),
                         entries=size) as outer:
            outer.set("partitions", count)
            with tracer.span(obs_names.SPAN_QUERY_PARALLEL_ROUND,
                             partitions=count, queries=len(sqls)):
                jobs = []
                for index in range(count):
                    lo = index << chunk_po2
                    hi = min(size, lo + chunk)
                    builder = ExecutorEnvBuilder()
                    builder.write({
                        "queries": list(sqls),
                        "partition": index,
                        "num_partitions": count,
                        "chunk_po2": chunk_po2,
                        "start": lo,
                        "count": hi - lo,
                        "siblings": list(tree.prove_subtree(
                            chunk_po2, index)),
                    })
                    builder.write(binding)
                    builder.write_frames(frames[lo:hi])
                    jobs.append(ProofJob.from_parts(
                        query_partition_guest, builder.build(),
                        self._opts))

                # Populated by build_merges on the completion-callback
                # thread; reads below are ordered after it by collect().
                resolved: list[Receipt] = []

                def build_merges(results: list[Any]) -> list[Any]:
                    bindings = []
                    for result in results:
                        part_receipt = resolve(result.receipt,
                                               agg_receipt)
                        resolved.append(part_receipt)
                        bindings.append(
                            make_receipt_binding(part_receipt))
                    merge_jobs = []
                    for query_index, sql in enumerate(sqls):
                        merge_builder = ExecutorEnvBuilder()
                        merge_builder.write({
                            "query": sql,
                            "query_index": query_index,
                            "num_partitions": count,
                        })
                        for part_binding in bindings:
                            merge_builder.write(part_binding)
                        merge_jobs.append(ProofJob.from_parts(
                            query_merge_guest, merge_builder.build(),
                            self._opts))
                    return merge_jobs

                schedule = self._engine.submit_fanout(jobs, build_merges)
                partition_results, merge_futures = schedule.collect(
                    obs_names.SPAN_QUERY_PARALLEL_PARTITION)
                partition_infos = tuple(partition_results)
                if len(merge_futures) != len(sqls):
                    # build_merges raised: its parked failure is the
                    # whole fan-out's, not one query's.
                    merge_futures[0].result()
                cycles = sum(r.stats.total_cycles
                             for r in partition_infos)
                outcomes: list[Any] = []
                for query_index, future in enumerate(merge_futures):
                    with tracer.span(obs_names.SPAN_QUERY_PARALLEL_MERGE,
                                     partitions=count,
                                     query=query_index) as span:
                        try:
                            merge_result = future.result()
                        except Exception as exc:
                            # One query's merge death must not take
                            # down the queries that shared its scan.
                            outcomes.append(exc)
                            continue
                        span.add_cycles(merge_result.stats.total_cycles)
                        cycles += merge_result.stats.total_cycles
                        receipt = resolve_all(merge_result.receipt,
                                              resolved)
                    outcomes.append((
                        response_from_receipt(receipt, sqls[query_index]),
                        PartitionedQueryInfo(
                            receipt=receipt,
                            partition_infos=partition_infos,
                            merge_info=merge_result,
                            num_partitions=count,
                            chunk_po2=chunk_po2)))
            outer.add_cycles(cycles)
        registry = obs.registry()
        registry.counter(obs_names.QUERY_PROOFS).inc(
            sum(1 for o in outcomes if not isinstance(o, Exception)))
        registry.counter(obs_names.QUERY_PARTITIONS).inc(count)
        registry.histogram(obs_names.QUERY_SECONDS).observe(
            time.perf_counter() - start)
        return outcomes


def response_from_receipt(receipt: Receipt,
                          sql: str | None = None) -> QueryResponse:
    """The :class:`QueryResponse` a query receipt's journal describes.

    ``sql`` defaults to the query text the journal commits.  The
    response is unverified until ``VerifierClient.verify_query``.
    """
    claim = dict(vars(QueryJournal.parse(receipt)))
    query = claim.pop("query")  # the response calls it ``sql``
    return QueryResponse(sql=query if sql is None else sql,
                         receipt=receipt, **claim)


__all__ = [
    "PartitionedQueryInfo",
    "QueryProver",
    "QueryResponse",
    "response_from_receipt",
]
