"""The work-queue scheduler: partition-and-merge without barriers.

§7 proposes partitioning a round's windows and proving the partitions
in parallel.  The naive schedule barriers per round: all partitions,
then the merge, then the next round may start.  With a pool of workers
that wastes capacity twice — idle workers while a round's last
partition finishes, and an idle pool between rounds.

:meth:`ProvingEngine.prove_rounds` instead enqueues the partition jobs
of **every** pending round up front.  A per-round countdown submits
that round's merge job the moment its own partitions are done, so merge
proofs interleave with other rounds' partition proofs and the pool
stays saturated.  Round failures are isolated: a failed partition
poisons only its round's outcome (the merge is never submitted), which
is what lets the daemon quarantine one window while the rest of the
queue proves on.  The countdown is :meth:`ProvingEngine.submit_fanout`,
which partitioned queries and federation joins ride too.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Iterable

from ..core.aggregation import make_receipt_binding, write_window_frames
from ..core.guest_programs import merge_guest, partition_guest
from ..core.policy import DEFAULT_POLICY
from ..errors import ConfigurationError, ProofError
from ..hashing import Digest
from ..obs import names as obs_names
from ..obs import runtime as obs
from ..obs.tracing import NULL_TRACER
from ..zkvm import ExecutorEnvBuilder, ProverOpts, Receipt
from ..zkvm.costmodel import CostModel, ProverBackend
from ..zkvm.recursion import resolve_all
from .cache import ReceiptCache
from .jobs import JobResult, ProofJob
from .pool import PooledProver, ProverPool, resolve_pool_config


@dataclass(frozen=True)
class ParallelAggregationResult:
    """Receipts and latency model for one partition-and-merge round."""

    receipt: Receipt
    partition_infos: tuple[JobResult, ...]
    merge_info: JobResult
    new_root: Digest
    size: int

    def modeled_seconds(self, model: CostModel,
                        backend: ProverBackend =
                        ProverBackend.CPU_ZKVM) -> float:
        """End-to-end latency with partitions proven concurrently."""
        slowest = max(model.prove_seconds(info.stats, backend)
                      for info in self.partition_infos)
        return slowest + model.prove_seconds(self.merge_info.stats,
                                             backend)

    def sequential_seconds(self, model: CostModel,
                           backend: ProverBackend =
                           ProverBackend.CPU_ZKVM) -> float:
        """The same work proven one partition at a time."""
        total = sum(model.prove_seconds(info.stats, backend)
                    for info in self.partition_infos)
        return total + model.prove_seconds(self.merge_info.stats, backend)


@dataclass
class RoundOutcome:
    """One round's result-or-error from a multi-round schedule."""

    index: int
    result: ParallelAggregationResult | None = None
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def partition_windows(windows: list[Any],
                      num_partitions: int | None) -> list[list[Any]]:
    """Router-aligned partitioning (a window commitment is checked
    whole, so a router's windows never split across partitions)."""
    if not windows:
        raise ConfigurationError("no windows to aggregate")
    if num_partitions is not None and num_partitions < 1:
        raise ConfigurationError("num_partitions must be >= 1")
    by_router: dict[str, list[Any]] = {}
    for window in sorted(windows, key=lambda w: (w.router_id,
                                                 w.window_index)):
        by_router.setdefault(window.router_id, []).append(window)
    groups = list(by_router.values())
    count = min(num_partitions or len(groups), len(groups))
    partitions: list[list[Any]] = [[] for _ in range(count)]
    for index, group in enumerate(groups):
        partitions[index % count].extend(group)
    return partitions


class ProvingEngine:
    """A pool + cache + scheduler, owning the parallel prove pipeline."""

    def __init__(self, policy: Any = None,
                 prover_opts: ProverOpts | None = None,
                 backend: str | None = None,
                 max_workers: int | None = None,
                 cache: ReceiptCache | None = None,
                 store: Any = None,
                 injector: Any | None = None,
                 nodes: Any = None,
                 cluster_opts: Any = None) -> None:
        self.policy = policy or DEFAULT_POLICY
        self.opts = prover_opts or ProverOpts.succinct()
        if nodes and backend is None:
            backend = "remote"
        backend, workers = resolve_pool_config(
            self.opts, backend=backend, max_workers=max_workers)
        if cache is None:
            cache = ReceiptCache(store=store)
        self.cache = cache
        self.pool = ProverPool(backend=backend, max_workers=workers,
                               cache=cache, injector=injector,
                               nodes=nodes, cluster_opts=cluster_opts)

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "ProvingEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        self.pool.shutdown()

    def prover(self, opts: ProverOpts | None = None) -> PooledProver:
        """A sequential-prover stand-in routed through this engine."""
        return PooledProver(self.pool, opts or self.opts)

    def snapshot(self) -> dict[str, Any]:
        return self.pool.snapshot()

    # -- scheduling ----------------------------------------------------------

    def prove_round(self, windows: list[Any],
                    num_partitions: int | None = None
                    ) -> ParallelAggregationResult:
        """Prove one partition-and-merge round (§7 "Proof
        parallelization"); raises on failure.

        An engine primitive, not a chainable round strategy: the merge
        journal carries no ``prev_root`` and is not byte-comparable to
        Algorithm 1's.
        """
        outcome = self.prove_rounds([windows], num_partitions)[0]
        if outcome.error is not None:
            raise outcome.error
        return outcome.result

    def prove_rounds(self, rounds: list[list[Any]],
                     num_partitions: int | None = None
                     ) -> list[RoundOutcome]:
        """Prove several independent rounds through one work queue.

        Every round is one :meth:`submit_fanout`, all submitted before
        any is waited on: each round's merge job is submitted from a
        completion callback as soon as *its* partitions are done — no
        cross-round barrier.  Returns one :class:`RoundOutcome` per
        input round, in order.
        """
        start = time.perf_counter()
        pending = []
        for windows in rounds:
            partitions = partition_windows(windows, num_partitions)
            obs.registry().counter(obs_names.PARALLEL_PARTITIONS).inc(
                len(partitions))
            # A generator: each job is encoded as it is submitted, so
            # building partition k+1 overlaps proving partition k.
            jobs = (ProofJob.from_parts(
                        partition_guest,
                        _partition_env(self.policy, pindex, partition),
                        self.opts)
                    for pindex, partition in enumerate(partitions))
            pending.append((partitions,
                            self.submit_fanout(jobs, self._merge_jobs)))
        outcomes = [self._collect(index, partitions, schedule)
                    for index, (partitions, schedule)
                    in enumerate(pending)]
        elapsed = time.perf_counter() - start
        registry = obs.registry()
        registry.histogram(obs_names.ENGINE_ROUND_REAL_SECONDS).observe(
            elapsed / max(len(pending), 1))
        model = CostModel()
        for outcome in outcomes:
            if outcome.ok:
                registry.histogram(
                    obs_names.ENGINE_ROUND_MODELED_SECONDS).observe(
                    outcome.result.modeled_seconds(model))
        return outcomes

    def submit_fanout(self, jobs: Iterable[ProofJob],
                      build_merges: Any) -> "_RoundSchedule":
        """Submit sibling jobs whose merge stage folds their results.

        The one fan-out primitive: every job in ``jobs`` enters the
        work queue immediately, and ``build_merges(results)`` — called
        from a completion callback the moment the last sibling
        finishes — returns the **list** of merge :class:`ProofJob` s,
        all submitted without a barrier.  One merge is a round; N is
        query fan-out's shape (one scan shared by N queries, one merge
        receipt each).  Collect through :meth:`_RoundSchedule.collect`.
        """
        futures = [self.pool.submit(job) for job in jobs]
        if not futures:
            raise ConfigurationError("fan-out needs at least one job")
        return _RoundSchedule(self.pool, futures, build_merges)

    # -- internals -----------------------------------------------------------

    def _merge_jobs(self, partition_results: list[JobResult]
                    ) -> list[ProofJob]:
        """A round's merge stage: one job folding every partition."""
        builder = ExecutorEnvBuilder()
        builder.write({
            "round": 0,
            "policy": self.policy.to_wire(),
            "num_partitions": len(partition_results),
        })
        for result in partition_results:
            builder.write(make_receipt_binding(result.receipt))
        return [ProofJob.from_parts(merge_guest, builder.build(),
                                    self.opts)]

    def _collect(self, index: int, partitions: list[list[Any]],
                 schedule: "_RoundSchedule") -> RoundOutcome:
        """Wait out one round, emitting the host-side span tree."""
        try:
            with obs.tracer().span(obs_names.SPAN_PARALLEL_ROUND,
                                   partitions=len(partitions)):
                partition_results, (merge_future,) = schedule.collect(
                    obs_names.SPAN_PARALLEL_PARTITION,
                    [{"routers": len(p)} for p in partitions])
                with obs.tracer().span(
                        obs_names.SPAN_PARALLEL_MERGE,
                        partitions=len(partition_results)) as span:
                    merge_result = merge_future.result()
                    span.add_cycles(merge_result.stats.total_cycles)
                    receipt = resolve_all(
                        merge_result.receipt,
                        [r.receipt for r in partition_results])
        except Exception as exc:
            return RoundOutcome(index=index, error=exc)
        header = next(receipt.journal.values())
        return RoundOutcome(
            index=index,
            result=ParallelAggregationResult(
                receipt=receipt,
                partition_infos=tuple(partition_results),
                merge_info=merge_result,
                new_root=header["new_root"],
                size=header["size"],
            ))


class _RoundSchedule:
    """Countdown latch from partition futures to the merge submission."""

    def __init__(self, pool: ProverPool, futures: list[Future],
                 build_merges: Any) -> None:
        self.partition_futures = futures
        self.merge_futures: list[Future] = []
        self.merge_ready = threading.Event()
        self._pool = pool
        self._build_merges = build_merges
        self._lock = threading.Lock()
        self._remaining = len(futures)
        self._failed = False
        # Last: an already-finished future runs its callback right here.
        for future in futures:
            future.add_done_callback(self._partition_done)

    def collect(self, span_name: str | None = None,
                labels: list[dict[str, Any]] | None = None
                ) -> tuple[list[JobResult], list[Future]]:
        """Wait for the fan-out: ``(partition results, merge futures)``.

        Raises the first partition failure (a poisoned fan-out never
        submits its merges).  With ``span_name``, each partition wait
        is one such span carrying ``partition``, ``cycles``, ``cached``
        and that partition's ``labels`` entry.  The merge futures come
        back unwaited, in ``build_merges`` order, so a caller can
        settle them one by one; if ``build_merges`` itself raised they
        are a single pre-failed future carrying that exception.
        """
        tracer = obs.tracer() if span_name is not None else NULL_TRACER
        results = []
        for index, future in enumerate(self.partition_futures):
            with tracer.span(span_name, partition=index,
                             **(labels[index] if labels else {})
                             ) as span:
                result = future.result()
                span.add_cycles(result.stats.total_cycles)
                span.set("cached", result.cached)
            results.append(result)
        self.merge_ready.wait()
        if not self.merge_futures:
            raise ProofError("fan-out merge stage was never submitted")
        return results, self.merge_futures

    def _partition_done(self, future: Future) -> None:
        with self._lock:
            self._remaining -= 1
            if future.exception() is not None:
                self._failed = True
            ready = self._remaining == 0
            failed = self._failed
        if not ready:
            return
        if failed:
            # No merge for a poisoned round; unblock the collector so
            # it can surface the partition error.
            self.merge_ready.set()
            return
        try:
            merge_jobs = self._build_merges(
                [f.result() for f in self.partition_futures])
            if not merge_jobs:
                raise ConfigurationError("fan-out built no merge jobs")
            self.merge_futures = [self._pool.submit(job)
                                  for job in merge_jobs]
        except Exception as exc:
            # Anything thrown before submit() hands back a future
            # (receipt-binding/encoding bugs) runs on an executor
            # callback thread where a raise would vanish — park the
            # exception on a pre-failed merge future so collect()
            # surfaces it as the fan-out's error.
            parked: Future = Future()
            parked.set_exception(exc)
            self.merge_futures = [parked]
        self.merge_ready.set()


def _partition_env(policy: Any, index: int,
                   windows: list[Any]) -> Any:
    builder = ExecutorEnvBuilder()
    builder.write({
        "partition": index,
        "policy": policy.to_wire(),
        "num_routers": len(windows),
    })
    write_window_frames(builder, windows)
    return builder.build()
