"""The prover pool: one submit API over serial/thread/process/remote
backends.

``submit()`` returns a :class:`concurrent.futures.Future` resolving to
a :class:`~repro.engine.jobs.JobResult`.  The pool consults the
:class:`~repro.engine.cache.ReceiptCache` before dispatching (a hit
never touches a worker), fires the ``engine.worker`` fault site at
dispatch, and — for the process backend — ships jobs and results as
canonical wire blobs and merges each worker's metrics snapshot back
into the host registry.

A crashed worker process breaks a ``ProcessPoolExecutor`` permanently;
the pool translates that into a :class:`~repro.errors.ProofError` on
the affected futures and **recreates the executor**, so one dead worker
quarantines one round instead of stalling the deployment.

The ``remote`` backend replaces the executor with a
:class:`~repro.cluster.ClusterDispatcher` fanning jobs out to worker
daemons (``repro worker``) listed in ``nodes=`` / ``REPRO_PROVE_NODES``
— same futures, same cache-before-dispatch, same fault site; the
cluster package adds leases, stealing, re-verification, quarantine and
local-fallback degradation behind the same ``submit()``.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from ..errors import ConfigurationError, PoolShutdown, ProofError
from ..obs import names as obs_names
from ..obs import runtime as obs
from ..serialization import decode
from ..zkvm.prover import ProverOpts
from .cache import ReceiptCache
from .jobs import JobResult, ProofJob, encode_job, execute_job, run_job_wire

BACKENDS = ("serial", "thread", "process", "remote")

#: Environment knobs (the CLI flags' deployment-wide defaults).
ENV_WORKERS = "REPRO_PROVE_WORKERS"
ENV_BACKEND = "REPRO_PROVE_BACKEND"
ENV_NODES = "REPRO_PROVE_NODES"


def _worker_ignore_sigint() -> None:
    # Ctrl-C is delivered to the whole foreground process group; the
    # parent owns shutdown, so workers must not die mid-recv with a
    # KeyboardInterrupt traceback of their own.
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)


def env_workers() -> int | None:
    raw = (os.environ.get(ENV_WORKERS) or "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{ENV_WORKERS} must be an integer, got {raw!r}") from None
    return value if value > 0 else None


def env_backend() -> str | None:
    raw = (os.environ.get(ENV_BACKEND) or "").strip().lower()
    return raw or None


def env_nodes() -> tuple[str, ...] | None:
    """``REPRO_PROVE_NODES=host:port,host:port`` — the cluster list."""
    raw = (os.environ.get(ENV_NODES) or "").strip()
    if not raw:
        return None
    from ..cluster.nodes import parse_nodes
    return parse_nodes(raw)


def resolve_pool_config(opts: ProverOpts | None = None,
                        backend: str | None = None,
                        max_workers: int | None = None
                        ) -> tuple[str, int | None]:
    """Resolve (backend, workers): explicit args > opts > env > default.

    Setting ``REPRO_PROVE_WORKERS=N`` alone selects the process backend
    with ``N`` workers — the one-variable switch the CI matrix leg uses
    to push the whole suite through real multi-process proving.
    """
    workers = max_workers
    if workers is None and opts is not None:
        workers = opts.prove_workers
    from_env = workers is None
    if workers is None:
        workers = env_workers()
    chosen = backend
    if chosen is None and opts is not None:
        chosen = opts.pool_backend
    if chosen is None:
        chosen = env_backend()
    if chosen is None and env_nodes():
        # A configured node list is an explicit cluster opt-in: fan
        # out remotely unless something chose a backend outright.
        chosen = "remote"
    if chosen is None:
        chosen = "process" if (from_env and workers) else "thread"
    if chosen not in BACKENDS:
        raise ConfigurationError(
            f"unknown pool backend {chosen!r}; expected one of "
            f"{BACKENDS}")
    return chosen, workers


class ProverPool:
    """Submit :class:`ProofJob` s; receive futures of results."""

    def __init__(self, backend: str = "thread",
                 max_workers: int | None = None,
                 cache: ReceiptCache | None = None,
                 injector: Any | None = None,
                 nodes: Any = None,
                 cluster_opts: Any = None) -> None:
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown pool backend {backend!r}; expected one of "
                f"{BACKENDS}")
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        self.backend = backend
        self.nodes: tuple[str, ...] | None = None
        self.cluster_opts = cluster_opts
        if backend == "remote":
            resolved = tuple(nodes) if nodes else env_nodes()
            if not resolved:
                raise ConfigurationError(
                    "the remote backend needs worker nodes: pass "
                    f"nodes=[...] or set {ENV_NODES}=host:port,...")
            self.nodes = resolved
        self.max_workers = max_workers or os.cpu_count() or 1
        if backend == "serial":
            self.max_workers = 1
        if backend == "remote" and max_workers is None:
            self.max_workers = max(1, len(self.nodes))
        self.cache = cache
        if injector is None:
            from ..faults.injector import NULL_INJECTOR
            injector = NULL_INJECTOR
        self.injector = injector
        self._executor: ThreadPoolExecutor | ProcessPoolExecutor | None \
            = None
        self._cluster: Any = None  # lazy ClusterDispatcher (remote)
        self._lock = threading.Lock()
        self._in_flight = 0
        self._jobs_done = 0
        self._jobs_failed = 0
        self._jobs_cached = 0
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "ProverPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            executor, self._executor = self._executor, None
            cluster, self._cluster = self._cluster, None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=wait)
        if cluster is not None:
            cluster.shutdown(wait=wait)

    # -- submission ----------------------------------------------------------

    def submit(self, job: ProofJob) -> "Future[JobResult]":
        """Queue one job; cache hits resolve immediately."""
        with self._lock:
            if self._closed:
                raise PoolShutdown("prover pool is shut down")
        registry = obs.registry()
        registry.gauge(obs_names.ENGINE_WORKERS).set(self.max_workers)
        outer: Future[JobResult] = Future()
        key = None
        if self.cache is not None:
            from ..core.guest_programs import resolve_guest
            image_id = resolve_guest(job.guest_id).image_id
            key = job.cache_key(image_id)
            hit = self.cache.get(key, job, image_id)
            if hit is not None:
                with self._lock:
                    self._jobs_cached += 1
                registry.counter(obs_names.ENGINE_JOBS,
                                 ("guest", "outcome")).inc(
                    guest=job.guest_id, outcome="cached")
                outer.set_result(hit)
                return outer
        try:
            from ..faults import plan as fault_sites
            self.injector.fire(fault_sites.ENGINE_WORKER)
        except Exception as exc:  # injected faults use real classes
            registry.counter(obs_names.ENGINE_JOBS,
                             ("guest", "outcome")).inc(
                guest=job.guest_id, outcome="error")
            with self._lock:
                self._jobs_failed += 1
            outer.set_exception(exc)
            return outer
        start = time.perf_counter()
        self._track_dispatch()
        if self.backend == "serial":
            try:
                result = execute_job(job)
            except Exception as exc:
                self._settle(outer, job, key, start, error=exc)
            else:
                self._settle(outer, job, key, start, result=result)
            return outer
        try:
            inner = self._dispatch(job)
        except Exception as exc:
            self._settle(outer, job, key, start,
                         error=self._translate(exc))
            return outer
        inner.add_done_callback(
            lambda f: self._on_inner_done(outer, job, key, start, f))
        return outer

    def map_wait(self, jobs: list[ProofJob]) -> list[JobResult]:
        """Submit all jobs, wait for all; raises the first failure."""
        futures = [self.submit(job) for job in jobs]
        return [future.result() for future in futures]

    # -- status --------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            out = {
                "backend": self.backend,
                "max_workers": self.max_workers,
                "in_flight": self._in_flight,
                "jobs_done": self._jobs_done,
                "jobs_failed": self._jobs_failed,
                "jobs_cached": self._jobs_cached,
            }
            cluster = self._cluster
        out["cache"] = self.cache.stats() if self.cache is not None \
            else None
        if self.backend == "remote":
            out["cluster"] = cluster.snapshot() if cluster is not None \
                else {"nodes": [], "degraded": False, "leases": 0}
        return out

    # -- internals -----------------------------------------------------------

    def _dispatch(self, job: ProofJob) -> "Future[Any]":
        if self.backend == "remote":
            return self._ensure_cluster().dispatch(job)
        executor = self._ensure_executor()
        if self.backend == "thread":
            return executor.submit(execute_job, job)
        payload = encode_job(job, capture_obs=obs.is_enabled())
        return executor.submit(run_job_wire, payload)

    def _ensure_executor(self) -> ThreadPoolExecutor | ProcessPoolExecutor:
        with self._lock:
            if self._closed:
                raise PoolShutdown("prover pool is shut down")
            if self._executor is None:
                self._executor = self._make_executor()
            return self._executor

    def _ensure_cluster(self) -> Any:
        with self._lock:
            if self._closed:
                raise PoolShutdown("prover pool is shut down")
            if self._cluster is None:
                from ..cluster import ClusterDispatcher
                self._cluster = ClusterDispatcher(
                    self.nodes, opts=self.cluster_opts,
                    injector=self.injector
                    if self.injector is not None
                    and getattr(self.injector, "enabled", False)
                    else None)
            return self._cluster

    def _make_executor(self) -> ThreadPoolExecutor | ProcessPoolExecutor:
        if self.backend == "thread":
            return ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="repro-prover")
        import multiprocessing
        # Never fork: the serve path builds this pool in a process that
        # already runs the asyncio server and supervision threads, and
        # forking a multi-threaded parent can deadlock children on locks
        # held mid-operation by other threads (it is also deprecated on
        # Python 3.12+).  Workers start from a clean process instead —
        # jobs cross as wire blobs and guests re-resolve by name, so no
        # inherited state is needed (see ProofJob.guest_module).
        for method in ("forkserver", "spawn"):
            try:
                context = multiprocessing.get_context(method)
                break
            except ValueError:  # pragma: no cover - platform-specific
                continue
        else:  # pragma: no cover - every platform has spawn
            context = multiprocessing.get_context()
        return ProcessPoolExecutor(max_workers=self.max_workers,
                                   mp_context=context,
                                   initializer=_worker_ignore_sigint)

    def _translate(self, exc: Exception) -> Exception:
        if isinstance(exc, BrokenProcessPool):
            with self._lock:
                # Drop the poisoned executor; the next submit builds a
                # fresh one instead of failing forever.
                executor, self._executor = self._executor, None
            if executor is not None:
                # Reap its queue-management thread and process handles
                # (wait=False: the workers are already dead); outside
                # the lock — shutdown joins internals.
                executor.shutdown(wait=False)
            return ProofError(f"prover worker process died: {exc}")
        return exc

    def _on_inner_done(self, outer: "Future[JobResult]", job: ProofJob,
                       key: Any, start: float,
                       inner: "Future[Any]") -> None:
        try:
            raw = inner.result()
        except Exception as exc:
            self._settle(outer, job, key, start,
                         error=self._translate(exc))
            return
        try:
            if self.backend == "process":
                result = JobResult.from_wire(decode(raw))
                if result.obs_snapshot is not None \
                        and obs.is_enabled():
                    obs.registry().merge_snapshot(result.obs_snapshot)
            else:
                result = raw
        except Exception as exc:
            self._settle(outer, job, key, start, error=exc)
            return
        self._settle(outer, job, key, start, result=result)

    def _settle(self, outer: "Future[JobResult]", job: ProofJob,
                key: Any, start: float,
                result: JobResult | None = None,
                error: Exception | None = None) -> None:
        self._track_finish(error is None)
        registry = obs.registry()
        registry.counter(obs_names.ENGINE_JOBS, ("guest", "outcome")).inc(
            guest=job.guest_id, outcome="ok" if error is None else "error")
        registry.histogram(obs_names.ENGINE_JOB_SECONDS,
                           ("guest",)).observe(
            time.perf_counter() - start, guest=job.guest_id)
        if error is not None:
            outer.set_exception(error)
            return
        if self.cache is not None and key is not None:
            self.cache.put(key, result)
        outer.set_result(result)

    def _track_dispatch(self) -> None:
        with self._lock:
            self._in_flight += 1
            in_flight = self._in_flight
        registry = obs.registry()
        registry.gauge(obs_names.ENGINE_QUEUE_DEPTH).set(in_flight)
        registry.gauge(obs_names.ENGINE_WORKERS_BUSY).set(
            min(in_flight, self.max_workers))

    def _track_finish(self, ok: bool) -> None:
        with self._lock:
            self._in_flight -= 1
            if ok:
                self._jobs_done += 1
            else:
                self._jobs_failed += 1
            in_flight = self._in_flight
        registry = obs.registry()
        registry.gauge(obs_names.ENGINE_QUEUE_DEPTH).set(in_flight)
        registry.gauge(obs_names.ENGINE_WORKERS_BUSY).set(
            min(in_flight, self.max_workers))


class PooledProver:
    """A :class:`~repro.zkvm.prover.Prover` look-alike over a pool.

    Drop-in for the ``prover`` injection points in
    :class:`~repro.core.aggregation.Aggregator`,
    :class:`~repro.core.rebuild.RebuildAggregator` and
    :class:`~repro.core.query_proof.QueryProver` — sequential call
    sites gain the cache and the fault site without restructuring.
    """

    def __init__(self, pool: ProverPool,
                 opts: ProverOpts | None = None) -> None:
        self.pool = pool
        self.opts = opts or ProverOpts()

    def prove(self, program: Any, env_input: Any) -> JobResult:
        job = ProofJob.from_parts(program, env_input, self.opts)
        with obs.tracer().span(obs_names.SPAN_ENGINE_JOB,
                               guest=job.guest_id,
                               backend=self.pool.backend) as span:
            result = self.pool.submit(job).result()
            span.add_cycles(result.stats.total_cycles)
            span.set("cached", result.cached)
        return result
