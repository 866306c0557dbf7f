"""The cluster dispatcher: leases, stealing, verification, degradation.

:class:`ClusterDispatcher` is the ``remote`` backend behind
:class:`~repro.engine.pool.ProverPool`.  ``dispatch(job)`` returns a
future the engine treats exactly like a thread-pool future; behind it,
two daemon threads run the robustness machinery:

* the **dispatch thread** drains the task queue and assigns each task
  to a node under a fresh *lease* (round-robin over healthy nodes,
  skipping nodes the task already failed on);
* the **monitor thread** polls outstanding leases (``work-result``),
  adopts finished results *after re-verifying the receipt*, steals
  slow leases (re-dispatching the task elsewhere before the lease
  expires — first verified result wins, the loser is discarded), times
  out dead leases, probes quarantined nodes for reinstatement, and
  keeps the ``repro_cluster_*`` gauges honest.

Failure classification is the core design decision.  A worker can fail
a job for two very different reasons:

1. **The job is bad** (``guest-abort``, ``verification`` wire codes):
   deterministic outcomes that would reproduce anywhere — propagated
   to the caller as the typed domain error, no retry.
2. **The node is bad** (transport errors, lease timeouts, lost leases,
   every other code): node-attributable — the node's failure counter
   rises (quarantine after ``quarantine_after`` consecutive), and the
   task is re-dispatched elsewhere.  A task that exhausts its retry
   budget runs on the **local fallback** executor, whose in-process
   result is ground truth — so an ambiguous failure can delay a proof
   but never wrongly fail it.

A result that fails re-verification (wrong seal, wrong image id, or an
input digest that does not match the job's environment commitment) is
*Byzantine*: it is never adopted, the node is quarantined immediately
at maximum backoff, and the job re-proves elsewhere.

When every node is quarantined the dispatcher does not stall: tasks
run on the local fallback and ``degraded`` flips on (the
``repro_cluster_degraded`` gauge and the STATUS/engine snapshot),
flipping back automatically once a probe reinstates a node.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Sequence

from ..engine.jobs import (
    JobResult,
    ProofJob,
    execute_job,
    resolve_job_guest,
    verify_job_receipt,
)
from ..errors import (
    ClusterUnavailable,
    ConfigurationError,
    PoolShutdown,
    ReproError,
)
from ..net.messages import _CODE_TO_CLASS
from ..obs import names as obs_names
from ..obs import runtime as obs
from .nodes import HEALTHY, QUARANTINED, NodeState, WorkerClient

#: Wire codes reporting a *deterministic* job outcome — failures that
#: would reproduce on any node, so they propagate instead of retrying.
DETERMINISTIC_CODES = frozenset({"guest-abort", "verification"})


@dataclass(frozen=True)
class ClusterOpts:
    """Dispatcher tuning.  Defaults suit real deployments; chaos tests
    shrink the timing knobs to keep wall clock down."""

    lease_timeout: float = 60.0       # lease dead after this long
    steal_factor: float = 0.5         # steal at factor * lease_timeout
    poll_interval: float = 0.05       # monitor cadence
    request_timeout: float = 10.0     # per-RPC socket timeout
    probe_timeout: float = 2.0        # work-health probe timeout
    quarantine_after: int = 2         # consecutive failures
    backoff_base: float = 0.5
    backoff_multiplier: float = 2.0
    backoff_max: float = 30.0
    retry_budget: int | None = None   # re-dispatches before fallback
    local_fallback: bool = True

    @property
    def steal_after(self) -> float:
        return self.lease_timeout * self.steal_factor


class _Task:
    """One dispatched job and its adoption state."""

    __slots__ = ("job", "future", "attempts", "tried", "outstanding",
                 "adopted", "queued")

    def __init__(self, job: ProofJob, future: "Future[JobResult]") -> None:
        self.job = job
        self.future = future
        self.attempts = 0
        self.tried: set[str] = set()
        self.outstanding = 0      # live leases for this task
        self.adopted: str | None = None  # winning lease id
        self.queued = False


class _LeaseRec:
    __slots__ = ("lease_id", "task", "node", "sent_at", "deadline",
                 "steal_at", "stolen")

    def __init__(self, lease_id: str, task: _Task, node: NodeState,
                 opts: ClusterOpts) -> None:
        self.lease_id = lease_id
        self.task = task
        self.node = node
        self.sent_at = time.monotonic()
        self.deadline = self.sent_at + opts.lease_timeout
        self.steal_at = self.sent_at + opts.steal_after
        self.stolen = False


_SHUTDOWN = object()


class ClusterDispatcher:
    """Dispatch :class:`ProofJob` s across remote worker nodes."""

    def __init__(self, nodes: Sequence[str], *,
                 opts: ClusterOpts | None = None,
                 injector: Any = None) -> None:
        if not nodes:
            raise ConfigurationError(
                "the remote backend needs at least one worker node "
                "(pass nodes=[host:port, ...])")
        self.opts = opts or ClusterOpts()
        self.injector = injector
        self._nodes: list[NodeState] = []
        for endpoint in nodes:
            client = WorkerClient(
                endpoint,
                timeout=self.opts.request_timeout,
                fault_injector=injector)
            self._nodes.append(NodeState(
                endpoint, client,
                quarantine_after=self.opts.quarantine_after,
                backoff_base=self.opts.backoff_base,
                backoff_multiplier=self.opts.backoff_multiplier,
                backoff_max=self.opts.backoff_max))
        self._lock = threading.Lock()
        self._queue: "queue.Queue[Any]" = queue.Queue()
        self._leases: dict[str, _LeaseRec] = {}
        self._tasks: set[_Task] = set()
        self._lease_seq = itertools.count(1)
        self._lease_prefix = f"d{os.getpid():x}-{id(self) & 0xFFFF:x}"
        self._rr = 0
        self._steals = 0
        self._duplicates = 0
        self._fallback_jobs = 0
        self._rejections = 0
        self._fallback_executor: ThreadPoolExecutor | None = None
        self._stop = threading.Event()
        self._closed = False
        self._dispatch_thread = threading.Thread(
            target=self._dispatch_loop, daemon=True,
            name="repro-cluster-dispatch")
        self._monitor_thread = threading.Thread(
            target=self._monitor_loop, daemon=True,
            name="repro-cluster-monitor")
        self._dispatch_thread.start()
        self._monitor_thread.start()
        self._update_gauges()

    # -- public API ----------------------------------------------------------

    def dispatch(self, job: ProofJob) -> "Future[JobResult]":
        with self._lock:
            if self._closed:
                raise PoolShutdown("cluster dispatcher is shut down")
            future: "Future[JobResult]" = Future()
            task = _Task(job, future)
            self._tasks.add(task)
            task.queued = True
        future.add_done_callback(
            lambda _f, t=task: self._forget(t))
        self._queue.put(task)
        return future

    @property
    def degraded(self) -> bool:
        """Every node quarantined — proving only via local fallback."""
        with self._lock:
            return all(n.state == QUARANTINED for n in self._nodes)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            nodes = [n.snapshot() for n in self._nodes]
            degraded = all(n.state == QUARANTINED for n in self._nodes)
            return {
                "nodes": nodes,
                "degraded": degraded,
                "leases": len(self._leases),
                "steals": self._steals,
                "duplicates_discarded": self._duplicates,
                "rejections": self._rejections,
                "fallback_jobs": self._fallback_jobs,
            }

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        self._queue.put(_SHUTDOWN)
        timeout = 5.0 if wait else 0.5
        self._dispatch_thread.join(timeout=timeout)
        self._monitor_thread.join(timeout=timeout)
        with self._lock:
            tasks, self._tasks = set(self._tasks), set()
            self._leases.clear()
            executor = self._fallback_executor
            self._fallback_executor = None
        for task in tasks:
            if not task.future.done():
                task.future.set_exception(
                    PoolShutdown("cluster dispatcher is shut down"))
        if executor is not None:
            executor.shutdown(wait=wait)
        for node in self._nodes:
            node.client.close()

    # -- dispatch thread -----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            try:
                item = self._queue.get(timeout=0.1)
            except queue.Empty:
                continue
            if item is _SHUTDOWN:
                return
            task: _Task = item
            with self._lock:
                task.queued = False
            if task.future.done():
                continue
            try:
                self._assign(task)
            except Exception as exc:  # never kill the loop
                if not task.future.done():
                    task.future.set_exception(exc)

    def _assign(self, task: _Task) -> None:
        while not self._stop.is_set():
            node = self._pick_node(task)
            if node is None:
                self._run_local(task)
                return
            lease_id = f"{self._lease_prefix}-{next(self._lease_seq)}"
            try:
                with obs.tracer().span(
                        obs_names.SPAN_CLUSTER_DISPATCH,
                        node=node.endpoint,
                        guest=task.job.guest_id):
                    ack = node.client.submit_job(
                        task.job, lease_id,
                        int(self.opts.lease_timeout * 1000))
            except Exception as exc:
                self._node_failure(node, exc)
                with self._lock:
                    task.tried.add(node.endpoint)
                continue
            if not ack.get("accepted"):
                self._node_failure(
                    node, f"work-pull not accepted: {ack!r}")
                with self._lock:
                    task.tried.add(node.endpoint)
                continue
            with self._lock:
                lease = _LeaseRec(lease_id, task, node, self.opts)
                self._leases[lease_id] = lease
                node.leases += 1
                task.outstanding += 1
            self._update_gauges()
            return

    def _pick_node(self, task: _Task) -> NodeState | None:
        # Probe quarantined nodes whose backoff expired (outside the
        # lock — probes are RPCs).
        for node in self._probe_due():
            self._probe(node)
        with self._lock:
            healthy = [n for n in self._nodes if n.state == HEALTHY]
            if not healthy:
                return None
            untried = [n for n in healthy
                       if n.endpoint not in task.tried]
            pool = untried or healthy
            self._rr += 1
            return pool[self._rr % len(pool)]

    # -- monitor thread ------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.opts.poll_interval):
            try:
                self._sweep()
            except Exception:  # pragma: no cover - defensive
                pass

    def _sweep(self) -> None:
        now = time.monotonic()
        with self._lock:
            leases = list(self._leases.values())
        for lease in leases:
            if self._stop.is_set():
                return
            if lease.task.future.done():
                self._discard(lease)
                continue
            if now > lease.deadline:
                self._node_failure(
                    lease.node,
                    f"lease {lease.lease_id} expired after "
                    f"{self.opts.lease_timeout}s")
                self._release_and_requeue(lease)
                continue
            if not lease.stolen and now > lease.steal_at:
                self._steal(lease)
                # fall through: still poll the original lease
            self._poll(lease)
        for node in self._probe_due():
            self._probe(node)
        self._update_gauges()

    def _steal(self, lease: _LeaseRec) -> None:
        """Re-dispatch a slow lease's task elsewhere, keeping the
        original in the race — first verified result wins."""
        with self._lock:
            if lease.stolen or lease.task.future.done():
                return
            lease.stolen = True
            lease.task.tried.add(lease.node.endpoint)
            self._steals += 1
        obs.registry().counter(obs_names.CLUSTER_STEALS).inc()
        self._requeue(lease.task)

    def _poll(self, lease: _LeaseRec) -> None:
        try:
            reply = lease.node.client.poll_result(lease.lease_id)
        except Exception as exc:
            self._node_failure(lease.node, exc)
            self._release_and_requeue(lease)
            return
        state = reply.get("state")
        if state == "running":
            return
        if state == "done":
            try:
                result = JobResult.from_wire(reply["result"])
            except (ReproError, KeyError, TypeError) as exc:
                self._reject(lease, exc)
                return
            self._adopt(lease, result)
            return
        if state == "failed":
            self._job_failed(lease, str(reply.get("code", "")),
                             str(reply.get("message", "")))
            return
        # "unknown" (or garbage): the worker lost our lease — most
        # likely it restarted.  Treat as a node failure and move on.
        self._node_failure(
            lease.node,
            f"lease {lease.lease_id} unknown to {lease.node.endpoint}")
        self._release_and_requeue(lease)

    # -- result adoption -----------------------------------------------------

    def _adopt(self, lease: _LeaseRec, result: JobResult) -> None:
        task = lease.task
        try:
            verify_job_receipt(
                result.receipt,
                resolve_job_guest(task.job).image_id,
                task.job.env_commitment)
        except ReproError as exc:
            self._reject(lease, exc)
            return
        registry = obs.registry()
        with self._lock:
            self._leases.pop(lease.lease_id, None)
            lease.node.leases -= 1
            task.outstanding -= 1
            if task.future.done() or task.adopted is not None:
                self._duplicates += 1
                duplicate = True
            else:
                task.adopted = lease.lease_id
                lease.node.record_success()
                duplicate = False
        if duplicate:
            registry.counter(obs_names.CLUSTER_DUPLICATES).inc()
            return
        registry.counter(obs_names.CLUSTER_JOBS,
                         ("node", "outcome")).inc(
            node=lease.node.endpoint, outcome="ok")
        task.future.set_result(result.replace_cached(False))

    def _reject(self, lease: _LeaseRec, error: Exception) -> None:
        """A Byzantine (unverifiable) result: never adopt, quarantine
        the node hard, re-prove elsewhere."""
        with self._lock:
            self._rejections += 1
            lease.node.record_rejection(error)
            lease.task.tried.add(lease.node.endpoint)
        obs.registry().counter(obs_names.CLUSTER_JOBS,
                               ("node", "outcome")).inc(
            node=lease.node.endpoint, outcome="rejected")
        self._release(lease)
        self._update_gauges()
        with self._lock:
            requeue = (not lease.task.future.done()
                       and lease.task.outstanding == 0)
        if requeue:
            self._requeue(lease.task)

    def _job_failed(self, lease: _LeaseRec, code: str,
                    message: str) -> None:
        if code in DETERMINISTIC_CODES:
            # The job itself fails, on any node; the node behaved.
            cls = _CODE_TO_CLASS.get(code, ReproError)
            with self._lock:
                self._leases.pop(lease.lease_id, None)
                lease.node.leases -= 1
                lease.task.outstanding -= 1
                lease.node.record_success()
                settle = (not lease.task.future.done()
                          and lease.task.adopted is None)
                if settle:
                    lease.task.adopted = lease.lease_id
            obs.registry().counter(obs_names.CLUSTER_JOBS,
                                   ("node", "outcome")).inc(
                node=lease.node.endpoint, outcome="aborted")
            if settle:
                lease.task.future.set_exception(
                    cls(f"remote: {message}"))
            return
        # Anything else is node-attributable (worker pool broke, its
        # store failed, an unclassified crash): retry elsewhere; the
        # local fallback is the ground-truth tie-breaker.
        self._node_failure(
            lease.node, f"job failed on node [{code}]: {message}")
        self._release_and_requeue(lease)

    # -- lease/task bookkeeping ----------------------------------------------

    def _release(self, lease: _LeaseRec) -> None:
        with self._lock:
            if self._leases.pop(lease.lease_id, None) is None:
                return
            lease.node.leases -= 1
            lease.task.outstanding -= 1

    def _discard(self, lease: _LeaseRec) -> None:
        """Drop a lease whose task already completed elsewhere."""
        with self._lock:
            if self._leases.pop(lease.lease_id, None) is None:
                return
            lease.node.leases -= 1
            lease.task.outstanding -= 1
            superseded = lease.task.adopted != lease.lease_id
            if superseded:
                self._duplicates += 1
        if superseded:
            obs.registry().counter(obs_names.CLUSTER_DUPLICATES).inc()

    def _release_and_requeue(self, lease: _LeaseRec) -> None:
        self._release(lease)
        with self._lock:
            lease.task.tried.add(lease.node.endpoint)
            requeue = (not lease.task.future.done()
                       and lease.task.outstanding == 0
                       and not lease.task.queued)
        if requeue:
            self._requeue(lease.task)

    def _requeue(self, task: _Task) -> None:
        with self._lock:
            if task.future.done() or task.queued or self._closed:
                return
            task.attempts += 1
            attempts = task.attempts
            if attempts <= self._retry_budget():
                task.queued = True
                over = False
            else:
                over = True
        if over:
            self._run_local(task)
        else:
            self._queue.put(task)

    def _retry_budget(self) -> int:
        if self.opts.retry_budget is not None:
            return self.opts.retry_budget
        return 2 * len(self._nodes) + 1

    def _forget(self, task: _Task) -> None:
        with self._lock:
            self._tasks.discard(task)

    # -- node health ---------------------------------------------------------

    def _node_failure(self, node: NodeState,
                      error: BaseException | str) -> None:
        with self._lock:
            node.record_failure(error)
        obs.registry().counter(obs_names.CLUSTER_JOBS,
                               ("node", "outcome")).inc(
            node=node.endpoint, outcome="failed")
        self._update_gauges()

    def _probe_due(self) -> list[NodeState]:
        now = time.monotonic()
        with self._lock:
            return [n for n in self._nodes if n.probe_due(now)]

    def _probe(self, node: NodeState) -> None:
        probe_client = None
        try:
            # A dedicated short-timeout client: the probe must answer
            # fast to prove the node healthy again.
            probe_client = WorkerClient(
                node.endpoint,
                timeout=self.opts.probe_timeout,
                fault_injector=self.injector)
            probe_client.probe()
        except Exception as exc:
            with self._lock:
                node.probe_failed(exc)
        else:
            with self._lock:
                node.reinstate()
        finally:
            if probe_client is not None:
                probe_client.close()
        self._update_gauges()

    # -- local fallback ------------------------------------------------------

    def _run_local(self, task: _Task) -> None:
        if not self.opts.local_fallback:
            if not task.future.done():
                task.future.set_exception(ClusterUnavailable(
                    "no healthy cluster node and local fallback is "
                    "disabled"))
            return
        registry = obs.registry()
        registry.counter(obs_names.CLUSTER_FALLBACK).inc()
        with self._lock:
            self._fallback_jobs += 1
            if self._fallback_executor is None:
                self._fallback_executor = ThreadPoolExecutor(
                    max_workers=os.cpu_count() or 1,
                    thread_name_prefix="repro-cluster-local")
            executor = self._fallback_executor
        inner = executor.submit(execute_job, task.job)
        inner.add_done_callback(
            lambda f, t=task: self._settle_local(t, f))
        self._update_gauges()

    def _settle_local(self, task: _Task,
                      inner: "Future[JobResult]") -> None:
        with self._lock:
            if task.future.done() or task.adopted is not None:
                self._duplicates += 1
                duplicate = True
            else:
                task.adopted = "local"
                duplicate = False
        if duplicate:
            obs.registry().counter(obs_names.CLUSTER_DUPLICATES).inc()
            return
        error = inner.exception()
        if error is not None:
            task.future.set_exception(error)
        else:
            task.future.set_result(inner.result())

    # -- gauges --------------------------------------------------------------

    def _update_gauges(self) -> None:
        with self._lock:
            healthy = sum(1 for n in self._nodes
                          if n.state == HEALTHY)
            quarantined = len(self._nodes) - healthy
        registry = obs.registry()
        registry.gauge(obs_names.CLUSTER_NODES, ("state",)).set(
            healthy, state=HEALTHY)
        registry.gauge(obs_names.CLUSTER_NODES, ("state",)).set(
            quarantined, state=QUARANTINED)
        registry.gauge(obs_names.CLUSTER_DEGRADED).set(
            1 if healthy == 0 else 0)
