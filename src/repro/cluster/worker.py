"""The cluster worker daemon: a lease-keyed proving server.

A worker owns nothing but a :class:`~repro.engine.pool.ProverPool` and
a lease table.  ``work-pull`` hands it a fully-described
:class:`~repro.engine.jobs.ProofJob` under a dispatcher-chosen lease
id; the worker acks immediately and proves in the background, and the
dispatcher polls ``work-result`` until the lease reports ``done`` (a
wire :class:`~repro.engine.jobs.JobResult`) or ``failed`` (a wire
error code).  The ack-then-poll shape is what makes every message
idempotent: a re-sent ``work-pull`` for a held lease is a duplicate
ack, a re-sent ``work-result`` re-reads the table — so the dispatcher
can retry, steal, and re-dispatch without ever double-running a lease
on the same node.

Trust model: the worker is *untrusted*.  Its results re-verify on the
dispatcher before adoption, so a worker may be arbitrarily broken
(or malicious) without compromising the telemetry chain — it can only
waste its own lease.

When constructed over a shared store (``repro worker --db``), the
pool's :class:`~repro.engine.cache.ReceiptCache` persistent tier rides
that store's checkpoint KV — any node can then serve any partition
some other node (or the coordinator) already proved.

The connection loop, deadlines and per-request telemetry are the
shared :class:`~repro.net.server.FrameServer`'s (so is ``metrics``);
a worker adds its handler table, the pool shutdown, and the ``net.frame`` fault on the
responses it sends.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from typing import Any

from ..engine.cache import ReceiptCache
from ..engine.jobs import JobResult, ProofJob
from ..engine.pool import ProverPool
from ..errors import ConfigurationError, ProtocolError
from ..faults.wire import (
    CORRUPT,
    DELAY,
    DELAY_SECONDS,
    DISCONNECT,
    DROP,
    corrupt_payload,
    frame_action,
)
from ..net.framing import DEFAULT_MAX_FRAME_SIZE
from ..net.messages import WorkerMessageKind, error_code_for
from ..net.server import FrameServer
from ..obs import names as obs_names
from ..obs import runtime as obs

#: Completed leases kept for idempotent re-fetch before eviction.
DEFAULT_RETENTION = 256

#: Pool backends a worker proves on.  Each proves off the event loop,
#: so ``work-pull`` acks and ``work-health`` answers while a job runs.
WORKER_BACKENDS = ("thread", "process")


class _Lease:
    __slots__ = ("lease_id", "guest_id", "future", "accepted_at",
                 "deadline")

    def __init__(self, lease_id: str, guest_id: str,
                 future: "Future[JobResult]", lease_ms: int) -> None:
        self.lease_id = lease_id
        self.guest_id = guest_id
        self.future = future
        self.accepted_at = time.monotonic()
        self.deadline = self.accepted_at + lease_ms / 1000.0


class WorkerServer(FrameServer):
    """Serve ``work-pull``/``work-result``/``work-health`` over TCP."""

    label = "worker"

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 backend: str = "thread",
                 max_workers: int | None = None,
                 store: Any = None,
                 cache: ReceiptCache | None = None,
                 injector: Any = None,
                 max_frame_size: int = DEFAULT_MAX_FRAME_SIZE,
                 idle_timeout: float = 30.0,
                 max_connections: int = 64,
                 retention: int = DEFAULT_RETENTION) -> None:
        if backend not in WORKER_BACKENDS:
            raise ConfigurationError(
                f"a worker proves on one of {WORKER_BACKENDS}, not "
                f"{backend!r}: it must answer while a job proves")
        if cache is None and store is not None:
            cache = ReceiptCache(store=store)
        self.pool = ProverPool(backend=backend, max_workers=max_workers,
                               cache=cache)
        # Wire-frame injector for the *response* path (net.frame site);
        # the pool keeps its own engine.worker site separate.
        self.injector = injector
        self.retention = retention
        self.started_at = time.monotonic()
        self._leases: "OrderedDict[str, _Lease]" = OrderedDict()
        self._lease_lock = threading.Lock()
        super().__init__({
            WorkerMessageKind.WORK_PULL.value: self._handle_pull,
            WorkerMessageKind.WORK_RESULT.value: self._handle_result,
            WorkerMessageKind.WORK_HEALTH.value: self._handle_health,
        }, host, port, max_frame_size=max_frame_size,
            idle_timeout=idle_timeout, max_connections=max_connections)

    async def _close(self) -> None:
        self.pool.shutdown(wait=False)

    async def _send(self, writer: asyncio.StreamWriter,
                    data: bytes) -> bool:
        """Write one response, subject to injected frame behaviour."""
        action = frame_action(self.injector)
        if action == DROP:
            return True  # the response vanishes; dispatcher times out
        if action == DISCONNECT:
            return False
        if action == DELAY:
            await asyncio.sleep(DELAY_SECONDS)
        if action == CORRUPT:
            data = corrupt_payload(data)
        return await super()._send(writer, data)

    # -- handlers ------------------------------------------------------------

    def _handle_pull(self, body: dict[str, Any]) -> dict[str, Any]:
        lease_id = body.get("lease")
        if not isinstance(lease_id, str) or not lease_id:
            raise ProtocolError("work-pull needs a non-empty lease id")
        lease_ms = body.get("lease_ms", 60_000)
        if not isinstance(lease_ms, int) or lease_ms < 1:
            raise ProtocolError("lease_ms must be a positive int")
        wire = body.get("job")
        if not isinstance(wire, dict):
            raise ProtocolError("work-pull needs a job dict")
        job = ProofJob.from_wire(wire)
        with self._lease_lock:
            if lease_id in self._leases:
                # Idempotent re-send (the dispatcher retried after a
                # transport blip): never double-run the lease.
                return {"accepted": True, "lease": lease_id,
                        "duplicate": True}
            self._evict_done_locked()
            future = self.pool.submit(job)
            lease = _Lease(lease_id, job.guest_id, future, lease_ms)
            self._leases[lease_id] = lease
        future.add_done_callback(self._count_outcome)
        return {"accepted": True, "lease": lease_id, "duplicate": False}

    def _handle_result(self, body: dict[str, Any]) -> dict[str, Any]:
        lease_id = body.get("lease")
        if not isinstance(lease_id, str) or not lease_id:
            raise ProtocolError("work-result needs a non-empty lease id")
        with self._lease_lock:
            lease = self._leases.get(lease_id)
        if lease is None:
            return {"state": "unknown", "lease": lease_id}
        if not lease.future.done():
            return {"state": "running", "lease": lease_id}
        error = lease.future.exception()
        if error is not None:
            return {"state": "failed", "lease": lease_id,
                    "code": error_code_for(error),
                    "message": str(error)}
        result = lease.future.result()
        return {"state": "done", "lease": lease_id,
                "result": result.to_wire()}

    def _handle_health(self, body: dict[str, Any]) -> dict[str, Any]:
        with self._lease_lock:
            leases = len(self._leases)
            running = sum(1 for lease in self._leases.values()
                          if not lease.future.done())
        snapshot = self.pool.snapshot()
        snapshot.update({
            "status": "ok",
            "endpoint": self.endpoint,
            "leases": leases,
            "running": running,
            "uptime_seconds": time.monotonic() - self.started_at,
            "requests_served": self.requests_served,
        })
        return snapshot

    # -- internals -----------------------------------------------------------

    def _count_outcome(self, future: "Future[JobResult]") -> None:
        outcome = "ok" if future.exception() is None else "error"
        obs.registry().counter(obs_names.CLUSTER_WORKER_JOBS,
                               ("outcome",)).inc(outcome=outcome)

    def _evict_done_locked(self) -> None:
        done = [lease_id for lease_id, lease in self._leases.items()
                if lease.future.done()]
        excess = len(done) - self.retention
        for lease_id in done[:max(excess, 0)]:
            del self._leases[lease_id]
