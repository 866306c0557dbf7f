"""Per-node state and the dispatcher-side worker client.

One :class:`NodeState` per configured worker endpoint tracks the
quarantine machinery (exponential backoff, applied per *node*): a
node accumulates ``consecutive_failures`` across transport errors,
lease timeouts and rejected results; crossing the threshold
quarantines it for an exponentially growing backoff window, after
which the dispatcher probes it (``work-health``) and either reinstates
or re-quarantines at the next backoff level.  A *Byzantine* rejection
— a receipt that fails re-verification — quarantines immediately at
the maximum backoff: a node that lies about proofs is worse than a
node that is down.

:class:`WorkerClient` is the :class:`~repro.net.client.ServiceClient`
transport pointed at a worker daemon, speaking the three worker kinds,
with the ``net.frame`` fault site wired into its exchange path so
chaos plans can drop/delay/corrupt/disconnect individual frames
deterministically.
"""

from __future__ import annotations

import math
import socket
import time
from typing import Any

from ..engine.jobs import ProofJob
from ..errors import (
    ConfigurationError,
    ConnectionFailed,
    ProtocolError,
    RequestTimeout,
)
from ..faults.wire import (
    CORRUPT,
    DELAY,
    DELAY_SECONDS,
    DISCONNECT,
    DROP,
    corrupt_payload,
    frame_action,
)
from ..net.client import ServiceClient, parse_endpoint
from ..net.framing import read_frame_from, write_frame_to
from ..net.messages import Envelope, WorkerMessageKind, reply_body
from ..net.retry import RetryPolicy

#: Node health states (the ``repro_cluster_nodes`` gauge's label values).
HEALTHY = "healthy"
QUARANTINED = "quarantined"


def parse_nodes(text: str) -> tuple[str, ...]:
    """Split a ``host:port,host:port`` list, validating each endpoint."""
    nodes = tuple(piece.strip() for piece in text.split(",")
                  if piece.strip())
    if not nodes:
        raise ConfigurationError("empty cluster node list")
    for node in nodes:
        parse_endpoint(node)  # raises ConfigurationError on bad syntax
    return nodes


class WorkerClient(ServiceClient):
    """Blocking client for one worker daemon.

    The dispatcher owns retries, failover and lease re-dispatch, so
    the transport retry policy is a single attempt — a failed exchange
    must surface immediately as *this node's* failure, not be papered
    over by a transparent retry that skews the quarantine accounting.
    """

    def __init__(self, host: str, port: int | None = None, *,
                 timeout: float = 10.0,
                 fault_injector: Any = None) -> None:
        super().__init__(host, port, timeout=timeout,
                         retry=RetryPolicy(max_attempts=1), pool_size=1,
                         fault_injector=fault_injector)

    # -- worker endpoints ----------------------------------------------------

    def submit_job(self, job: ProofJob, lease_id: str,
                   lease_ms: int) -> dict[str, Any]:
        """``work-pull``: hand the job over under ``lease_id``."""
        return self._request(WorkerMessageKind.WORK_PULL.value, {
            "job": job.to_wire(),
            "lease": lease_id,
            "lease_ms": int(lease_ms),
        })

    def poll_result(self, lease_id: str) -> dict[str, Any]:
        """``work-result``: the lease's state (+ result when done)."""
        return self._request(WorkerMessageKind.WORK_RESULT.value,
                             {"lease": lease_id})

    def probe(self) -> dict[str, Any]:
        """``work-health``: liveness + load snapshot."""
        return self._request(WorkerMessageKind.WORK_HEALTH.value)

    # -- fault-injected exchange ---------------------------------------------

    def _exchange(self, sock: socket.socket,
                  envelope: Envelope) -> dict[str, Any]:
        action = frame_action(self._fault_injector)
        if action is None:
            return super()._exchange(sock, envelope)
        if action == DELAY:
            time.sleep(DELAY_SECONDS)
            return super()._exchange(sock, envelope)
        if action == DISCONNECT:
            try:
                sock.close()
            except OSError:
                pass
            raise ConnectionFailed(
                f"injected disconnect to {self.host}:{self.port}")
        if action == DROP:
            # The request frame vanishes in flight: send nothing and
            # wait out the socket timeout, exactly like a blackhole.
            try:
                read_frame_from(sock.recv, self.max_frame_size)
            except socket.timeout as exc:
                raise RequestTimeout(
                    f"no response from {self.host}:{self.port} within "
                    f"{self.timeout}s (dropped frame)") from exc
            except OSError as exc:
                raise ConnectionFailed(
                    f"connection to {self.host}:{self.port} failed: "
                    f"{exc}") from exc
            raise ProtocolError("unsolicited frame after dropped request")
        # CORRUPT: flip the outgoing envelope's leading byte; a correct
        # peer must reject it with a typed error envelope and hang up.
        data = corrupt_payload(envelope.to_bytes())
        try:
            write_frame_to(sock.sendall, data, self.max_frame_size)
            payload = read_frame_from(sock.recv, self.max_frame_size)
        except socket.timeout as exc:
            raise RequestTimeout(
                f"no response from {self.host}:{self.port} within "
                f"{self.timeout}s") from exc
        except OSError as exc:
            raise ConnectionFailed(
                f"connection to {self.host}:{self.port} failed: "
                f"{exc}") from exc
        reply_body(envelope, payload)
        raise ProtocolError(
            f"{self.host}:{self.port} accepted a corrupted frame")


class NodeState:
    """Dispatcher-side view of one worker node.

    Mutated only under the dispatcher's lock; the backoff schedule is
    ``base * multiplier**level`` capped at ``maximum`` (no jitter —
    probe timing must replay deterministically in chaos runs; the
    randomness budget lives in the fault plan's seed instead).
    """

    def __init__(self, endpoint: str, client: WorkerClient, *,
                 quarantine_after: int = 2,
                 backoff_base: float = 0.5,
                 backoff_multiplier: float = 2.0,
                 backoff_max: float = 30.0) -> None:
        self.endpoint = endpoint
        self.client = client
        self.quarantine_after = quarantine_after
        self.backoff_base = backoff_base
        self.backoff_multiplier = backoff_multiplier
        self.backoff_max = backoff_max
        self.state = HEALTHY
        self.consecutive_failures = 0
        self.backoff_level = 0
        self.quarantined_until = 0.0
        self.last_error: str | None = None
        self.jobs_ok = 0
        self.jobs_failed = 0
        self.rejected = 0
        self.leases = 0

    # -- accounting (caller holds the dispatcher lock) -----------------------

    def record_success(self) -> None:
        self.jobs_ok += 1
        self.consecutive_failures = 0
        self.backoff_level = 0
        self.last_error = None

    def record_failure(self, error: BaseException | str) -> bool:
        """Count one node-attributable failure; True if it quarantined."""
        self.jobs_failed += 1
        self.consecutive_failures += 1
        self.last_error = str(error)
        if self.state == HEALTHY \
                and self.consecutive_failures >= self.quarantine_after:
            self._quarantine()
            return True
        return False

    def record_rejection(self, error: BaseException | str) -> bool:
        """A Byzantine result: quarantine immediately at max backoff."""
        self.rejected += 1
        self.consecutive_failures += 1
        self.last_error = str(error)
        quarantined = self.state == HEALTHY
        self.backoff_level = self._max_level()
        self._quarantine()
        return quarantined

    def reinstate(self) -> None:
        """A probe succeeded: back to the healthy rotation."""
        self.state = HEALTHY
        self.consecutive_failures = 0
        self.quarantined_until = 0.0

    def probe_failed(self, error: BaseException | str) -> None:
        """A reinstatement probe failed: next backoff level."""
        self.last_error = str(error)
        self.backoff_level = min(self.backoff_level + 1,
                                 self._max_level())
        self.quarantined_until = time.monotonic() + self.backoff()

    def probe_due(self, now: float | None = None) -> bool:
        return self.state == QUARANTINED \
            and (now if now is not None else time.monotonic()) \
            >= self.quarantined_until

    def backoff(self) -> float:
        return min(
            self.backoff_base
            * self.backoff_multiplier ** self.backoff_level,
            self.backoff_max)

    def _quarantine(self) -> None:
        self.state = QUARANTINED
        self.quarantined_until = time.monotonic() + self.backoff()
        self.backoff_level = min(self.backoff_level + 1,
                                 self._max_level())

    def _max_level(self) -> int:
        if self.backoff_base <= 0:
            return 0
        return max(0, math.ceil(math.log(
            max(self.backoff_max / self.backoff_base, 1.0),
            self.backoff_multiplier)))

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        return {
            "endpoint": self.endpoint,
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "backoff_level": self.backoff_level,
            "backoff_seconds": self.backoff(),
            "jobs_ok": self.jobs_ok,
            "jobs_failed": self.jobs_failed,
            "rejected": self.rejected,
            "leases": self.leases,
            "last_error": self.last_error,
        }


__all__ = [
    "HEALTHY",
    "QUARANTINED",
    "NodeState",
    "WorkerClient",
    "parse_nodes",
]
