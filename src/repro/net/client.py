"""Client stubs for the prover wire protocol.

Two roles from Figure 1 talk to the prover server:

* :class:`RouterClient` — a router (or its export pipeline) publishing
  window commitments and nudging the off-path aggregator;
* :class:`QueryClient` — a remote verifier fetching the bulletin, the
  receipt chain, and proven query answers.

Both are deliberately *synchronous* (plain blocking sockets): the
verifier side of the paper is thin client code that runs anywhere, and
a sync stub composes with the CLI, tests, and benchmarks without an
event loop.  The server side is the asyncio half.

Each client keeps a small pool of idle connections; a connection that
fails mid-request is discarded (never re-pooled) and the request is
retried on a fresh connection under the client's
:class:`~repro.net.retry.RetryPolicy` — which is what makes a server
restart invisible to callers, at the price of the retried request being
re-executed (every protocol request is idempotent: publishing is
append-only-idempotent, queries are deterministic and cached, and
``run-round`` re-execution fails loudly with an already-aggregated
error rather than double-counting).
"""

from __future__ import annotations

import random
import socket
import threading
import time
from typing import Any

from ..commitments import BulletinBoard, Commitment
from ..obs import names as obs_names
from ..obs import runtime as obs
from ..errors import (
    ConfigurationError,
    ConnectionFailed,
    ProtocolError,
    RequestTimeout,
)
from ..serialization import query_response_from_wire
from .framing import (
    DEFAULT_MAX_FRAME_SIZE,
    read_frame_from,
    write_frame_to,
)
from .messages import Envelope, MessageKind, reply_body, request
from .retry import RetryPolicy, call_with_retry


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """Split ``"host:port"``; IPv6 hosts may be ``[bracketed]``."""
    host, sep, port_text = endpoint.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"endpoint {endpoint!r} is not host:port")
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(
            f"endpoint {endpoint!r} has a non-numeric port") from None
    if not 0 < port < 65536:
        raise ConfigurationError(f"port {port} out of range")
    return host.strip("[]"), port


class ServiceClient:
    """Shared transport: pooling, correlation ids, retries."""

    def __init__(self, host: str, port: int | None = None, *,
                 timeout: float = 10.0,
                 retry: RetryPolicy | None = None,
                 pool_size: int = 2,
                 max_frame_size: int = DEFAULT_MAX_FRAME_SIZE,
                 rng: random.Random | None = None,
                 fault_injector: Any = None) -> None:
        if port is None:
            host, port = parse_endpoint(host)
        if pool_size < 1:
            raise ConfigurationError("pool_size must be >= 1")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.pool_size = pool_size
        self.max_frame_size = max_frame_size
        self._rng = rng
        # Optional repro.faults.FaultInjector; fires the net.transport
        # site at the top of every attempt (chaos tests only).
        self._fault_injector = fault_injector
        self._pool: list[socket.socket] = []
        self._lock = threading.Lock()
        self._next_id = 1
        self._closed = False

    # -- pool ---------------------------------------------------------------

    def _connect(self) -> socket.socket:
        try:
            return socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
        except OSError as exc:
            raise ConnectionFailed(
                f"cannot connect to {self.host}:{self.port}: "
                f"{exc}") from exc

    def _checkout(self) -> socket.socket:
        with self._lock:
            if self._closed:
                raise ConnectionFailed("client is closed")
            if self._pool:
                return self._pool.pop()
        return self._connect()

    def _checkin(self, sock: socket.socket) -> None:
        with self._lock:
            if not self._closed and len(self._pool) < self.pool_size:
                self._pool.append(sock)
                return
        _quiet_close(sock)

    def close(self) -> None:
        with self._lock:
            self._closed = True
            pool, self._pool = self._pool, []
        for sock in pool:
            _quiet_close(sock)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- request/response ----------------------------------------------------

    def _request(self, kind: MessageKind,
                 body: dict[str, Any] | None = None) -> dict[str, Any]:
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
        envelope = request(request_id, kind, body)
        kind_label = envelope.kind
        registry = obs.registry()
        attempts = 0

        def attempt() -> dict[str, Any]:
            nonlocal attempts
            attempts += 1
            registry.counter(obs_names.NET_CLIENT_ATTEMPTS,
                             ("kind",)).inc(kind=kind_label)
            if attempts > 1:
                registry.counter(obs_names.NET_CLIENT_RETRIES,
                                 ("kind",)).inc(kind=kind_label)
            if self._fault_injector is not None:
                from ..faults.plan import NET_TRANSPORT
                self._fault_injector.fire(NET_TRANSPORT)
            sock = self._checkout()
            try:
                reply = self._exchange(sock, envelope)
            except BaseException:
                _quiet_close(sock)  # never re-pool a tainted socket
                raise
            self._checkin(sock)
            return reply

        start = time.perf_counter()
        with obs.tracer().span(obs_names.SPAN_NET_CLIENT_REQUEST,
                               kind=kind_label) as span:
            try:
                reply = call_with_retry(attempt, self.retry,
                                        rng=self._rng)
            except Exception as exc:
                registry.counter(obs_names.NET_CLIENT_REQUESTS,
                                 ("kind", "status")).inc(
                    kind=kind_label, status="err")
                registry.counter(obs_names.NET_CLIENT_ERRORS,
                                 ("kind", "error")).inc(
                    kind=kind_label, error=type(exc).__name__)
                raise
            span.set("attempts", attempts)
        registry.counter(obs_names.NET_CLIENT_REQUESTS,
                         ("kind", "status")).inc(kind=kind_label,
                                                 status="ok")
        registry.histogram(obs_names.NET_CLIENT_SECONDS,
                           ("kind",)).observe(
            time.perf_counter() - start, kind=kind_label)
        return reply

    def _exchange(self, sock: socket.socket,
                  envelope: Envelope) -> dict[str, Any]:
        registry = obs.registry()
        try:
            data = envelope.to_bytes()
            write_frame_to(sock.sendall, data, self.max_frame_size)
            registry.counter(obs_names.NET_CLIENT_BYTES,
                             ("direction",)).inc(len(data),
                                                 direction="out")
            payload = read_frame_from(sock.recv, self.max_frame_size)
            registry.counter(obs_names.NET_CLIENT_BYTES,
                             ("direction",)).inc(len(payload),
                                                 direction="in")
        except socket.timeout as exc:
            raise RequestTimeout(
                f"no response from {self.host}:{self.port} within "
                f"{self.timeout}s") from exc
        except OSError as exc:
            raise ConnectionFailed(
                f"connection to {self.host}:{self.port} failed: "
                f"{exc}") from exc
        return reply_body(envelope, payload)

    # -- shared endpoints ----------------------------------------------------

    def health(self) -> dict[str, Any]:
        """Server status snapshot (rounds, flows, counters...)."""
        return self._request(MessageKind.HEALTH)

    def fetch_status(self) -> dict[str, Any]:
        """Service status plus query-service stats.

        Returns ``{"service": {...}, "qserve": {...}}`` —
        ``service`` is ``ProverService.status()``, whose
        ``quarantined`` lists the windows no round will retry.
        """
        return self._request(MessageKind.STATUS)

    def fetch_metrics(self) -> dict[str, Any]:
        """The server's observability snapshot.

        Returns ``{"enabled": bool, "metrics": {...}}``; ``metrics`` is
        the registry snapshot (empty families when the server runs with
        the default no-op registry).
        """
        return self._request(MessageKind.METRICS)

    def fetch_bulletin(self, since: int = 0) -> BulletinBoard:
        """The server's bulletin from index ``since`` on (all of it by
        default), rebuilt from the wire."""
        body = self._request(MessageKind.GET_BULLETIN, _since_body(since))
        board = BulletinBoard()
        for wire in body["commitments"]:
            try:
                board.publish(Commitment.from_wire(wire))
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(
                    f"malformed commitment from server: {exc}"
                ) from exc
        return board


class RouterClient(ServiceClient):
    """Router-side stub: publish commitments, drive aggregation."""

    def publish(self, commitment: Commitment) -> int:
        """Publish one window commitment; returns the board size."""
        body = self._request(MessageKind.COMMIT_WINDOW,
                             {"commitment": commitment.to_wire()})
        return body["total"]

    def publish_all(self, commitments: Any) -> int:
        """Publish an iterable of commitments (e.g. a local board);
        returns the board size after the last publish."""
        total = 0
        for commitment in commitments:
            total = self.publish(commitment)
        return total

    def run_round(self,
                  windows: list[int] | None = None
                  ) -> list[dict[str, Any]]:
        """Aggregate ``windows`` (or everything committed when None).

        Returns one summary dict per proven round:
        ``{round, new_root, records, flows}``.
        """
        body = self._request(MessageKind.RUN_ROUND,
                             {"windows": windows})
        return body["rounds"]


class QueryClient(ServiceClient):
    """Verifier-side stub: proven queries + the material to check them.

    It holds a board that only grows and the rounds verified against
    it.  ``bulletin``, the trust anchor, is the routers' own board;
    without it the anchor is the prover's board, synced as it grows.
    """

    def __init__(self, host: str, port: int | None = None, *,
                 bulletin: BulletinBoard | None = None,
                 **options: Any) -> None:
        super().__init__(host, port, **options)
        from ..core.verifier_client import VerifierClient
        self._anchored = bulletin is not None
        self._verifier = VerifierClient(
            bulletin if bulletin is not None else BulletinBoard())
        self._rounds: list[Any] = []  # RoundHeader per verified round
        self._consumed: set[tuple[str, int]] = set()
        self._sync_lock = threading.Lock()

    def query(self, sql: str,
              round_index: int | None = None,
              tenant: str | None = None) -> Any:
        """A proven :class:`~repro.core.query_proof.QueryResponse`.

        ``tenant`` identifies the caller to the server's query service
        (admission, per-tenant rate limits, fair queueing); ``None``
        is the ``default`` tenant.  Backpressure surfaces as
        :class:`~repro.errors.AdmissionRejected`, which is *not* a
        transport error — the retry policy propagates it immediately
        and the caller decides when to come back.
        """
        body = {"sql": sql, "round": round_index}
        if tenant is not None:
            body["tenant"] = tenant
        reply = self._request(MessageKind.QUERY, body)
        return query_response_from_wire(reply["response"])

    def fetch_receipt_chain(self, since: int = 0) -> list[Any]:
        """The server's aggregation receipts from round ``since`` on
        (the full chain by default)."""
        from ..zkvm import Receipt
        body = self._request(MessageKind.FETCH_RECEIPT_CHAIN,
                             _since_body(since))
        try:
            return [Receipt.from_wire(w) for w in body["receipts"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"malformed receipt from server: {exc}") from exc

    def verified_query(self, sql: str,
                       round_index: int | None = None,
                       tenant: str | None = None) -> tuple[Any, Any]:
        """Query, then verify the answer against the held chain.

        A round already verified costs this one request.  A newer one
        first syncs what the server added (board unless anchored, then
        receipts), which must extend the held head: a diverged chain
        raises :class:`~repro.errors.ChainError` and is never re-read
        from genesis.  Returns ``(QueryResponse, QueryJournal)``.
        """
        response = self.query(sql, round_index, tenant=tenant)
        if response.round >= len(self._rounds):
            self._sync(response.round)
        return response, self._verifier.verify_query_in(response,
                                                        self._rounds)

    def _sync(self, round_index: int) -> None:
        with self._sync_lock:
            if round_index < len(self._rounds):
                return  # another thread synced while this one waited
            if not self._anchored:  # IntegrityError if it rewrites one
                board = self._verifier.bulletin
                for commitment in self.fetch_bulletin(len(board)):
                    board.publish(commitment)
            self._verifier.extend_chain(
                self._rounds, self._consumed,
                self.fetch_receipt_chain(len(self._rounds)))


def _since_body(since: int) -> dict[str, Any] | None:
    # "From the start" is sent as {}, which servers without since read.
    return {"since": since} if since else None


def _quiet_close(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass
