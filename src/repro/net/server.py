"""Asyncio frame servers: the prover's network face and their shared loop.

:class:`FrameServer` is the one frame/envelope server loop of this
package.  A server is a table mapping each request kind to its handler,
plus the start/stop steps it owns; :class:`ProverServer` (here) and
:class:`~repro.cluster.worker.WorkerServer` are the two tables.

:class:`ProverServer` serves the three roles of Figure 1 over one TCP
port: routers publish window commitments (``commit-window``) and
trigger aggregation rounds (``run-round``); clients fetch the bulletin
and receipt chain and issue proven queries.  It owns nothing new — it
wraps an existing ``ProverService`` and its ``BulletinBoard`` — so
everything the in-process API guarantees (append-only bulletin, chained
rounds, deterministic query receipts) holds identically over the wire.

Concurrency model (every :class:`FrameServer`):

* one asyncio task per connection, capped by ``max_connections``
  (excess connections queue on a semaphore — accept-side backpressure);
* per-connection **idle timeout**: a client that goes quiet (or
  dribbles a frame slower than the deadline) is disconnected, so slow
  clients cannot pin connections;
* per-request **timeout**: dispatch runs under ``asyncio.wait_for``;
* unframeable input earns one error envelope, then a hang-up — there
  is no frame boundary left to resynchronize on;
* responses are written with ``drain()`` so a client that stops reading
  stalls only its own task (write-side backpressure).

A handler returns the response body, or an awaitable of it.  Every
server answers ``metrics``.  Prover work is CPU-bound Python, so it
runs off the event loop — the loop stays responsive for health checks
while a round is proving: ``run-round`` (serialized by a lock) and
chain fetches in the default executor, queries through the prover's
:class:`~repro.qserve.QueryService`, whose dispatcher proves admitted
queries in batches on an executor thread.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from typing import Any, Awaitable, Callable, Mapping, Union

from ..commitments import Commitment
from ..obs import names as obs_names
from ..obs import runtime as obs
from ..qserve import QueryService
from ..errors import (
    FrameError,
    NetworkError,
    ProtocolError,
    ReproError,
)
from ..serialization import query_response_to_wire
from .framing import (
    DEFAULT_MAX_FRAME_SIZE,
    encode_frame,
    read_frame,
    write_frame,
)
from .messages import (
    INTERNAL_ERROR,
    Envelope,
    MessageKind,
    error_code_for,
    error_response,
    ok_response,
)

logger = logging.getLogger(__name__)

Body = dict[str, Any]
#: A request handler: the request body in, the response body (or an
#: awaitable of it) out.
Handler = Callable[[Body], Union[Body, Awaitable[Body]]]


class FrameServer:
    """Serve a table of request handlers over framed envelopes."""

    #: Names the server in logs, the CLI banner and its runner thread.
    label = "server"

    def __init__(self, handlers: Mapping[str, Handler],
                 host: str = "127.0.0.1", port: int = 0, *,
                 max_frame_size: int = DEFAULT_MAX_FRAME_SIZE,
                 request_timeout: float = 60.0,
                 idle_timeout: float = 30.0,
                 max_connections: int = 64) -> None:
        self.handlers = {
            MessageKind.METRICS.value: lambda body: obs.metrics_snapshot(),
            **handlers,
        }
        self.host = host
        self.port = port  # 0 until start() binds an ephemeral port
        self.max_frame_size = max_frame_size
        self.request_timeout = request_timeout
        self.idle_timeout = idle_timeout
        self.max_connections = max_connections
        self.requests_served = 0
        self.errors_returned = 0
        self._server: asyncio.base_events.Server | None = None
        self._conn_slots: asyncio.Semaphore | None = None
        self._thread: threading.Thread | None = None
        self._thread_loop: asyncio.AbstractEventLoop | None = None

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------------

    async def _open(self) -> None:
        """Start what the handlers need, before the port is bound."""

    async def _close(self) -> None:
        """Release what :meth:`_open` started, after the port closed."""

    async def start(self) -> None:
        if self._server is not None:
            raise ProtocolError(f"{self.label} already started")
        self._conn_slots = asyncio.Semaphore(self.max_connections)
        await self._open()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("%s listening on %s:%d", self.label, self.host,
                    self.port)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None
        await self._close()

    # Background-thread runner: lets synchronous code (tests, examples,
    # benchmarks) host a live server without owning an event loop.

    def start_background(self) -> "FrameServer":
        """Start the server on a daemon thread; returns once bound."""
        started = threading.Event()
        failure: list[BaseException] = []

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._thread_loop = loop
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # surface bind errors
                failure.append(exc)
                started.set()
                return
            started.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(
            target=run, daemon=True,
            name="repro-" + self.label.replace(" ", "-"))
        self._thread.start()
        started.wait(timeout=10)
        if failure:
            self._thread.join()
            self._thread = None
            raise failure[0]
        return self

    def stop_background(self) -> None:
        """Stop a server started with :meth:`start_background`."""
        loop, thread = self._thread_loop, self._thread
        if loop is None or thread is None:
            return

        async def shut_down() -> None:
            await self.stop()
            # Cancel lingering connection tasks so the loop drains
            # cleanly instead of abandoning coroutines mid-await.
            tasks = [t for t in asyncio.all_tasks()
                     if t is not asyncio.current_task()]
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

        future = asyncio.run_coroutine_threadsafe(shut_down(), loop)
        try:
            future.result(timeout=10)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
            self._thread = None
            self._thread_loop = None

    def __enter__(self) -> "FrameServer":
        return self.start_background()

    def __exit__(self, *exc_info: object) -> None:
        self.stop_background()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        assert self._conn_slots is not None
        peer = writer.get_extra_info("peername")
        connections = obs.registry().gauge(
            obs_names.NET_SERVER_CONNECTIONS)
        async with self._conn_slots:
            connections.inc()
            try:
                await self._serve_connection(reader, writer)
            except asyncio.CancelledError:
                pass  # server shutdown cancelled us mid-read
            except (ConnectionResetError, BrokenPipeError):
                pass  # peer vanished; nothing to tell it
            except Exception:
                logger.exception("%s connection %s crashed", self.label,
                                 peer)
            finally:
                connections.dec()
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    pass

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        while True:
            try:
                payload = await asyncio.wait_for(
                    read_frame(reader, self.max_frame_size),
                    timeout=self.idle_timeout)
            except asyncio.TimeoutError:
                logger.debug("disconnecting idle/slow client")
                return
            except (FrameError, ProtocolError) as exc:
                # Unframeable input: report once, then hang up — there
                # is no frame boundary left to resynchronize on.
                await self._try_send(
                    writer, error_response(0, "error",
                                           error_code_for(exc),
                                           str(exc)))
                return
            if payload is None:
                return  # clean EOF
            if not await self._send(writer, await self._respond(payload)):
                return

    async def _respond(self, payload: bytes) -> bytes:
        """Answer one request frame, metered and traced; the reply's bytes."""
        registry = obs.registry()
        registry.counter(obs_names.NET_SERVER_BYTES,
                         ("direction",)).inc(len(payload),
                                             direction="in")
        start = time.perf_counter()
        with obs.tracer().span(
                obs_names.SPAN_NET_SERVER_REQUEST) as span:
            response = await self._process(payload)
            span.set("kind", response.kind)
            span.set("status", response.type)
        status = "ok" if response.type == "ok" else "err"
        registry.counter(obs_names.NET_SERVER_REQUESTS,
                         ("kind", "status")).inc(
            kind=response.kind, status=status)
        registry.histogram(obs_names.NET_SERVER_SECONDS,
                           ("kind",)).observe(
            time.perf_counter() - start, kind=response.kind)
        self.requests_served += 1
        if response.type == "err":
            self.errors_returned += 1
            registry.counter(obs_names.NET_SERVER_ERRORS,
                             ("kind", "code")).inc(
                kind=response.kind,
                code=str(response.body.get("code", "unknown")))
        out_bytes = response.to_bytes()
        registry.counter(obs_names.NET_SERVER_BYTES,
                         ("direction",)).inc(len(out_bytes),
                                             direction="out")
        return out_bytes

    async def _send(self, writer: asyncio.StreamWriter,
                    data: bytes) -> bool:
        """Write one response frame; False hangs up the connection."""
        try:
            await asyncio.wait_for(
                write_frame(writer, data, self.max_frame_size),
                timeout=self.idle_timeout)
        except asyncio.TimeoutError:
            logger.debug("disconnecting client that stopped reading")
            return False
        return True

    async def _try_send(self, writer: asyncio.StreamWriter,
                        envelope: Envelope) -> None:
        try:
            writer.write(encode_frame(envelope.to_bytes(),
                                      self.max_frame_size))
            await asyncio.wait_for(writer.drain(),
                                   timeout=self.idle_timeout)
        except (OSError, asyncio.TimeoutError):
            pass

    async def _process(self, payload: bytes) -> Envelope:
        try:
            envelope = Envelope.from_bytes(payload)
        except ReproError as exc:
            return error_response(0, "error", error_code_for(exc),
                                  str(exc))
        if envelope.type != "req":
            return error_response(envelope.request_id, envelope.kind,
                                  "bad-request",
                                  f"expected a request envelope, got "
                                  f"{envelope.type!r}")
        handler = self.handlers.get(envelope.kind)
        if handler is None:
            return error_response(envelope.request_id, envelope.kind,
                                  "bad-request",
                                  f"unknown request kind "
                                  f"{envelope.kind!r}")
        try:
            body = await asyncio.wait_for(
                _call(handler, envelope.body),
                timeout=self.request_timeout)
        except asyncio.TimeoutError:
            return error_response(
                envelope.request_id, envelope.kind, "timeout",
                f"request exceeded the {self.request_timeout}s "
                "server deadline")
        except NetworkError as exc:
            return error_response(envelope.request_id, envelope.kind,
                                  error_code_for(exc), str(exc))
        except ReproError as exc:
            logger.info("request %s failed: %s", envelope.kind, exc)
            return error_response(envelope.request_id, envelope.kind,
                                  error_code_for(exc), str(exc))
        except Exception as exc:
            logger.exception("internal error serving %s",
                             envelope.kind)
            return error_response(envelope.request_id, envelope.kind,
                                  INTERNAL_ERROR,
                                  f"{type(exc).__name__}: {exc}")
        return ok_response(envelope.request_id, envelope.kind, body)


async def _call(handler: Handler, body: Body) -> Body:
    result = handler(body)
    if asyncio.iscoroutine(result):
        return await result
    return result


def _offload(fn: Callable[[Body], Body]) -> Handler:
    """Run a CPU-bound handler in the default executor."""
    async def run(body: Body) -> Body:
        return await asyncio.get_running_loop().run_in_executor(
            None, fn, body)
    return run


class ProverServer(FrameServer):
    """Serve a :class:`~repro.core.prover_service.ProverService` over TCP."""

    label = "prover server"

    def __init__(self, service: Any, host: str = "127.0.0.1",
                 port: int = 0, *,
                 qserve: QueryService | None = None,
                 max_frame_size: int = DEFAULT_MAX_FRAME_SIZE,
                 request_timeout: float = 60.0,
                 idle_timeout: float = 30.0,
                 max_connections: int = 64) -> None:
        self.service = service
        self.bulletin = service.bulletin
        # Every query goes through a QueryService: admission, batching
        # and the result cache (``serve --max-inflight/--tenant-rate``
        # configure the one the CLI builds).
        self.qserve = qserve or QueryService(service)
        self._round_lock: asyncio.Lock | None = None
        super().__init__({
            MessageKind.HEALTH.value: self._handle_health,
            MessageKind.STATUS.value: self._handle_status,
            MessageKind.GET_BULLETIN.value: self._handle_get_bulletin,
            MessageKind.COMMIT_WINDOW.value: self._handle_commit_window,
            MessageKind.FETCH_RECEIPT_CHAIN.value:
                _offload(self._handle_fetch_receipt_chain),
            MessageKind.RUN_ROUND.value: self._run_round,
            MessageKind.QUERY.value: self._handle_query,
        }, host, port, max_frame_size=max_frame_size,
            request_timeout=request_timeout, idle_timeout=idle_timeout,
            max_connections=max_connections)

    async def _open(self) -> None:
        self._round_lock = asyncio.Lock()
        await self.qserve.start()

    async def _close(self) -> None:
        await self.qserve.stop()

    # -- handlers ------------------------------------------------------------

    async def _run_round(self, body: Body) -> Body:
        assert self._round_lock is not None
        async with self._round_lock:
            return await _offload(self._handle_run_round)(body)

    def _handle_health(self, body: Body) -> Body:
        status = self.service.status()
        status.update({
            "status": "ok",
            "commitments": len(self.bulletin),
            "requests_served": self.requests_served,
            "errors_returned": self.errors_returned,
        })
        return status

    def _handle_status(self, body: Body) -> Body:
        """Service status plus the query service's stats."""
        return {
            "service": self.service.status(),
            "qserve": self.qserve.stats(),
        }

    def _handle_get_bulletin(self, body: Body) -> Body:
        commitments = list(self.bulletin)[_since(body):]
        return {"commitments": [c.to_wire() for c in commitments]}

    def _handle_commit_window(self, body: Body) -> Body:
        wire = _require(body, "commitment", dict)
        try:
            commitment = Commitment.from_wire(wire)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed commitment: {exc}") from exc
        self.bulletin.publish(commitment)
        return {"published": True, "total": len(self.bulletin)}

    def _handle_run_round(self, body: Body) -> Body:
        windows = body.get("windows")
        if windows is None:
            results = self.service.aggregate_all_committed()
        else:
            if (not isinstance(windows, list) or not windows
                    or not all(isinstance(w, int) for w in windows)):
                raise ProtocolError(
                    "windows must be a non-empty list of ints")
            results = [self.service.aggregate_windows(windows)]
        return {"rounds": [{
            "round": r.round,
            "new_root": r.new_root,
            "records": r.record_count,
            "flows": len(r.new_state),
        } for r in results]}

    async def _handle_query(self, body: Body) -> Body:
        """QUERY through the query service.

        The request parks on the admission queue and only the
        dispatcher's batched proving occupies an executor thread.
        Backpressure surfaces as the typed ``admission-rejected`` wire
        code via the normal error mapping in ``_process``.
        """
        sql = _require(body, "sql", str)
        round_index = _round(body)
        tenant = body.get("tenant", "default")
        if tenant is None:
            tenant = "default"
        if not isinstance(tenant, str):
            raise ProtocolError("tenant must be a string")
        response = await self.qserve.submit(sql, round_index,
                                            tenant=tenant)
        return {"response": query_response_to_wire(response)}

    def _handle_fetch_receipt_chain(self, body: Body) -> Body:
        receipts = self.service.chain.receipts()[_since(body):]
        return {"receipts": [r.to_wire() for r in receipts]}


def _since(body: Body) -> int:
    """The optional ``since`` index of a bulletin or chain fetch."""
    since = body.get("since", 0)
    if isinstance(since, bool) or not isinstance(since, int) or since < 0:
        raise ProtocolError(
            f"since must be a non-negative int, got {since!r}")
    return since


def _round(body: Body) -> int | None:
    """The optional ``round`` of a query (``None`` means the latest)."""
    round_index = body.get("round")
    if round_index is not None and (isinstance(round_index, bool)
                                    or not isinstance(round_index, int)
                                    or round_index < 0):
        raise ProtocolError(
            f"round must be a non-negative int or None, got "
            f"{round_index!r}")
    return round_index


def _require(body: Body, key: str, expected: type) -> Any:
    value = body.get(key)
    if not isinstance(value, expected):
        raise ProtocolError(
            f"request body field {key!r} must be "
            f"{expected.__name__}, got {type(value).__name__}")
    return value
