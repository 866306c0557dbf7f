"""Asyncio prover server: the network face of a :class:`ProverService`.

Serves the three roles of Figure 1 over one TCP port: routers publish
window commitments (``commit-window``) and trigger aggregation rounds
(``run-round``); clients fetch the bulletin and receipt chain and issue
proven queries.  The server owns nothing new — it wraps an existing
``ProverService`` and its ``BulletinBoard`` — so everything the
in-process API guarantees (append-only bulletin, chained rounds,
deterministic query receipts) holds identically over the wire.

Concurrency model:

* one asyncio task per connection, capped by ``max_connections``
  (excess connections queue on a semaphore — accept-side backpressure);
* per-connection **idle timeout**: a client that goes quiet (or
  dribbles a frame slower than the deadline) is disconnected, so slow
  clients cannot pin connections;
* per-request **timeout**: dispatch runs under ``asyncio.wait_for``;
* prover work (aggregation, query proving) is CPU-bound Python, so it
  runs in the default executor — the event loop stays responsive for
  health checks while a round is proving — with a lock serializing the
  state-mutating kinds (``run-round``); queries are pure + cached and
  run unlocked;
* responses are written with ``drain()`` so a client that stops reading
  stalls only its own task (write-side backpressure).
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from typing import Any, Callable

from ..commitments import Commitment
from ..obs import names as obs_names
from ..obs import runtime as obs
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
    REQUEST_KINDS,
    Envelope,
    MessageKind,
    error_code_for,
    error_response,
    ok_response,
)

logger = logging.getLogger(__name__)


class ProverServer:
    """Serve a :class:`~repro.core.prover_service.ProverService` over TCP."""

    def __init__(self, service: Any, host: str = "127.0.0.1",
                 port: int = 0, *,
                 daemon: Any = None,
                 qserve: Any = None,
                 max_frame_size: int = DEFAULT_MAX_FRAME_SIZE,
                 request_timeout: float = 60.0,
                 idle_timeout: float = 30.0,
                 max_connections: int = 64) -> None:
        self.service = service
        self.bulletin = service.bulletin
        self.daemon = daemon  # optional AggregationDaemon for `status`
        # The multi-tenant serving layer is opt-in: pass a configured
        # QueryService (``serve --max-inflight/--tenant-rate``).
        # Without it, queries run one-per-request on the executor.
        self.qserve = qserve
        self.host = host
        self.port = port  # 0 until start() binds an ephemeral port
        self.max_frame_size = max_frame_size
        self.request_timeout = request_timeout
        self.idle_timeout = idle_timeout
        self.max_connections = max_connections
        self.requests_served = 0
        self.errors_returned = 0
        self._server: asyncio.base_events.Server | None = None
        self._round_lock: asyncio.Lock | None = None
        self._conn_slots: asyncio.Semaphore | None = None
        self._thread: threading.Thread | None = None
        self._thread_loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        if self._server is not None:
            raise ProtocolError("server already started")
        self._round_lock = asyncio.Lock()
        self._conn_slots = asyncio.Semaphore(self.max_connections)
        if self.qserve is not None:
            await self.qserve.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("prover server listening on %s:%d", self.host,
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
        if self.qserve is not None:
            await self.qserve.stop()

    # Background-thread runner: lets synchronous code (tests, examples,
    # benchmarks) host a live server without owning an event loop.

    def start_background(self) -> "ProverServer":
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

        self._thread = threading.Thread(target=run, daemon=True,
                                        name="repro-prover-server")
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

    def __enter__(self) -> "ProverServer":
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
            except (ConnectionResetError, BrokenPipeError):
                pass  # peer vanished; nothing to tell it
            except Exception:
                logger.exception("connection %s crashed", peer)
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
            try:
                await asyncio.wait_for(
                    write_frame(writer, out_bytes,
                                self.max_frame_size),
                    timeout=self.idle_timeout)
            except asyncio.TimeoutError:
                logger.debug("disconnecting client that stopped "
                             "reading")
                return

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
        if envelope.kind not in REQUEST_KINDS:
            return error_response(envelope.request_id, envelope.kind,
                                  "bad-request",
                                  f"unknown request kind "
                                  f"{envelope.kind!r}")
        try:
            body = await asyncio.wait_for(
                self._dispatch(envelope.kind, envelope.body),
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

    # -- dispatch ------------------------------------------------------------

    async def _dispatch(self, kind: str,
                        body: dict[str, Any]) -> dict[str, Any]:
        if kind == MessageKind.HEALTH.value:
            return self._handle_health()
        if kind == MessageKind.STATUS.value:
            return self._handle_status()
        if kind == MessageKind.METRICS.value:
            return obs.metrics_snapshot()
        if kind == MessageKind.GET_BULLETIN.value:
            return self._handle_get_bulletin()
        if kind == MessageKind.COMMIT_WINDOW.value:
            return self._handle_commit_window(body)
        if kind == MessageKind.FETCH_RECEIPT_CHAIN.value:
            return await self._in_executor(
                self._handle_fetch_receipt_chain)
        if kind == MessageKind.RUN_ROUND.value:
            assert self._round_lock is not None
            async with self._round_lock:
                return await self._in_executor(
                    lambda: self._handle_run_round(body))
        if kind == MessageKind.QUERY.value:
            if self.qserve is not None:
                return await self._handle_query_qserve(body)
            return await self._in_executor(
                lambda: self._handle_query(body))
        raise ProtocolError(f"unknown request kind {kind!r}")

    @staticmethod
    async def _in_executor(fn: Callable[[], dict[str, Any]]
                           ) -> dict[str, Any]:
        return await asyncio.get_running_loop().run_in_executor(
            None, fn)

    def _handle_health(self) -> dict[str, Any]:
        status = self.service.status()
        status.update({
            "status": "ok",
            "commitments": len(self.bulletin),
            "requests_served": self.requests_served,
            "errors_returned": self.errors_returned,
        })
        return status

    def _handle_status(self) -> dict[str, Any]:
        """Service status plus the supervised daemon's health view."""
        return {
            "service": self.service.status(),
            "daemon": (self.daemon.health()
                       if self.daemon is not None else None),
            "qserve": (self.qserve.stats()
                       if self.qserve is not None else None),
        }

    def _handle_get_bulletin(self) -> dict[str, Any]:
        return {"commitments": [c.to_wire() for c in self.bulletin]}

    def _handle_commit_window(self,
                              body: dict[str, Any]) -> dict[str, Any]:
        wire = _require(body, "commitment", dict)
        try:
            commitment = Commitment.from_wire(wire)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed commitment: {exc}") from exc
        self.bulletin.publish(commitment)
        return {"published": True, "total": len(self.bulletin)}

    def _handle_run_round(self,
                          body: dict[str, Any]) -> dict[str, Any]:
        windows = body.get("windows")
        if windows is None:
            results = self.service.aggregate_all_committed()
        else:
            if (not isinstance(windows, list)
                    or not all(isinstance(w, int) for w in windows)):
                raise ProtocolError("windows must be a list of ints")
            results = [self.service.aggregate_windows(windows)]
        return {"rounds": [{
            "round": r.round,
            "new_root": r.new_root,
            "records": r.record_count,
            "flows": len(r.new_state),
        } for r in results]}

    def _handle_query(self, body: dict[str, Any]) -> dict[str, Any]:
        sql = _require(body, "sql", str)
        round_index = body.get("round")
        if round_index is not None and not isinstance(round_index, int):
            raise ProtocolError("round must be an int or None")
        response = self.service.answer_query(sql,
                                             round_index=round_index)
        return {"response": query_response_to_wire(response)}

    async def _handle_query_qserve(self,
                                   body: dict[str, Any]
                                   ) -> dict[str, Any]:
        """QUERY through the multi-tenant serving layer.

        Unlike :meth:`_handle_query` this never blocks an executor
        thread per request: the request parks on the admission queue
        and only the dispatcher's batched proving occupies one.
        Backpressure surfaces as the typed ``admission-rejected`` wire
        code via the normal error mapping in ``_process``.
        """
        sql = _require(body, "sql", str)
        round_index = body.get("round")
        if round_index is not None and not isinstance(round_index, int):
            raise ProtocolError("round must be an int or None")
        tenant = body.get("tenant", "default")
        if tenant is None:
            tenant = "default"
        if not isinstance(tenant, str):
            raise ProtocolError("tenant must be a string")
        response = await self.qserve.submit(sql, round_index,
                                            tenant=tenant)
        return {"response": query_response_to_wire(response)}

    def _handle_fetch_receipt_chain(self) -> dict[str, Any]:
        return {"receipts": [r.to_wire()
                             for r in self.service.chain.receipts()]}


def _require(body: dict[str, Any], key: str, expected: type) -> Any:
    value = body.get(key)
    if not isinstance(value, expected):
        raise ProtocolError(
            f"request body field {key!r} must be "
            f"{expected.__name__}, got {type(value).__name__}")
    return value
