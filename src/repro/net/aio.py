"""A minimal asyncio client stub for the prover wire protocol.

The synchronous :class:`~repro.net.client.ServiceClient` blocks a
thread per in-flight request, which caps how much concurrency a single
test process can throw at a server.  :class:`AsyncQueryClient` speaks
the same length-prefixed envelope protocol over one
``asyncio.open_connection`` stream, so hundreds of clients are just
hundreds of coroutines — the shape the multi-tenant load tests need.

Deliberately *single-attempt*: no pooling, no retries.  Load tests
count answered-exactly-once semantics, and an invisible transport
retry would blur the very accounting the tests exist to do.  Replies
go through the same check as the sync client's
(:func:`~repro.net.messages.reply_body`), so an ``admission-rejected``
envelope raises :class:`~repro.errors.AdmissionRejected` here too.
"""

from __future__ import annotations

import asyncio
from typing import Any

from ..errors import ConnectionFailed
from ..serialization import query_response_from_wire
from .framing import DEFAULT_MAX_FRAME_SIZE, read_frame, write_frame
from .messages import MessageKind, reply_body, request


class AsyncQueryClient:
    """One connection, sequential requests, typed remote errors."""

    def __init__(self, host: str, port: int, *,
                 max_frame_size: int = DEFAULT_MAX_FRAME_SIZE) -> None:
        self.host = host
        self.port = port
        self.max_frame_size = max_frame_size
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None
        self._next_id = 1

    async def connect(self) -> "AsyncQueryClient":
        try:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)
        except OSError as exc:
            raise ConnectionFailed(
                f"cannot connect to {self.host}:{self.port}: "
                f"{exc}") from exc
        return self

    async def close(self) -> None:
        if self._writer is None:
            return
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        self._reader = self._writer = None

    async def __aenter__(self) -> "AsyncQueryClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # -- requests ------------------------------------------------------------

    async def request(self, kind: MessageKind,
                      body: dict[str, Any] | None = None
                      ) -> dict[str, Any]:
        if self._writer is None or self._reader is None:
            raise ConnectionFailed("client is not connected")
        request_id = self._next_id
        self._next_id += 1
        envelope = request(request_id, kind, body)
        try:
            await write_frame(self._writer, envelope.to_bytes(),
                              self.max_frame_size)
            payload = await read_frame(self._reader,
                                       self.max_frame_size)
        except OSError as exc:
            raise ConnectionFailed(
                f"connection to {self.host}:{self.port} failed: "
                f"{exc}") from exc
        if payload is None:
            raise ConnectionFailed("server closed the connection")
        return reply_body(envelope, payload)

    async def query(self, sql: str, round_index: int | None = None,
                    tenant: str | None = None) -> Any:
        """A proven ``QueryResponse`` (or a typed remote error)."""
        body: dict[str, Any] = {"sql": sql, "round": round_index}
        if tenant is not None:
            body["tenant"] = tenant
        reply = await self.request(MessageKind.QUERY, body)
        return query_response_from_wire(reply["response"])

    async def fetch_status(self) -> dict[str, Any]:
        return await self.request(MessageKind.STATUS)

    async def fetch_metrics(self) -> dict[str, Any]:
        return await self.request(MessageKind.METRICS)


__all__ = ["AsyncQueryClient"]
