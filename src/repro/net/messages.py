"""Typed message schema for the prover wire protocol.

Every frame payload is one canonically encoded **envelope**::

    {v: 1, t: "req" | "ok" | "err", id: <int>, k: <kind>, b: <body>}

``id`` is a client-chosen correlation id the server echoes back; ``k``
is the message kind (request kinds below; responses echo the request's
kind); ``b`` is a kind-specific dict body.

Request kinds and their bodies:

=====================  ====================================================
``health``             ``{}`` → server status snapshot
``commit-window``      ``{commitment}`` → router publishes to the bulletin
``get-bulletin``       ``{since: int?}`` → published commitments from
                       index ``since`` on (all when absent)
``run-round``          ``{windows: [int] | None}`` → aggregation round(s)
``query``              ``{sql, round: int | None, tenant: str?}`` →
                       proven QueryResponse.  ``round`` is a
                       non-negative int (not a bool) or None for the
                       latest; ``tenant`` (optional, default
                       ``"default"``) names the query service's
                       rate-limit bucket.  An over-limit or over-capacity request is
                       rejected with the ``admission-rejected`` code
                       instead of being queued.
``fetch-receipt-chain``  ``{since: int?}`` → aggregation receipts from
                       round ``since`` on (all when absent)
``status``             ``{}`` → ``{service, qserve}``: the service
                       status (quarantined windows included) and the
                       query service's stats
``metrics``            ``{}`` → observability snapshot
                       (``{enabled, metrics}``; empty when the server
                       runs with the default no-op registry)
=====================  ====================================================

Error envelopes carry ``{code, message}``.  Codes map both directions
onto the :mod:`repro.errors` hierarchy: the server derives a code from
the exception it caught (most-specific class wins), and the client
re-raises the mapped class — so a :class:`~repro.errors.MissingCommitment`
thrown inside the server surfaces as a ``MissingCommitment`` at the
caller, with :class:`~repro.errors.RemoteError` as the fallback for
codes without a message-only constructor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from ..errors import (
    AdmissionRejected,
    ChainError,
    FrameTooLarge,
    GuestAbort,
    IntegrityError,
    MissingCommitment,
    PoolShutdown,
    ProofError,
    ProtocolError,
    QueryError,
    QuerySyntaxError,
    RemoteError,
    ReproError,
    RequestTimeout,
    SerializationError,
    StorageError,
    VerificationError,
)
from ..serialization import decode, encode

PROTOCOL_VERSION = 1

_ENVELOPE_TYPES = ("req", "ok", "err")


class MessageKind(str, enum.Enum):
    """Request kinds a server dispatches on."""

    HEALTH = "health"
    COMMIT_WINDOW = "commit-window"
    GET_BULLETIN = "get-bulletin"
    RUN_ROUND = "run-round"
    QUERY = "query"
    FETCH_RECEIPT_CHAIN = "fetch-receipt-chain"
    STATUS = "status"
    METRICS = "metrics"


class WorkerMessageKind(str, enum.Enum):
    """Request kinds a cluster *worker daemon* dispatches on.

    The prover-facing kinds above serve verifiers and routers; these
    serve exactly one caller — the cluster dispatcher inside a remote
    :class:`~repro.engine.pool.ProverPool`:

    =================  =====================================================
    ``work-pull``      ``{job, lease, lease_ms, capture_obs?}`` → the worker
                       accepts the :class:`~repro.engine.jobs.ProofJob`
                       under the caller-chosen lease id and starts proving
                       in the background; the ack ``{accepted, lease,
                       duplicate}`` returns immediately (``duplicate`` when
                       the lease was already held — re-sends are idempotent)
    ``work-result``    ``{lease}`` → ``{state: "running"}``,
                       ``{state: "done", result}``, ``{state: "failed",
                       code, message}``, or ``{state: "unknown"}`` when the
                       worker never saw (or already evicted) the lease
    ``work-health``    ``{}`` → liveness probe: pool snapshot, lease count,
                       uptime — the dispatcher's quarantine/reinstate signal
    =================  =====================================================
    """

    WORK_PULL = "work-pull"
    WORK_RESULT = "work-result"
    WORK_HEALTH = "work-health"


@dataclass(frozen=True)
class Envelope:
    """One decoded wire message."""

    type: str  # "req" | "ok" | "err"
    request_id: int
    kind: str
    body: dict[str, Any]

    def to_bytes(self) -> bytes:
        return encode({
            "v": PROTOCOL_VERSION,
            "t": self.type,
            "id": self.request_id,
            "k": self.kind,
            "b": self.body,
        })

    @classmethod
    def from_bytes(cls, payload: bytes) -> "Envelope":
        try:
            wire = decode(payload)
        except SerializationError as exc:
            raise ProtocolError(
                f"envelope is not canonically encoded: {exc}") from exc
        if not isinstance(wire, dict):
            raise ProtocolError("envelope must decode to a dict")
        missing = {"v", "t", "id", "k", "b"} - set(wire)
        if missing:
            raise ProtocolError(
                f"envelope missing fields: {sorted(missing)}")
        if wire["v"] != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol version {wire['v']!r} "
                f"(this side speaks {PROTOCOL_VERSION})")
        if wire["t"] not in _ENVELOPE_TYPES:
            raise ProtocolError(f"unknown envelope type {wire['t']!r}")
        if not isinstance(wire["id"], int) or wire["id"] < 0:
            raise ProtocolError("envelope id must be a non-negative int")
        if not isinstance(wire["k"], str):
            raise ProtocolError("envelope kind must be a string")
        if not isinstance(wire["b"], dict):
            raise ProtocolError("envelope body must be a dict")
        return cls(type=wire["t"], request_id=wire["id"],
                   kind=wire["k"], body=wire["b"])


def request(request_id: int, kind: MessageKind | str,
            body: dict[str, Any] | None = None) -> Envelope:
    kind = kind.value if isinstance(kind, MessageKind) else kind
    return Envelope("req", request_id, kind, body or {})


def ok_response(request_id: int, kind: str,
                body: dict[str, Any]) -> Envelope:
    return Envelope("ok", request_id, kind, body)


def error_response(request_id: int, kind: str, code: str,
                   message: str) -> Envelope:
    return Envelope("err", request_id, kind,
                    {"code": code, "message": message})


def reply_body(sent: Envelope, data: bytes) -> dict[str, Any]:
    """The body of the reply ``data`` to the request ``sent``.

    An error envelope re-raises typed (:func:`raise_remote`); anything
    but an ``ok`` envelope echoing the request's id and kind raises
    :class:`~repro.errors.ProtocolError`.
    """
    reply = Envelope.from_bytes(data)
    if reply.type == "err":
        raise_remote(reply.body.get("code", INTERNAL_ERROR),
                     str(reply.body.get("message", "")))
    if reply.type != "ok":
        raise ProtocolError(
            f"expected a response envelope, got {reply.type!r}")
    if reply.request_id != sent.request_id:
        raise ProtocolError(
            f"response id {reply.request_id} does not match "
            f"request id {sent.request_id}")
    if reply.kind != sent.kind:
        raise ProtocolError(
            f"response kind {reply.kind!r} does not match "
            f"request kind {sent.kind!r}")
    return reply.body


# -- error-code registry -----------------------------------------------------

# Order matters: the first entry whose class matches (isinstance) wins,
# so subclasses must precede their parents.
_CODE_TABLE: tuple[tuple[str, type[ReproError]], ...] = (
    ("admission-rejected", AdmissionRejected),
    ("missing-commitment", MissingCommitment),
    ("integrity", IntegrityError),
    ("query-syntax", QuerySyntaxError),
    ("query", QueryError),
    ("chain", ChainError),
    ("guest-abort", GuestAbort),
    ("verification", VerificationError),
    ("pool-shutdown", PoolShutdown),
    ("proof", ProofError),
    ("storage", StorageError),
    ("frame-too-large", FrameTooLarge),
    ("timeout", RequestTimeout),
    ("bad-request", ProtocolError),
    ("serialization", SerializationError),
)

_CODE_TO_CLASS = dict(_CODE_TABLE)

INTERNAL_ERROR = "internal"


def error_code_for(exc: BaseException) -> str:
    """The wire error code for a server-side exception."""
    for code, cls in _CODE_TABLE:
        if isinstance(exc, cls):
            return code
    return INTERNAL_ERROR


def raise_remote(code: str, message: str) -> None:
    """Re-raise a server error envelope client-side, typed.

    Known codes raise the mapped :mod:`repro.errors` class (they all
    take a single message argument); unknown or internal codes raise
    :class:`~repro.errors.RemoteError`.
    """
    cls = _CODE_TO_CLASS.get(code)
    if cls is not None:
        raise cls(f"remote: {message}")
    raise RemoteError(code, message)
