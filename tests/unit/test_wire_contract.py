"""The wire contract every frame server keeps, and the one reply check.

:class:`~repro.net.server.ProverServer` and
:class:`~repro.cluster.WorkerServer` share one server loop, so a peer
that misbehaves gets the same typed answer from either: unframeable
input earns one error envelope and a hang-up, a well-framed envelope
that is not a known request earns ``bad-request``, and an idle client
is disconnected.  Every client reads replies through
:func:`~repro.net.messages.reply_body`.
"""

import asyncio
import socket
import struct
import time

import pytest

from repro.cluster import WorkerClient, WorkerServer
from repro.commitments import BulletinBoard
from repro.core.guest_programs import register_guest
from repro.core.prover_service import ProverService
from repro.engine import ProofJob
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    QuerySyntaxError,
    TruncatedFrame,
)
from repro.net import AsyncQueryClient, ProverServer
from repro.net.framing import (
    MAGIC,
    WIRE_VERSION,
    encode_frame,
    read_frame,
    read_frame_from,
    write_frame,
)
from repro.net.messages import (
    Envelope,
    error_response,
    ok_response,
    reply_body,
    request,
)
from repro.qserve import QueryService
from repro.serialization import query_response_from_wire
from repro.storage import MemoryLogStore
from repro.zkvm import ExecutorEnvBuilder, GuestProgram

from ..conftest import make_committed_records

IDLE = 0.3
MAX_FRAME = 4096


def _prover():
    service = ProverService(MemoryLogStore(), BulletinBoard())
    return ProverServer(service, idle_timeout=IDLE,
                        max_frame_size=MAX_FRAME)


def _worker():
    return WorkerServer(idle_timeout=IDLE, max_frame_size=MAX_FRAME)


@pytest.fixture(params=[_prover, _worker], ids=["prover", "worker"])
def server(request):
    with request.param() as live:
        yield live


def _exchange(server, data):
    """Send raw bytes; the replies read until the server hangs up."""
    replies = []
    with socket.create_connection((server.host, server.port),
                                  timeout=5) as sock:
        sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)
        while True:
            try:
                payload = read_frame_from(sock.recv)
            except TruncatedFrame:
                break  # the server hung up
            replies.append(Envelope.from_bytes(payload))
    return replies


def _only_error(replies):
    assert len(replies) == 1, replies
    reply = replies[0]
    assert reply.type == "err"
    return reply


class TestUnframeableInput:
    def test_corrupt_frame_reports_once_then_hangs_up(self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as sock:
            sock.sendall(b"XX\x01\x00\x00\x00\x00" + b"more" * 4)
            reply = Envelope.from_bytes(read_frame_from(sock.recv))
            assert (reply.type, reply.request_id, reply.kind) == \
                ("err", 0, "error")
            assert reply.body["code"] == "bad-request"
            assert sock.recv(1) == b""  # hung up after the report

    def test_oversize_frame_reports_once_then_hangs_up(self, server):
        header = struct.pack(">2sBI", MAGIC, WIRE_VERSION, MAX_FRAME + 1)
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as sock:
            sock.sendall(header)
            reply = Envelope.from_bytes(read_frame_from(sock.recv))
            assert (reply.type, reply.request_id, reply.kind) == \
                ("err", 0, "error")
            assert reply.body["code"] == "frame-too-large"
            assert sock.recv(1) == b""


class TestBadEnvelopes:
    def test_non_request_envelope_is_bad_request(self, server):
        reply = _only_error(_exchange(server, encode_frame(
            ok_response(3, "health", {}).to_bytes())))
        assert (reply.request_id, reply.kind) == (3, "health")
        assert reply.body == {
            "code": "bad-request",
            "message": "expected a request envelope, got 'ok'"}

    def test_unknown_kind_is_bad_request(self, server):
        reply = _only_error(_exchange(server, encode_frame(
            request(4, "no-such-kind").to_bytes())))
        assert (reply.request_id, reply.kind) == (4, "no-such-kind")
        assert reply.body == {
            "code": "bad-request",
            "message": "unknown request kind 'no-such-kind'"}

    def test_connection_survives_a_bad_envelope(self, server):
        replies = _exchange(server, encode_frame(
            request(5, "no-such-kind").to_bytes())
            + encode_frame(request(6, "no-such-kind").to_bytes()))
        assert [r.request_id for r in replies] == [5, 6]


class TestIdleClient:
    def test_idle_client_is_disconnected(self, server):
        with socket.create_connection((server.host, server.port),
                                      timeout=5) as sock:
            start = time.monotonic()
            assert sock.recv(1) == b""
            assert IDLE - 0.05 <= time.monotonic() - start < 5


class TestServerTelemetry:
    def test_requests_are_counted(self, server):
        _exchange(server, encode_frame(
            request(1, "no-such-kind").to_bytes()))
        assert server.requests_served == 1
        assert server.errors_returned == 1

    def test_metrics_is_served(self, server):
        (reply,) = _exchange(server, encode_frame(
            request(2, "metrics").to_bytes()))
        assert (reply.type, reply.request_id, reply.kind) == \
            ("ok", 2, "metrics")
        assert set(reply.body) == {"enabled", "metrics"}


# -- the prover's one query path ---------------------------------------------

SQL = "SELECT COUNT(*) FROM clogs"


@pytest.fixture(scope="module")
def proven():
    """A default prover server over one proven round."""
    store, bulletin, _ = make_committed_records(12)
    service = ProverService(store, bulletin)
    service.aggregate_all_committed()
    with ProverServer(service) as live:
        yield live


def _query(server, **fields):
    (reply,) = _exchange(server, encode_frame(
        request(1, "query", {"sql": SQL, **fields}).to_bytes()))
    return reply


class TestQueryService:
    def test_default_server_reports_its_query_service(self, proven):
        assert isinstance(proven.qserve, QueryService)
        (reply,) = _exchange(proven, encode_frame(
            request(1, "status").to_bytes()))
        assert reply.type == "ok"
        assert reply.body["qserve"]["max_inflight"] == 64
        assert reply.body["service"]["query_cache"]["persistent"] is True

    @pytest.mark.parametrize("round_index", [True, False, -1],
                             ids=["true", "false", "negative"])
    def test_round_must_be_a_non_negative_int(self, proven,
                                              round_index):
        reply = _query(proven, round=round_index)
        assert reply.type == "err"
        assert reply.body == {
            "code": "bad-request",
            "message": f"round must be a non-negative int or None, "
                       f"got {round_index!r}"}

    def test_latest_round_is_answered(self, proven):
        assert _query(proven).type == "ok"
        assert _query(proven, round=None).type == "ok"

    def test_latest_round_named_is_answered(self, proven):
        """A one-round chain without retained history: ``round: 0``
        names the service's own state and gets the latest answer."""
        named = _query(proven, round=0)
        latest = _query(proven)
        assert named.type == latest.type == "ok"
        claim = query_response_from_wire(named.body["response"]).claim
        assert claim == \
            query_response_from_wire(latest.body["response"]).claim
        assert claim.round == 0

    def test_tenant_must_be_a_string(self, proven):
        reply = _query(proven, tenant=7)
        assert reply.type == "err"
        assert reply.body["code"] == "bad-request"


# -- the worker proves off the event loop ------------------------------------


def _slow_fn(env):
    value = env.read()
    time.sleep(1.0)
    env.commit({"slow": value})


slow_guest = register_guest(GuestProgram(_slow_fn, name="wire/slow"))


class TestWorkerAnswersWhileProving:
    def test_serial_backend_refused(self):
        with pytest.raises(ConfigurationError, match="serial"):
            WorkerServer(backend="serial")

    def test_health_answers_while_a_job_proves(self):
        builder = ExecutorEnvBuilder()
        builder.write("slow")
        job = ProofJob.from_parts(slow_guest, builder.build())
        with WorkerServer() as worker, \
                WorkerClient(worker.endpoint, timeout=5.0) as client:
            start = time.monotonic()
            client.submit_job(job, "lease-slow", 60_000)
            acked = time.monotonic() - start
            health = client.probe()
            probed = time.monotonic() - start
            assert health["running"] == 1
            assert client.poll_result("lease-slow")["state"] == "running"
        assert acked < 0.5
        assert probed < 0.5


# -- the one reply check -----------------------------------------------------


class TestReplyBody:
    sent = request(9, "status")

    def test_ok_reply_returns_its_body(self):
        reply = ok_response(9, "status", {"a": 1})
        assert reply_body(self.sent, reply.to_bytes()) == {"a": 1}

    def test_error_reply_raises_typed(self):
        reply = error_response(9, "status", "query-syntax", "bad sql")
        with pytest.raises(QuerySyntaxError, match="bad sql"):
            reply_body(self.sent, reply.to_bytes())

    @pytest.mark.parametrize("reply", [
        request(9, "status"),
        ok_response(8, "status", {}),
        ok_response(9, "health", {}),
    ], ids=["request", "other-id", "other-kind"])
    def test_mismatched_reply_refused(self, reply):
        with pytest.raises(ProtocolError):
            reply_body(self.sent, reply.to_bytes())

    def test_async_client_refuses_a_reply_of_another_kind(self):
        async def answer_as_health(reader, writer):
            asked = Envelope.from_bytes(await read_frame(reader))
            await write_frame(writer, ok_response(
                asked.request_id, "health", {}).to_bytes())
            writer.close()

        async def run():
            fake = await asyncio.start_server(answer_as_health,
                                              "127.0.0.1", 0)
            port = fake.sockets[0].getsockname()[1]
            try:
                async with AsyncQueryClient("127.0.0.1", port) as client:
                    with pytest.raises(ProtocolError, match="kind"):
                        await client.fetch_status()
            finally:
                fake.close()
                await fake.wait_closed()

        asyncio.run(run())
