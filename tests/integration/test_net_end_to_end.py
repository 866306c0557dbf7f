"""Integration: the distributed Figure-1 deployment over localhost.

Routers publish commitments to a remote prover server, trigger an
aggregation round, and a remote client issues a proven query and
verifies it from fetched public material only — all over real TCP
sockets.  Fault cases exercise the protocol's failure surface: every
injected fault must surface as a typed :mod:`repro.errors` exception
after bounded retries, never a hang or a raw socket error.
"""

from __future__ import annotations

import concurrent.futures
import socket
import struct
import threading

import pytest

from repro.commitments import BulletinBoard
from repro.core.prover_service import ProverService
from repro.core.verifier_client import VerifierClient
from repro.errors import (
    ConnectionFailed,
    FrameTooLarge,
    MissingCommitment,
    ProofError,
    QuerySyntaxError,
    ReproError,
    RetryExhausted,
    TruncatedFrame,
)
from repro.net import ProverServer, QueryClient, RetryPolicy, \
    RouterClient
from repro.net.framing import HEADER, MAGIC, WIRE_VERSION, encode_frame

from ..conftest import make_committed_records

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.01,
                         max_delay=0.05)
SQL = "SELECT COUNT(*), SUM(packets) FROM clogs"


@pytest.fixture
def deployment():
    """A live server whose bulletin starts EMPTY: routers must publish
    over the wire before anything can aggregate."""
    store, router_board, _count = make_committed_records(40)
    service = ProverService(store, BulletinBoard())
    server = ProverServer(service, idle_timeout=5.0,
                          request_timeout=30.0)
    server.start_background()
    try:
        yield server, router_board
    finally:
        server.stop_background()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestHappyPath:
    def test_router_publish_aggregate_query_verify(self, deployment):
        server, router_board = deployment

        # Routers publish their window commitments over the wire.
        with RouterClient(server.host, server.port,
                          retry=FAST_RETRY) as router:
            assert router.publish_all(router_board) == 4
            rounds = router.run_round()
            assert len(rounds) == 1
            assert rounds[0]["round"] == 0

        # A remote client queries and verifies from public material.
        with QueryClient(server.host, server.port,
                         retry=FAST_RETRY) as client:
            response = client.query(SQL)
            bulletin = client.fetch_bulletin()
            receipts = client.fetch_receipt_chain()

        verifier = VerifierClient(bulletin)
        verified = verifier.verify_response(response, receipts)
        assert verified.values == response.values
        # COUNT(*) over everything: the count equals the scanned flows.
        assert verified.values[0] == verified.scanned > 0

    def test_verified_query_convenience(self, deployment):
        server, router_board = deployment
        with RouterClient(server.host, server.port) as router:
            router.publish_all(router_board)
            router.run_round()
        with QueryClient(server.host, server.port) as client:
            response, verified = client.verified_query(SQL)
        assert verified.values == response.values

    def test_aggregation_without_published_commitments_fails_typed(
            self, deployment):
        server, _router_board = deployment
        with RouterClient(server.host, server.port,
                          retry=FAST_RETRY) as router:
            with pytest.raises(MissingCommitment):
                router.run_round([0])

    def test_double_aggregation_rejected_remotely(self, deployment):
        server, router_board = deployment
        with RouterClient(server.host, server.port) as router:
            router.publish_all(router_board)
            router.run_round([0])
            with pytest.raises(ProofError):
                router.run_round([0])

    def test_bad_sql_surfaces_as_syntax_error(self, deployment):
        server, router_board = deployment
        with RouterClient(server.host, server.port) as router:
            router.publish_all(router_board)
            router.run_round()
        with QueryClient(server.host, server.port,
                         retry=FAST_RETRY) as client:
            with pytest.raises(QuerySyntaxError):
                client.query("SELEKT nothing FROM nowhere")

    def test_concurrent_clients(self, deployment):
        server, router_board = deployment
        with RouterClient(server.host, server.port) as router:
            router.publish_all(router_board)
            router.run_round()

        def one_query(i: int):
            with QueryClient(server.host, server.port,
                             retry=FAST_RETRY) as client:
                return client.query(SQL).values

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            results = list(pool.map(one_query, range(16)))
        assert len(set(results)) == 1  # deterministic, all identical

    def test_health_reports_progress(self, deployment):
        server, router_board = deployment
        with RouterClient(server.host, server.port) as router:
            before = router.health()
            assert before["rounds"] == 0
            router.publish_all(router_board)
            router.run_round()
            after = router.health()
        assert after["rounds"] == 1
        assert after["commitments"] == 4
        assert after["status"] == "ok"


class TestStatusEndpoint:
    def test_status_without_daemon(self, deployment):
        server, _router_board = deployment
        with QueryClient(server.host, server.port) as client:
            body = client.fetch_status()
        assert body["daemon"] is None
        assert body["service"]["rounds"] == 0
        assert "query_cache_max" in body["service"]

    def test_status_surfaces_daemon_health(self):
        from repro.core.daemon import AggregationDaemon
        from repro.netflow.clock import SimClock
        store, bulletin, _ = make_committed_records(20)
        service = ProverService(store, bulletin)
        daemon = AggregationDaemon(service, SimClock())
        server = ProverServer(service, daemon=daemon,
                              idle_timeout=5.0)
        server.start_background()
        try:
            with QueryClient(server.host, server.port) as client:
                body = client.fetch_status()
        finally:
            server.stop_background()
        health = body["daemon"]
        assert health["state"] == "healthy"
        assert health["quarantined"] == {}
        assert health["stats"]["rounds"] == 0

    def test_client_transport_fault_site_retries(self, deployment):
        """A net.transport fault on the first attempt is absorbed by
        the client's retry policy; the request still succeeds."""
        from repro.faults import FaultInjector, FaultPlan
        from repro.faults.plan import NET_TRANSPORT
        server, _router_board = deployment
        injector = FaultInjector(FaultPlan.parse(
            "net.transport:connection:count=1"))
        with QueryClient(server.host, server.port, retry=FAST_RETRY,
                         fault_injector=injector) as client:
            body = client.fetch_status()
        assert body["service"]["rounds"] == 0
        assert injector.injected(NET_TRANSPORT) == 1


class TestFaults:
    def test_dead_server_raises_after_bounded_retries(self):
        client = QueryClient("127.0.0.1", _free_port(),
                             retry=FAST_RETRY, timeout=1.0)
        with pytest.raises(RetryExhausted) as info:
            client.query(SQL)
        assert info.value.attempts == FAST_RETRY.max_attempts
        assert isinstance(info.value.__cause__, ConnectionFailed)

    def test_truncated_response_frame(self):
        """A server that dies mid-frame must yield TruncatedFrame →
        RetryExhausted, not a hang or a raw socket error."""
        def serve_truncated(conn: socket.socket) -> None:
            conn.recv(65536)  # swallow the request
            # Header promises 1000 payload bytes; send 10 and die.
            conn.sendall(HEADER.pack(MAGIC, WIRE_VERSION, 1000)
                         + b"x" * 10)
            conn.close()

        with _fake_server(serve_truncated) as port:
            client = QueryClient("127.0.0.1", port, retry=FAST_RETRY,
                                 timeout=2.0)
            with pytest.raises(RetryExhausted) as info:
                client.query(SQL)
        assert isinstance(info.value.__cause__, TruncatedFrame)

    def test_oversized_request_rejected_by_server(self, deployment):
        server, _router_board = deployment
        small_server = ProverServer(server.service,
                                    max_frame_size=1024,
                                    idle_timeout=2.0)
        small_server.start_background()
        try:
            client = QueryClient(small_server.host, small_server.port,
                                 retry=FAST_RETRY, timeout=2.0)
            big_sql = ("SELECT COUNT(*) FROM clogs WHERE src_ip = "
                       + '"' + "9" * 4096 + '"')
            with pytest.raises(FrameTooLarge):
                client.query(big_sql)
        finally:
            small_server.stop_background()

    def test_oversized_response_rejected_by_client(self, deployment):
        """The client enforces its own frame budget on responses."""
        server, router_board = deployment
        with RouterClient(server.host, server.port) as router:
            router.publish_all(router_board)
            router.run_round()
        client = QueryClient(server.host, server.port,
                             retry=FAST_RETRY, max_frame_size=256,
                             timeout=2.0)
        with pytest.raises(FrameTooLarge):
            client.fetch_receipt_chain()

    def test_garbage_from_server_is_protocol_error(self):
        def serve_garbage(conn: socket.socket) -> None:
            conn.recv(65536)
            conn.sendall(encode_frame(b"\xffnot an envelope"))
            conn.close()

        with _fake_server(serve_garbage) as port:
            client = QueryClient("127.0.0.1", port, retry=FAST_RETRY,
                                 timeout=2.0)
            with pytest.raises(ReproError):
                client.health()

    def test_server_restart_mid_session(self, deployment):
        """A pooled connection dies with the old server; the retry
        layer reconnects to the new one transparently."""
        server, router_board = deployment
        with RouterClient(server.host, server.port) as router:
            router.publish_all(router_board)
            router.run_round()
        port = server.port
        client = QueryClient(server.host, port,
                             retry=RetryPolicy(max_attempts=4,
                                               base_delay=0.05),
                             timeout=2.0)
        first = client.query(SQL)  # pools a live connection

        server.stop_background()  # restart on the same port
        replacement = ProverServer(server.service, port=port,
                                   idle_timeout=5.0)
        replacement.start_background()
        try:
            again = client.query(SQL)
            assert again.values == first.values
            assert again.receipt.claim_digest \
                == first.receipt.claim_digest  # deterministic proving
        finally:
            client.close()
            replacement.stop_background()

    def test_slow_client_disconnected_by_idle_timeout(self,
                                                      deployment):
        server, _router_board = deployment
        quick = ProverServer(server.service, idle_timeout=0.2)
        quick.start_background()
        try:
            with socket.create_connection((quick.host, quick.port),
                                          timeout=5.0) as sock:
                sock.sendall(b"RV")  # 2 of 7 header bytes, then stall
                sock.settimeout(5.0)
                assert sock.recv(4096) == b""  # server hung up on us
        finally:
            quick.stop_background()

    def test_partial_frame_then_silence_does_not_wedge_server(
            self, deployment):
        """After dropping a slow client the server keeps serving."""
        server, router_board = deployment
        quick = ProverServer(server.service, idle_timeout=0.2)
        quick.start_background()
        try:
            stalled = socket.create_connection(
                (quick.host, quick.port), timeout=5.0)
            stalled.sendall(struct.pack(">2sB", MAGIC, WIRE_VERSION))
            with RouterClient(quick.host, quick.port,
                              retry=FAST_RETRY) as router:
                assert router.health()["status"] == "ok"
            stalled.close()
        finally:
            quick.stop_background()


class _fake_server:
    """A one-connection-at-a-time raw TCP server for fault injection."""

    def __init__(self, handler) -> None:
        self._handler = handler

    def __enter__(self) -> int:
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR,
                              1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self._running = True

        def loop() -> None:
            while self._running:
                try:
                    conn, _addr = self._sock.accept()
                except OSError:
                    return
                try:
                    self._handler(conn)
                except OSError:
                    pass

        self._thread = threading.Thread(target=loop, daemon=True)
        self._thread.start()
        return self._sock.getsockname()[1]

    def __exit__(self, *exc_info: object) -> None:
        self._running = False
        # close() alone does not wake a thread blocked in accept() on
        # Linux; shutdown() does, so the join returns at once.
        self._sock.shutdown(socket.SHUT_RDWR)
        self._sock.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()
