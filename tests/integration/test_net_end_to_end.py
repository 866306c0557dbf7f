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

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.chain import ROUND_IMAGE_IDS
from repro.core.prover_service import ProverService
from repro.core.verifier_client import VerifierClient
from repro.errors import (
    ChainError,
    ConnectionFailed,
    FrameTooLarge,
    GuestAbort,
    IntegrityError,
    MissingCommitment,
    ProofError,
    ProtocolError,
    QuerySyntaxError,
    ReproError,
    RetryExhausted,
    TruncatedFrame,
    VerificationError,
)
from repro.net import ProverServer, QueryClient, RetryPolicy, \
    RouterClient
from repro.net.framing import HEADER, MAGIC, WIRE_VERSION, encode_frame
from repro.obs import names as obs_names
from repro.obs import runtime as obs
from repro.storage import MemoryLogStore
from repro.zkvm import Receipt

from ..conftest import make_committed_records, make_record

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


class TestQuarantine:
    def test_poisoned_window_does_not_stop_the_chain(self):
        """Window 0's commitment does not match its blob; windows 1-2
        are honest.  RUN_ROUND proves 1-2, quarantines 0 where HEALTH
        and STATUS show it, and never proves over it again unasked."""
        service = ProverService(MemoryLogStore(), BulletinBoard())
        service.store.append_records("r1", 0, [make_record(sport=1)])
        service.bulletin.publish(Commitment(
            "r1", 0, window_digest([b"tampered"]), 1, 0))
        for window in (1, 2):
            _commit(service, window, [make_record(sport=100 + window)])
        attempts: list[list[int]] = []
        prove_round = service.prove_round

        def counting_prove_round(windows, inputs):
            attempts.append(list(windows))
            return prove_round(windows, inputs)

        service.prove_round = counting_prove_round
        with _serve(service) as server, \
                RouterClient(server.host, server.port) as router, \
                QueryClient(server.host, server.port) as client:
            rounds = router.run_round()
            assert [r["round"] for r in rounds] == [0, 1]
            assert attempts == [[0], [1], [2]]
            health = router.health()
            status = client.fetch_status()
            assert set(status) == {"service", "qserve"}
            for body in (health, status["service"]):
                (entry,) = body["quarantined"]
                assert entry["window"] == 0
                assert "commitment mismatch" in entry["reason"]
                assert body["pending_windows"] == []
                assert body["aggregated_windows"] == [1, 2]
            response, verified = client.verified_query(SQL)
            assert verified.values == response.values
            assert router.run_round() == []
            assert attempts == [[0], [1], [2]]
            with pytest.raises(GuestAbort, match="commitment mismatch"):
                router.run_round([0])
        assert len(service.chain) == 2

    def test_explicit_round_is_the_operator_retry(self):
        """The store, not the router, was at fault: a corrupted row
        quarantines window 0.  Once the row is repaired,
        ``run-round {windows: [0]}`` proves it and STATUS's quarantine
        empties."""
        service = ProverService(MemoryLogStore(), BulletinBoard())
        honest = make_record(sport=100)
        for window, record in ((0, honest), (1, make_record(sport=101))):
            _commit(service, window, [record])
        service.store.overwrite_raw("r1", 0, 0,
                                    make_record(sport=999).to_bytes())
        with _serve(service) as server, \
                RouterClient(server.host, server.port) as router, \
                QueryClient(server.host, server.port) as client:
            assert [r["round"] for r in router.run_round()] == [0]
            (entry,) = client.fetch_status()["service"]["quarantined"]
            assert entry["window"] == 0
            service.store.overwrite_raw("r1", 0, 0, honest.to_bytes())
            (retry,) = router.run_round([0])
            assert retry["round"] == 1
            status = client.fetch_status()["service"]
            assert status["quarantined"] == []
            assert status["aggregated_windows"] == [0, 1]
            VerifierClient(client.fetch_bulletin()).verify_chain(
                client.fetch_receipt_chain())


class TestRunRoundWindowList:
    def test_repeated_or_empty_list_refused_chain_still_verifies(self):
        """``run-round {windows: [1, 1]}`` would prove window 1 twice
        in one round, and a client's chain check would refuse that
        round and every one after it.  The server refuses the list (and
        an empty one) before proving, so the served chain is unchanged
        and still verifies."""
        service = ProverService(MemoryLogStore(), BulletinBoard())
        for window in (0, 1):
            _commit(service, window, [make_record(sport=100 + window)])
        with _serve(service) as server, \
                RouterClient(server.host, server.port,
                             retry=FAST_RETRY) as router, \
                QueryClient(server.host, server.port,
                            retry=FAST_RETRY) as client:
            (first,) = router.run_round([0])
            with pytest.raises(ChainError, match="more than once"):
                router.run_round([1, 1])
            with pytest.raises(ProtocolError, match="non-empty"):
                router.run_round([])
            status = client.fetch_status()["service"]
            assert status["rounds"] == 1
            assert status["latest_root"] == first["new_root"].hex()
            assert status["pending_windows"] == [1]
            receipts = client.fetch_receipt_chain()
            VerifierClient(client.fetch_bulletin()).verify_chain(receipts)
            (second,) = router.run_round([1])
            assert second["round"] == 1
            VerifierClient(client.fetch_bulletin()).verify_chain(
                client.fetch_receipt_chain())


class TestStatusEndpoint:
    def test_status_without_daemon(self, deployment):
        server, _router_board = deployment
        with QueryClient(server.host, server.port) as client:
            body = client.fetch_status()
        assert set(body) == {"service", "qserve"}
        assert body["service"]["rounds"] == 0
        assert body["service"]["quarantined"] == []
        assert body["service"]["query_cache"]["memory_max"] == 256

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


def _commit(service, window: int, records) -> None:
    service.store.append_records("r1", window, records)
    service.bulletin.publish(Commitment(
        "r1", window, window_digest([r.to_bytes() for r in records]),
        len(records), window * 5_000))


def _grow(service, window: int, sport_base: int = 1000) -> None:
    """Commit and prove one single-record r1 window as the next round."""
    _commit(service, window, [make_record(sport=sport_base + window)])
    service.aggregate_window(window)


def _chain_service(rounds: int, sport_base: int = 1000) -> ProverService:
    service = ProverService(MemoryLogStore(), BulletinBoard(),
                            retain_history=True)  # answers old rounds
    for window in range(rounds):
        _grow(service, window, sport_base)
    return service


def _serve(service, port: int = 0) -> ProverServer:
    return ProverServer(service, port=port, idle_timeout=5.0)


def _requests(registry) -> dict[str, int]:
    """Client requests sent, by kind, as ``obs`` counted them."""
    return {series["labels"]["kind"]: series["value"]
            for family in registry.snapshot()["counters"]
            if family["name"] == obs_names.NET_CLIENT_REQUESTS
            for series in family["series"]}


def _bytes_in(registry) -> int:
    family = registry.get(obs_names.NET_CLIENT_BYTES)
    return family.value(direction="in")


@pytest.fixture
def round_work(monkeypatch):
    """Counts aggregation receipts the client decodes and verifies."""
    counts = {"decoded": 0, "verified": 0}
    lock = threading.Lock()  # a lost update would hide a double count
    from_wire = Receipt.from_wire
    verify = VerifierClient.verify_aggregation

    def decode(wire):
        receipt = from_wire(wire)
        if receipt.claim.image_id in ROUND_IMAGE_IDS:
            with lock:
                counts["decoded"] += 1
        return receipt

    def verify_aggregation(self, receipt, prev=None):
        with lock:
            counts["verified"] += 1
        return verify(self, receipt, prev)

    monkeypatch.setattr(Receipt, "from_wire", staticmethod(decode))
    monkeypatch.setattr(VerifierClient, "verify_aggregation",
                        verify_aggregation)
    return counts


class TestHeldHead:
    """``QueryClient`` keeps its verified chain head and syncs only
    what the server added past it."""

    def test_warm_query_is_one_request(self, round_work):
        with _serve(_chain_service(3)) as server, \
                QueryClient(server.host, server.port) as client:
            client.verified_query(SQL)  # cold: syncs rounds 0-2
            assert round_work == {"decoded": 3, "verified": 3}
            with obs.capture() as cap:
                response, verified = client.verified_query(SQL)
                assert _requests(cap.registry) == {"query": 1}
        assert round_work == {"decoded": 3, "verified": 3}
        assert verified.round == response.round == 2

    def test_new_round_fetches_only_its_receipt(self, round_work):
        service = _chain_service(3)
        with _serve(service) as server, \
                QueryClient(server.host, server.port) as client:
            client.verified_query(SQL)
            _grow(service, 3)
            with obs.capture() as cap:
                _response, verified = client.verified_query(SQL)
                assert _requests(cap.registry) == {
                    "query": 1, "get-bulletin": 1,
                    "fetch-receipt-chain": 1}
        assert verified.round == 3
        assert round_work == {"decoded": 4, "verified": 4}

    def test_sync_bytes_flat_in_round_count(self):
        service = _chain_service(2)
        with _serve(service) as server, \
                QueryClient(server.host, server.port) as client:
            client.verified_query(SQL)
            synced = []
            for window in range(2, 10):
                _grow(service, window)
                with obs.capture() as cap:
                    client.verified_query(SQL)
                    synced.append(_bytes_in(cap.registry))
            full_chain = [r.to_wire() for r in
                          client.fetch_receipt_chain()]
        from repro.serialization import encode
        # One query answer, one commitment and one receipt per sync,
        # at 3 rounds and at 10 alike; the chain itself grows.
        assert synced == [synced[0]] * len(synced)
        assert synced[0] < len(encode(full_chain)) / 3

    def test_older_round_verifies_without_fetch(self, round_work):
        with _serve(_chain_service(3)) as server, \
                QueryClient(server.host, server.port) as client:
            client.verified_query(SQL)
            with obs.capture() as cap:
                response, verified = client.verified_query(
                    SQL, round_index=0)
                assert _requests(cap.registry) == {"query": 1}
        assert response.round == verified.round == 0
        assert round_work["decoded"] == 3

    def test_diverged_server_is_refused(self):
        retry = RetryPolicy(max_attempts=4, base_delay=0.05)
        server = _serve(_chain_service(3)).start_background()
        port = server.port
        with QueryClient(server.host, port, retry=retry) as client:
            client.verified_query(SQL)
            server.stop_background()
            # Same windows, different records: a chain that does not
            # extend the head the client holds.
            with _serve(_chain_service(5, sport_base=2000), port=port):
                with pytest.raises(ChainError):
                    client.verified_query(SQL)
                with pytest.raises(ChainError):  # and again: no resync
                    client.verified_query(SQL)
                with pytest.raises(VerificationError):
                    client.verified_query(SQL, round_index=1)

    def test_board_rewriting_a_held_commitment_is_refused(self):
        retry = RetryPolicy(max_attempts=4, base_delay=0.05)
        server = _serve(_chain_service(3)).start_background()
        port = server.port
        rewritten = ProverService(MemoryLogStore(), BulletinBoard())
        records = {w: [make_record(sport=1000 + w)] for w in range(4)}
        records[0] = [make_record(sport=999)]
        for window in (1, 2, 3, 0):  # the rewrite lands past the prefix
            _commit(rewritten, window, records[window])
        for window in range(4):
            rewritten.aggregate_window(window)
        with QueryClient(server.host, port, retry=retry) as client:
            client.verified_query(SQL)
            server.stop_background()
            with _serve(rewritten, port=port):
                with pytest.raises(IntegrityError):
                    client.verified_query(SQL)

    def test_threads_sharing_a_client_verify_a_new_round_once(
            self, round_work):
        import sys
        threads = 8  # more than this machine's cores
        service = _chain_service(3)
        with _serve(service) as server, \
                QueryClient(server.host, server.port,
                            pool_size=threads) as client:
            client.verified_query(SQL)
            _grow(service, 3)
            start = threading.Barrier(threads, timeout=10)

            def one(_):
                start.wait()
                return client.verified_query(SQL)[1].round

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with concurrent.futures.ThreadPoolExecutor(threads) as pool:
                    rounds = list(pool.map(one, range(threads),
                                           timeout=30))
            finally:
                sys.setswitchinterval(interval)
        assert rounds == [3] * threads
        assert round_work == {"decoded": 4, "verified": 4}


class TestSince:
    @pytest.mark.parametrize("since", [-1, "3", True])
    def test_bad_since_is_a_bad_request(self, since):
        with _serve(_chain_service(1)) as server, \
                QueryClient(server.host, server.port) as client:
            with pytest.raises(ProtocolError):
                client.fetch_bulletin(since)
            with pytest.raises(ProtocolError):
                client.fetch_receipt_chain(since)

    def test_since_slices_and_past_the_end_is_empty(self):
        service = _chain_service(3)
        with _serve(service) as server, \
                QueryClient(server.host, server.port) as client:
            assert len(client.fetch_bulletin(1)) == 2
            tail = client.fetch_receipt_chain(1)
            assert [r.claim.digest() for r in tail] == [
                r.claim.digest() for r in service.chain.receipts()[1:]]
            assert client.fetch_receipt_chain(3) == []
            assert len(client.fetch_bulletin(3)) == 0
            assert client.fetch_receipt_chain(99) == []


def _forged_deployment():
    """The routers' board, and a prover whose store *and* board carry
    one record the routers never sent, consistently re-committed."""
    store, routers_board, _count = make_committed_records(40)
    forged = ProverService(MemoryLogStore(), BulletinBoard())
    for index, honest in enumerate(routers_board):
        blobs = store.window_blobs(honest.router_id, 0)
        if index == 0:
            blobs.append(make_record(router_id=honest.router_id,
                                     sport=4242).to_bytes())
        forged.store.replace_window(honest.router_id, 0, blobs)
        forged.bulletin.publish(Commitment(
            honest.router_id, 0, window_digest(blobs), len(blobs),
            honest.published_at_ms))
    forged.aggregate_all_committed()
    return routers_board, forged


class TestTrustAnchor:
    def test_anchor_decides_whether_a_forged_prover_passes(self):
        routers_board, forged = _forged_deployment()
        with _serve(forged) as server:
            with QueryClient(server.host, server.port) as client:
                _response, verified = client.verified_query(SQL)
            assert verified.values[0] == verified.scanned  # accepted
            with QueryClient(server.host, server.port,
                             bulletin=routers_board) as client, \
                    obs.capture() as cap:
                with pytest.raises(VerificationError):
                    client.verified_query(SQL)
                assert "get-bulletin" not in _requests(cap.registry)

    def test_cli_connect_verifies_against_bulletin_file(self, tmp_path,
                                                         capsys):
        from repro.cli import main
        from repro.cli.persistence import save_bulletin
        routers_board, forged = _forged_deployment()
        board_file = tmp_path / "bulletin.json"
        save_bulletin(routers_board, board_file)
        with _serve(forged) as server:
            endpoint = f"{server.host}:{server.port}"
            assert main(["query", "--connect", endpoint, SQL]) == 0
            assert "anchor: prover" in capsys.readouterr().out
            assert main(["query", "--connect", endpoint, "--bulletin",
                         str(board_file), SQL]) == 2
            assert "differs from the published one" \
                in capsys.readouterr().err


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
