"""The instrumentation contract: exact span/metric names and labels.

Every name below is hard-coded **on purpose** (not imported from
``repro.obs.names``): the emitted telemetry namespace is public API
that dashboards, bench trajectories, and the wire ``metrics`` endpoint
depend on.  Renaming a span or metric, or changing a label set, must
fail this suite — that is the point.
"""

from __future__ import annotations

import pytest

from repro.core.prover_service import ProverService
from repro.core.verifier_client import VerifierClient
from repro.obs import runtime as obs

from ..conftest import make_committed_records

# -- the contract ------------------------------------------------------------

E2E_SPANS = {
    "zkvm.execute",
    "zkvm.prove",
    "zkvm.verify",
    "agg.round",
    "agg.witness",
    "query.prove",
}

E2E_METRIC_LABELS = {
    "repro_executor_sessions_total": ("program", "exit_code"),
    "repro_executor_cycles_total": ("program",),
    "repro_prover_proofs_total": ("program", "kind"),
    "repro_prover_cycles_total": ("program",),
    "repro_prover_segments_total": ("program",),
    "repro_prover_prove_seconds": ("program",),
    "repro_verifier_receipts_total": ("kind", "outcome"),
    "repro_verifier_verify_seconds": (),
    "repro_agg_rounds_total": ("strategy",),
    "repro_agg_records_total": ("strategy",),
    "repro_agg_round_seconds": ("strategy",),
    "repro_service_flows": (),
    "repro_service_rounds": (),
    "repro_qserve_cache_total": ("tier", "result"),
    "repro_query_proofs_total": (),
    "repro_query_prove_seconds": (),
}

WIRE_SERVER_METRIC_LABELS = {
    "repro_net_server_requests_total": ("kind", "status"),
    "repro_net_server_request_seconds": ("kind",),
    "repro_net_server_bytes_total": ("direction",),
    "repro_net_server_errors_total": ("kind", "code"),
    "repro_net_server_connections": (),
}

WIRE_CLIENT_METRIC_LABELS = {
    "repro_net_client_requests_total": ("kind", "status"),
    "repro_net_client_attempts_total": ("kind",),
    "repro_net_client_request_seconds": ("kind",),
    "repro_net_client_bytes_total": ("direction",),
}

WIRE_SPANS = {"net.server.request", "net.client.request"}

PARALLEL_SPANS = {
    "agg.parallel.round",
    "agg.parallel.partition",
    "agg.parallel.merge",
}


@pytest.fixture(autouse=True)
def _obs_disabled():
    """These tests assert the disabled default; run them from a clean
    no-op state even when the process exported REPRO_OBS=1."""
    was_enabled = obs.is_enabled()
    obs.disable()
    yield
    obs.disable()
    if was_enabled:
        obs.enable()


@pytest.fixture
def service_round():
    """One aggregated round over 30 committed records."""
    store, bulletin, _ = make_committed_records(30)
    service = ProverService(store, bulletin)
    return service, bulletin


class TestEndToEndContract:
    def test_aggregate_query_verify_emits_exact_names(self,
                                                      service_round):
        service, bulletin = service_round
        with obs.capture() as cap:
            service.aggregate_all_committed()
            response = service.answer_query(
                "SELECT COUNT(*) FROM clogs")
            verifier = VerifierClient(bulletin)
            chain = verifier.verify_chain(service.chain.receipts())
            verifier.verify_query(response, chain[-1])

            assert set(cap.exporter.names()) == E2E_SPANS
            assert set(cap.registry.names()) == \
                set(E2E_METRIC_LABELS)
            for name, labels in E2E_METRIC_LABELS.items():
                assert cap.registry.label_names(name) == labels, name

    def test_snapshot_carries_prover_accounting(self, service_round):
        """The numbers the paper's asymmetry argument needs: cycles,
        segments, prove/verify latency — all in one snapshot."""
        service, bulletin = service_round
        with obs.capture() as cap:
            result = service.aggregate_all_committed()[-1]
            reg = cap.registry
            program = "telemetry-aggregation-batched-v1"
            assert reg.get("repro_prover_cycles_total").value(
                program=program) == result.info.stats.total_cycles
            assert reg.get("repro_prover_segments_total").value(
                program=program) == result.info.stats.segment_count
            prove_hist = reg.get("repro_prover_prove_seconds")
            assert prove_hist.series_data(
                program=program)["count"] == 1
            # The span carries the same cycle delta.
            (prove_span,) = cap.exporter.by_name("zkvm.prove")
            assert prove_span.attributes["cycles"] == \
                result.info.stats.total_cycles
            assert prove_span.attributes["segments"] == \
                result.info.stats.segment_count

    def test_span_nesting_is_deterministic(self, service_round):
        service, _ = service_round
        with obs.capture() as cap:
            service.aggregate_all_committed()
            (round_span,) = cap.exporter.by_name("agg.round")
            assert round_span.parent is None
            (witness_span,) = cap.exporter.by_name("agg.witness")
            assert witness_span.parent == "agg.round"
            (prove_span,) = cap.exporter.by_name("zkvm.prove")
            assert prove_span.parent == "agg.round"
            assert prove_span.depth == 1

    def test_query_cache_hit_and_miss_series(self, service_round):
        service, _ = service_round
        with obs.capture() as cap:
            service.aggregate_all_committed()
            sql = "SELECT COUNT(*) FROM clogs"
            service.answer_query(sql)
            service.answer_query(sql)
            cache = cap.registry.get("repro_qserve_cache_total")
            assert cache.value(tier="memory", result="miss") == 1
            assert cache.value(tier="persistent", result="miss") == 1
            assert cache.value(tier="memory", result="store") == 1
            assert cache.value(tier="persistent", result="store") == 1
            assert cache.value(tier="memory", result="hit") == 1

    def test_disabled_by_default_emits_nothing(self, service_round):
        service, _ = service_round
        assert not obs.is_enabled()
        service.aggregate_all_committed()
        assert obs.registry().names() == []
        assert obs.snapshot() == {"enabled": False,
                                  "metrics": {"counters": [],
                                              "gauges": [],
                                              "histograms": []},
                                  "spans": []}


class TestParallelContract:
    def test_parallel_round_spans(self):
        from repro.commitments import window_digest
        from repro.core.aggregation import RouterWindowInput
        from repro.engine import ProvingEngine
        from ..conftest import make_record
        inputs = []
        for i in (1, 2):
            blobs = tuple(
                make_record(router_id=f"r{i}", sport=1000 + j).to_bytes()
                for j in range(2))
            inputs.append(RouterWindowInput(
                router_id=f"r{i}", window_index=0,
                commitment=window_digest(list(blobs)), blobs=blobs))
        with obs.capture() as cap, ProvingEngine() as engine:
            engine.prove_round(inputs)
            names = set(cap.exporter.names())
            assert PARALLEL_SPANS <= names
            assert len(cap.exporter.by_name(
                "agg.parallel.partition")) == 2
            assert cap.registry.get(
                "repro_parallel_partitions_total").value() == 2


QUERY_PARALLEL_SPANS = {
    "query.parallel.round",
    "query.parallel.partition",
    "query.parallel.merge",
}


class TestQueryParallelContract:
    """Partitioned query telemetry, pinned like the aggregation set.

    These names appear only on the opt-in partitioned path — a default
    service's query flow emits exactly the sequential contract above.
    """

    def test_partitioned_query_spans_and_metrics(self):
        store, bulletin, _ = make_committed_records(200, seed=11)
        service = ProverService(store, bulletin, pool_backend="thread",
                                prove_workers=2, query_partitions=4)
        try:
            service.aggregate_all_committed()
            with obs.capture() as cap:
                service.answer_query("SELECT COUNT(*) FROM clogs")
                assert QUERY_PARALLEL_SPANS <= set(cap.exporter.names())
                partitions = cap.exporter.by_name(
                    "query.parallel.partition")
                count = service.last_prove_info.num_partitions
                assert len(partitions) == count
                assert all("cycles" in s.attributes
                           for s in partitions)
                assert cap.registry.get(
                    "repro_query_partitions_total").value() == count
                assert cap.registry.get(
                    "repro_query_proofs_total").value() == 1
                (outer,) = cap.exporter.by_name("query.prove")
                assert outer.attributes["partitions"] == count
                (round_span,) = cap.exporter.by_name(
                    "query.parallel.round")
                assert round_span.parent == "query.prove"
                (merge_span,) = cap.exporter.by_name(
                    "query.parallel.merge")
                assert merge_span.parent == "query.parallel.round"
        finally:
            service.close()


class TestWireContract:
    def test_wire_round_trip_emits_exact_names(self, service_round):
        from repro.net import ProverServer, QueryClient
        service, _ = service_round
        with obs.capture() as cap:
            service.aggregate_all_committed()
            server = ProverServer(service)
            with server:
                with QueryClient(server.host, server.port) as client:
                    client.health()
                    client.query("SELECT COUNT(*) FROM clogs")
                    # One failing request → an error series by wire code.
                    with pytest.raises(Exception):
                        client.query("SELECT NOT VALID SQL")
                    snapshot = client.fetch_metrics()

            names = set(cap.registry.names())
            for name, labels in {**WIRE_SERVER_METRIC_LABELS,
                                 **WIRE_CLIENT_METRIC_LABELS}.items():
                assert name in names, name
                assert cap.registry.label_names(name) == labels, name
            assert WIRE_SPANS <= set(cap.exporter.names())

            requests = cap.registry.get(
                "repro_net_server_requests_total")
            assert requests.value(kind="health", status="ok") == 1
            assert requests.value(kind="query", status="ok") == 1
            assert requests.value(kind="query", status="err") == 1
            assert requests.value(kind="metrics", status="ok") == 1
            errors = cap.registry.get("repro_net_server_errors_total")
            assert errors.value(kind="query",
                                code="query-syntax") == 1
            bytes_total = cap.registry.get(
                "repro_net_server_bytes_total")
            assert bytes_total.value(direction="in") > 0
            assert bytes_total.value(direction="out") > 0

            # The wire snapshot reports the same metric families.
            assert snapshot["enabled"] is True
            wire_names = {entry["name"] for bucket in
                          ("counters", "gauges", "histograms")
                          for entry in snapshot["metrics"][bucket]}
            # Everything known at fetch time is in the wire snapshot
            # (client-side series for the fetch itself land later).
            assert set(E2E_METRIC_LABELS) <= wire_names
            assert set(WIRE_SERVER_METRIC_LABELS) <= wire_names

    def test_client_retry_and_error_series(self):
        from repro.errors import RetryExhausted
        from repro.net import QueryClient, RetryPolicy
        import socket
        # A port nothing listens on: bind-then-close.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with obs.capture() as cap:
            with QueryClient("127.0.0.1", port,
                             retry=RetryPolicy(max_attempts=3,
                                               base_delay=0.001,
                                               jitter=0.0)) as client:
                with pytest.raises(RetryExhausted):
                    client.health()
            assert cap.registry.get(
                "repro_net_client_attempts_total").value(
                kind="health") == 3
            assert cap.registry.get(
                "repro_net_client_retries_total").value(
                kind="health") == 2
            assert cap.registry.get(
                "repro_net_client_errors_total").value(
                kind="health", error="RetryExhausted") == 1
            assert cap.registry.get(
                "repro_net_client_requests_total").value(
                kind="health", status="err") == 1


ENGINE_METRIC_LABELS = {
    "repro_engine_jobs_total": ("guest", "outcome"),
    "repro_engine_job_seconds": ("guest",),
    "repro_engine_queue_depth": (),
    "repro_engine_workers": (),
    "repro_engine_workers_busy": (),
    "repro_engine_cache_total": ("tier", "result"),
    "repro_engine_round_real_seconds": (),
    "repro_engine_round_modeled_seconds": (),
}

ENGINE_SPAN = "engine.job"


class TestEngineContract:
    """The engine's telemetry namespace, pinned like the e2e set.

    The engine is explicit opt-in on :class:`ProverService`, so the
    sequential contract above stays byte-for-byte unchanged; these
    names appear only when a pool is configured (or a caller holds a
    ``ProvingEngine`` and proves a partition-and-merge round on it).
    """

    def test_parallel_round_emits_engine_metrics(self):
        from repro.commitments import window_digest
        from repro.core.aggregation import RouterWindowInput
        from repro.engine import ProvingEngine
        from ..conftest import make_record
        inputs = []
        for i in (1, 2):
            blobs = tuple(
                make_record(router_id=f"r{i}", sport=1000 + j).to_bytes()
                for j in range(2))
            inputs.append(RouterWindowInput(
                router_id=f"r{i}", window_index=0,
                commitment=window_digest(list(blobs)), blobs=blobs))
        with obs.capture() as cap, \
                ProvingEngine(backend="serial") as engine:
            engine.prove_round(inputs)
            for name, labels in ENGINE_METRIC_LABELS.items():
                assert cap.registry.label_names(name) == labels, name
            jobs = cap.registry.get("repro_engine_jobs_total")
            assert jobs.value(guest="telemetry-partition-v1",
                              outcome="ok") == 2
            assert jobs.value(guest="telemetry-merge-v1",
                              outcome="ok") == 1
            # Warm round: every proof replays from the cache.
            engine.prove_round(inputs)
            assert jobs.value(guest="telemetry-partition-v1",
                              outcome="cached") == 2
            cache = cap.registry.get("repro_engine_cache_total")
            assert cache.value(tier="memory", result="hit") == 3

    def test_pooled_service_emits_engine_job_spans(self):
        store, bulletin, _ = make_committed_records(20)
        service = ProverService(store, bulletin, pool_backend="thread",
                                prove_workers=2)
        try:
            with obs.capture() as cap:
                service.aggregate_all_committed()
                spans = cap.exporter.by_name(ENGINE_SPAN)
                assert len(spans) >= 1
                assert all("cached" in s.attributes for s in spans)
        finally:
            service.close()


QSERVE_METRIC_LABELS = {
    "repro_qserve_admitted_total": ("tenant",),
    "repro_qserve_rejected_total": ("tenant", "reason"),
    "repro_qserve_batched_total": ("outcome",),
    "repro_qserve_cache_total": ("tier", "result"),
    "repro_qserve_inflight": (),
}

QSERVE_SPANS = {"qserve.admit", "qserve.batch"}


class TestQServeContract:
    """The multi-tenant serving namespace, pinned like the others.

    Every ``ProverServer`` answers QUERY through a ``QueryService``;
    the result cache's ``repro_qserve_cache_total`` belongs to the
    prover service itself, so the in-process contract above carries it
    too.
    """

    def _serve_queries(self, qserve, plan):
        """Run (sql, tenant) submits sequentially on a fresh loop;
        returns outcomes (responses or the raised exception)."""
        import asyncio

        async def scenario():
            await qserve.start()
            outcomes = []
            try:
                for sql, tenant in plan:
                    try:
                        outcomes.append(await qserve.submit(
                            sql, tenant=tenant))
                    except Exception as exc:
                        outcomes.append(exc)
            finally:
                await qserve.stop()
            return outcomes

        return asyncio.run(scenario())

    def test_qserve_emits_exact_names(self):
        import asyncio

        from repro.errors import AdmissionRejected
        from repro.qserve import QueryService

        store, bulletin, _ = make_committed_records(40, seed=21)
        service = ProverService(store, bulletin, pool_backend="thread",
                                prove_workers=2)
        try:
            service.aggregate_all_committed()
            qserve = QueryService(service, tenant_rate=2.0,
                                  tenant_burst=2.0, batch_window=0.05)
            with obs.capture() as cap:
                # Two distinct queries land in one batch...
                async def batch_two():
                    await qserve.start()
                    try:
                        return await asyncio.gather(
                            qserve.submit("SELECT COUNT(*) FROM clogs",
                                          tenant="alpha"),
                            qserve.submit("SELECT SUM(octets) "
                                          "FROM clogs",
                                          tenant="alpha"))
                    finally:
                        await qserve.stop()

                first, second = asyncio.run(batch_two())
                assert first.value() is not None
                # ...then a hot tenant burns its burst on a cached
                # query and gets a typed rate rejection.
                outcomes = self._serve_queries(qserve, [
                    ("SELECT COUNT(*) FROM clogs", "hot"),
                    ("SELECT COUNT(*) FROM clogs", "hot"),
                    ("SELECT COUNT(*) FROM clogs", "hot"),
                ])
                assert isinstance(outcomes[-1], AdmissionRejected)

                for name, labels in QSERVE_METRIC_LABELS.items():
                    assert cap.registry.label_names(name) == \
                        labels, name
                assert QSERVE_SPANS <= set(cap.exporter.names())

                admitted = cap.registry.get(
                    "repro_qserve_admitted_total")
                assert admitted.value(tenant="alpha") == 2
                assert admitted.value(tenant="hot") == 2
                rejected = cap.registry.get(
                    "repro_qserve_rejected_total")
                assert rejected.value(tenant="hot", reason="rate") == 1
                batched = cap.registry.get("repro_qserve_batched_total")
                assert batched.value(outcome="proven") == 2
                cache = cap.registry.get("repro_qserve_cache_total")
                assert cache.value(tier="memory", result="hit") >= 2
                assert cache.value(tier="memory", result="miss") >= 2
                assert cap.registry.get(
                    "repro_qserve_inflight").value() == 0

                # Span shape: every submit opens qserve.admit; the
                # batch span carries its strategy.
                admits = cap.exporter.by_name("qserve.admit")
                assert len(admits) == 5
                assert {s.attributes["outcome"] for s in admits} >= \
                    {"queued", "cached", "rejected:rate"}
                (batch_span,) = cap.exporter.by_name("qserve.batch")
                assert batch_span.attributes["strategy"] == "batched"
                assert batch_span.attributes["size"] == 2
        finally:
            service.close()

    def test_metrics_wire_message_exposes_qserve_names(self):
        from repro.net import ProverServer, QueryClient
        from repro.qserve import QueryService

        from concurrent.futures import ThreadPoolExecutor

        store, bulletin, _ = make_committed_records(30, seed=22)
        service = ProverService(store, bulletin, pool_backend="thread",
                                prove_workers=2)
        service.aggregate_all_committed()
        qserve = QueryService(service, tenant_rate=2.0,
                              tenant_burst=2.0, batch_window=0.2)
        with obs.capture():
            server = ProverServer(service, qserve=qserve)
            try:
                with server:
                    # Two concurrent wire queries land in one batch
                    # window and prove through the shared scan.
                    def ask(sql):
                        with QueryClient(server.host,
                                         server.port) as client:
                            return client.query(sql, tenant="alpha")

                    with ThreadPoolExecutor(2) as pool:
                        answers = list(pool.map(ask, [
                            "SELECT COUNT(*) FROM clogs",
                            "SELECT SUM(octets) FROM clogs"]))
                    assert len(answers) == 2
                    with QueryClient(server.host,
                                     server.port) as client:
                        client.query("SELECT COUNT(*) FROM clogs",
                                     tenant="hot")
                        client.query("SELECT COUNT(*) FROM clogs",
                                     tenant="hot")
                        with pytest.raises(Exception):
                            client.query("SELECT COUNT(*) FROM clogs",
                                         tenant="hot")
                        snapshot = client.fetch_metrics()
                        status = client.fetch_status()
            finally:
                service.close()

            wire_names = {entry["name"] for bucket in
                          ("counters", "gauges", "histograms")
                          for entry in snapshot["metrics"][bucket]}
            assert set(QSERVE_METRIC_LABELS) <= wire_names
            # STATUS carries the serving stats next to the service's.
            qstats = status["qserve"]
            assert qstats["max_inflight"] == 64
            assert qstats["inflight"] == 0
            assert status["service"]["query_cache"]["persistent"] is True


CLUSTER_METRIC_LABELS = {
    "repro_cluster_jobs_total": ("node", "outcome"),
    "repro_cluster_steals_total": (),
    "repro_cluster_duplicates_total": (),
    "repro_cluster_fallback_total": (),
    "repro_cluster_nodes": ("state",),
    "repro_cluster_degraded": (),
    "repro_cluster_worker_jobs_total": ("outcome",),
}

CLUSTER_SPAN = "cluster.dispatch"


class TestClusterContract:
    """The remote-proving namespace, pinned like the others.

    The cluster is explicit opt-in (``backend="remote"`` / ``nodes=``
    / ``prove_nodes=``), so these names never appear for local
    backends; when a dispatcher runs, the names and label sets below
    are the wire-visible health contract STATUS and dashboards read.
    """

    def test_remote_round_emits_exact_names(self):
        from repro.cluster import ClusterOpts, WorkerServer
        from repro.core.guest_programs import register_guest
        from repro.engine import ProofJob, ProverPool
        from repro.zkvm import ExecutorEnvBuilder, GuestProgram

        def _fn(env):
            env.commit({"echo": env.read()})

        guest = register_guest(GuestProgram(_fn, name="obs/cluster"))
        builder = ExecutorEnvBuilder()
        builder.write("contract")
        job = ProofJob.from_parts(guest, builder.build())
        with obs.capture() as cap:
            with WorkerServer() as worker:
                with ProverPool(
                        backend="remote", nodes=[worker.endpoint],
                        cluster_opts=ClusterOpts(
                            poll_interval=0.02)) as pool:
                    pool.submit(job).result(timeout=60)
            spans = cap.exporter.by_name(CLUSTER_SPAN)
            assert len(spans) >= 1
            jobs = cap.registry.get("repro_cluster_jobs_total")
            assert jobs.value(node=worker.endpoint, outcome="ok") == 1
            worker_jobs = cap.registry.get(
                "repro_cluster_worker_jobs_total")
            assert worker_jobs.value(outcome="ok") == 1
            for name, labels in CLUSTER_METRIC_LABELS.items():
                if name in ("repro_cluster_steals_total",
                            "repro_cluster_duplicates_total",
                            "repro_cluster_fallback_total"):
                    continue  # only emitted by their fault paths
                assert cap.registry.label_names(name) == labels, name
            gauge = cap.registry.get("repro_cluster_nodes")
            assert gauge.value(state="healthy") == 1
            assert gauge.value(state="quarantined") == 0
            assert cap.registry.get(
                "repro_cluster_degraded").value() == 0

    def test_worker_requests_land_in_the_server_series(self):
        """A worker daemon is a frame server like the prover: its
        ``work-*`` requests are counted and traced by kind."""
        from repro.cluster import ClusterOpts, WorkerServer
        from repro.core.guest_programs import register_guest
        from repro.engine import ProofJob, ProverPool
        from repro.zkvm import ExecutorEnvBuilder, GuestProgram

        def _fn(env):
            env.commit({"echo": env.read()})

        guest = register_guest(GuestProgram(_fn, name="obs/worker"))
        builder = ExecutorEnvBuilder()
        builder.write("served")
        job = ProofJob.from_parts(guest, builder.build())
        with obs.capture() as cap:
            with WorkerServer() as worker:
                with ProverPool(
                        backend="remote", nodes=[worker.endpoint],
                        cluster_opts=ClusterOpts(
                            poll_interval=0.02)) as pool:
                    pool.submit(job).result(timeout=60)
            requests = cap.registry.get(
                "repro_net_server_requests_total")
            assert cap.registry.label_names(
                "repro_net_server_requests_total") == ("kind", "status")
            assert requests.value(kind="work-pull", status="ok") == 1
            assert requests.value(kind="work-result", status="ok") >= 1
            kinds = {span.attributes["kind"] for span
                     in cap.exporter.by_name("net.server.request")}
            assert {"work-pull", "work-result"} <= kinds

    def test_local_backends_emit_no_cluster_names(self, service_round):
        service, _ = service_round
        with obs.capture() as cap:
            service.aggregate_all_committed()
            for name in CLUSTER_METRIC_LABELS:
                assert cap.registry.get(name) is None, name
            assert cap.exporter.by_name(CLUSTER_SPAN) == []


FEDERATION_METRIC_LABELS = {
    "repro_federation_joins_total": ("outcome",),
    "repro_federation_providers": (),
    "repro_federation_join_seconds": (),
}

FEDERATION_SPAN = "federation.join"


class TestFederationContract:
    """The federation namespace: one span, three metrics, pinned."""

    def test_join_emits_exact_names(self):
        from repro.federation import (
            FederationJoinProver,
            build_federation_scenario,
        )
        scenario = build_federation_scenario(num_providers=2,
                                             num_flows=8, seed=3)
        with obs.capture() as cap:
            with FederationJoinProver() as prover:
                prover.prove_join(scenario)
            assert len(cap.exporter.by_name(FEDERATION_SPAN)) == 1
            for name, labels in FEDERATION_METRIC_LABELS.items():
                assert cap.registry.label_names(name) == labels, name
            joins = cap.registry.get("repro_federation_joins_total")
            assert joins.value(outcome="ok") == 1
            assert joins.value(outcome="abort") == 0
            providers = cap.registry.get("repro_federation_providers")
            assert providers.value() == 2

    def test_default_service_emits_no_federation_names(self):
        store, bulletin, _ = make_committed_records(20)
        service = ProverService(store, bulletin)
        with obs.capture() as cap:
            service.aggregate_all_committed()
            for name in FEDERATION_METRIC_LABELS:
                assert cap.registry.get(name) is None, name
            assert cap.exporter.by_name(FEDERATION_SPAN) == []
