"""The instrumentation contract: every span and metric name we emit.

These names are **public API**.  ``tests/unit/test_obs_contract.py``
asserts the exact set (with hard-coded literals, deliberately not
imported from here), so renaming anything below is a breaking change
that fails CI.  ``docs/OBSERVABILITY.md`` is the human-readable
reference for the same table.
"""

from __future__ import annotations

# -- span names --------------------------------------------------------------

SPAN_EXECUTE = "zkvm.execute"
SPAN_PROVE = "zkvm.prove"
SPAN_VERIFY = "zkvm.verify"
SPAN_AGG_ROUND = "agg.round"
SPAN_AGG_WITNESS = "agg.witness"
SPAN_PARALLEL_ROUND = "agg.parallel.round"
SPAN_PARALLEL_PARTITION = "agg.parallel.partition"
SPAN_PARALLEL_MERGE = "agg.parallel.merge"
SPAN_QUERY_PROVE = "query.prove"
SPAN_QUERY_PARALLEL_ROUND = "query.parallel.round"
SPAN_QUERY_PARALLEL_PARTITION = "query.parallel.partition"
SPAN_QUERY_PARALLEL_MERGE = "query.parallel.merge"
SPAN_NET_SERVER_REQUEST = "net.server.request"
SPAN_NET_CLIENT_REQUEST = "net.client.request"
SPAN_ENGINE_JOB = "engine.job"
SPAN_QSERVE_ADMIT = "qserve.admit"
SPAN_QSERVE_BATCH = "qserve.batch"
SPAN_CLUSTER_DISPATCH = "cluster.dispatch"
SPAN_FEDERATION_JOIN = "federation.join"

SPAN_NAMES = frozenset({
    SPAN_EXECUTE,
    SPAN_PROVE,
    SPAN_VERIFY,
    SPAN_AGG_ROUND,
    SPAN_AGG_WITNESS,
    SPAN_PARALLEL_ROUND,
    SPAN_PARALLEL_PARTITION,
    SPAN_PARALLEL_MERGE,
    SPAN_QUERY_PROVE,
    SPAN_QUERY_PARALLEL_ROUND,
    SPAN_QUERY_PARALLEL_PARTITION,
    SPAN_QUERY_PARALLEL_MERGE,
    SPAN_NET_SERVER_REQUEST,
    SPAN_NET_CLIENT_REQUEST,
    SPAN_ENGINE_JOB,
    SPAN_QSERVE_ADMIT,
    SPAN_QSERVE_BATCH,
    SPAN_CLUSTER_DISPATCH,
    SPAN_FEDERATION_JOIN,
})

# -- metric names (name -> declared label names) -----------------------------

# zkVM executor / prover / verifier
EXECUTOR_SESSIONS = "repro_executor_sessions_total"
EXECUTOR_CYCLES = "repro_executor_cycles_total"
PROVER_PROOFS = "repro_prover_proofs_total"
PROVER_CYCLES = "repro_prover_cycles_total"
PROVER_SEGMENTS = "repro_prover_segments_total"
PROVER_SECONDS = "repro_prover_prove_seconds"
VERIFIER_RECEIPTS = "repro_verifier_receipts_total"
VERIFIER_SECONDS = "repro_verifier_verify_seconds"

# aggregation (sequential + parallel) and the prover service
AGG_ROUNDS = "repro_agg_rounds_total"
AGG_RECORDS = "repro_agg_records_total"
AGG_SECONDS = "repro_agg_round_seconds"
PARALLEL_PARTITIONS = "repro_parallel_partitions_total"
SERVICE_FLOWS = "repro_service_flows"
SERVICE_ROUNDS = "repro_service_rounds"
SERVICE_CHECKPOINTS = "repro_service_checkpoints_total"
SERVICE_RESTORES = "repro_service_restores_total"

# proving engine (pool + scheduler + receipt cache)
ENGINE_JOBS = "repro_engine_jobs_total"
ENGINE_JOB_SECONDS = "repro_engine_job_seconds"
ENGINE_QUEUE_DEPTH = "repro_engine_queue_depth"
ENGINE_WORKERS = "repro_engine_workers"
ENGINE_WORKERS_BUSY = "repro_engine_workers_busy"
ENGINE_CACHE = "repro_engine_cache_total"
ENGINE_ROUND_REAL_SECONDS = "repro_engine_round_real_seconds"
ENGINE_ROUND_MODELED_SECONDS = "repro_engine_round_modeled_seconds"

# multi-tenant query serving (admission + batching + result cache)
QSERVE_ADMITTED = "repro_qserve_admitted_total"
QSERVE_REJECTED = "repro_qserve_rejected_total"
QSERVE_BATCHED = "repro_qserve_batched_total"
QSERVE_CACHE = "repro_qserve_cache_total"
QSERVE_INFLIGHT = "repro_qserve_inflight"

# distributed proving fabric (remote pool backend + worker daemons)
CLUSTER_JOBS = "repro_cluster_jobs_total"
CLUSTER_STEALS = "repro_cluster_steals_total"
CLUSTER_DUPLICATES = "repro_cluster_duplicates_total"
CLUSTER_FALLBACK = "repro_cluster_fallback_total"
CLUSTER_NODES = "repro_cluster_nodes"
CLUSTER_DEGRADED = "repro_cluster_degraded"
CLUSTER_WORKER_JOBS = "repro_cluster_worker_jobs_total"

# federated multi-provider joins
FEDERATION_JOINS = "repro_federation_joins_total"
FEDERATION_PROVIDERS = "repro_federation_providers"
FEDERATION_JOIN_SECONDS = "repro_federation_join_seconds"

# query proving
QUERY_PROOFS = "repro_query_proofs_total"
QUERY_SECONDS = "repro_query_prove_seconds"
QUERY_PARTITIONS = "repro_query_partitions_total"

# wire protocol, server side
NET_SERVER_REQUESTS = "repro_net_server_requests_total"
NET_SERVER_SECONDS = "repro_net_server_request_seconds"
NET_SERVER_BYTES = "repro_net_server_bytes_total"
NET_SERVER_ERRORS = "repro_net_server_errors_total"
NET_SERVER_CONNECTIONS = "repro_net_server_connections"

# wire protocol, client side
NET_CLIENT_REQUESTS = "repro_net_client_requests_total"
NET_CLIENT_ATTEMPTS = "repro_net_client_attempts_total"
NET_CLIENT_RETRIES = "repro_net_client_retries_total"
NET_CLIENT_SECONDS = "repro_net_client_request_seconds"
NET_CLIENT_BYTES = "repro_net_client_bytes_total"
NET_CLIENT_ERRORS = "repro_net_client_errors_total"

#: name -> label-name tuple for every metric the system can emit.
METRIC_LABELS: dict[str, tuple[str, ...]] = {
    EXECUTOR_SESSIONS: ("program", "exit_code"),
    EXECUTOR_CYCLES: ("program",),
    PROVER_PROOFS: ("program", "kind"),
    PROVER_CYCLES: ("program",),
    PROVER_SEGMENTS: ("program",),
    PROVER_SECONDS: ("program",),
    VERIFIER_RECEIPTS: ("kind", "outcome"),
    VERIFIER_SECONDS: (),
    AGG_ROUNDS: ("strategy",),
    AGG_RECORDS: ("strategy",),
    AGG_SECONDS: ("strategy",),
    PARALLEL_PARTITIONS: (),
    SERVICE_FLOWS: (),
    SERVICE_ROUNDS: (),
    SERVICE_CHECKPOINTS: ("outcome",),
    SERVICE_RESTORES: ("outcome",),
    ENGINE_JOBS: ("guest", "outcome"),
    ENGINE_JOB_SECONDS: ("guest",),
    ENGINE_QUEUE_DEPTH: (),
    ENGINE_WORKERS: (),
    ENGINE_WORKERS_BUSY: (),
    ENGINE_CACHE: ("tier", "result"),
    ENGINE_ROUND_REAL_SECONDS: (),
    ENGINE_ROUND_MODELED_SECONDS: (),
    QSERVE_ADMITTED: ("tenant",),
    QSERVE_REJECTED: ("tenant", "reason"),
    QSERVE_BATCHED: ("outcome",),
    QSERVE_CACHE: ("tier", "result"),
    QSERVE_INFLIGHT: (),
    CLUSTER_JOBS: ("node", "outcome"),
    CLUSTER_STEALS: (),
    CLUSTER_DUPLICATES: (),
    CLUSTER_FALLBACK: (),
    CLUSTER_NODES: ("state",),
    CLUSTER_DEGRADED: (),
    CLUSTER_WORKER_JOBS: ("outcome",),
    FEDERATION_JOINS: ("outcome",),
    FEDERATION_PROVIDERS: (),
    FEDERATION_JOIN_SECONDS: (),
    QUERY_PROOFS: (),
    QUERY_SECONDS: (),
    QUERY_PARTITIONS: (),
    NET_SERVER_REQUESTS: ("kind", "status"),
    NET_SERVER_SECONDS: ("kind",),
    NET_SERVER_BYTES: ("direction",),
    NET_SERVER_ERRORS: ("kind", "code"),
    NET_SERVER_CONNECTIONS: (),
    NET_CLIENT_REQUESTS: ("kind", "status"),
    NET_CLIENT_ATTEMPTS: ("kind",),
    NET_CLIENT_RETRIES: ("kind",),
    NET_CLIENT_SECONDS: ("kind",),
    NET_CLIENT_BYTES: ("direction",),
    NET_CLIENT_ERRORS: ("kind", "error"),
}
