"""Chaos: kill real worker daemons mid-window, assert nothing changes.

These are the acceptance scenarios for the cluster backend.  Workers
run as genuine subprocesses (``python -m repro worker``) so a SIGKILL
takes the whole node — sockets, leases, pool threads — exactly like a
machine loss.  The invariants under test:

- a round whose leases die mid-flight still closes with receipts and
  journals *byte-identical* to all-local proving;
- the dead node ends up quarantined, visibly — in the dispatcher
  snapshot, in ``ProverService.status()`` and in ``repro_cluster_*``
  metrics;
- leases are re-dispatched without double adoption (adopted results
  plus local fallbacks account for every job exactly once);
- an all-dead fleet degrades to local proving instead of hanging.

``REPRO_FAULT_SEED`` (swept in CI) seeds the frame-fault storm
scenario; the kill scenarios are seed-independent.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import obs
from repro.cluster import (
    QUARANTINED,
    ClusterDispatcher,
    ClusterOpts,
)
from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.prover_service import ProverService
from repro.engine import ProofJob, ProverPool, execute_job
from repro.faults import FaultInjector, FaultPlan
from repro.obs.names import CLUSTER_DEGRADED, CLUSTER_NODES
from repro.storage import MemoryLogStore
from repro.zkvm import ExecutorEnvBuilder

from ..conftest import make_record
from .cluster_guests import echo_guest, slow_guest

REPO_ROOT = Path(__file__).resolve().parents[2]
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "0"))

#: Chaos timings: quarantine on the first failure, short backoff so
#: reinstatement probes keep hammering the corpse (and keep failing).
FAST = ClusterOpts(poll_interval=0.02, request_timeout=2.0,
                   probe_timeout=0.5, backoff_base=0.5,
                   backoff_max=5.0, quarantine_after=1,
                   lease_timeout=8.0)


def job_for(guest, value):
    builder = ExecutorEnvBuilder()
    builder.write(value)
    return ProofJob.from_parts(guest, builder.build())


class WorkerProc:
    """A worker daemon in its own process, killable for real."""

    def __init__(self, *extra_args: str) -> None:
        env = dict(os.environ)
        # `src` for the package, `.` so the daemon can import
        # tests.integration.cluster_guests from the jobs' guest_module.
        env["PYTHONPATH"] = "src" + os.pathsep + "."
        env.pop("REPRO_FAULTS", None)  # kill scenarios stay clean
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--port", "0", "--backend", "thread", *extra_args],
            cwd=REPO_ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if "worker listening on " not in line:
            rest = self.proc.stdout.read() or ""
            self.proc.kill()
            raise AssertionError(
                f"worker failed to start: {line!r}\n{rest}")
        self.endpoint = line.split("worker listening on ", 1)[1] \
                            .split()[0]

    def sigkill(self) -> None:
        if self.proc.poll() is None:
            os.kill(self.proc.pid, signal.SIGKILL)
        self.proc.wait(timeout=10)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def __enter__(self) -> "WorkerProc":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def dead_endpoint() -> str:
    """A host:port nothing listens on (bound once, then released)."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    host, port = sock.getsockname()
    sock.close()
    return f"{host}:{port}"


def node_snap(snapshot: dict, endpoint: str) -> dict:
    return next(n for n in snapshot["nodes"]
                if n["endpoint"] == endpoint)


def commit_window(store, bulletin, window, sport):
    records = [make_record(sport=sport, lost_packets=window)]
    store.append_records("r1", window, records)
    bulletin.publish(Commitment(
        router_id="r1", window_index=window,
        digest=window_digest([r.to_bytes() for r in records]),
        record_count=len(records), published_at_ms=window * 5_000))


def build_committed(windows=3):
    """Deterministic multi-window store; identical across calls."""
    store, bulletin = MemoryLogStore(), BulletinBoard()
    for window in range(windows):
        commit_window(store, bulletin, window, sport=1_000 + window)
    return store, bulletin


class TestKillMidWindow:
    def test_sigkill_with_inflight_leases(self):
        """SIGKILL a worker while it holds leases: every job still
        resolves byte-identically, the corpse is quarantined, and no
        job is adopted twice."""
        jobs = [job_for(slow_guest, f"chaos-{i}") for i in range(8)]
        with WorkerProc() as survivor:
            victim = WorkerProc()
            with ProverPool(backend="remote",
                            nodes=[victim.endpoint, survivor.endpoint],
                            cluster_opts=FAST) as pool:
                futures = [pool.submit(j) for j in jobs]
                # Wait until the victim actually holds work in flight.
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    snap = pool.snapshot()["cluster"]
                    if node_snap(snap, victim.endpoint)["leases"] >= 1:
                        break
                    time.sleep(0.01)
                else:
                    raise AssertionError("victim never took a lease")
                victim.sigkill()
                results = [f.result(timeout=120) for f in futures]
                snap = pool.snapshot()["cluster"]
            victim.close()
        for job, result in zip(jobs, results):
            local = execute_job(job)
            assert result.receipt.to_json_bytes() == \
                local.receipt.to_json_bytes()
            assert result.receipt.journal == local.receipt.journal
        assert node_snap(snap, victim.endpoint)["state"] == QUARANTINED
        # Exactly-once adoption: remote adoptions plus local fallbacks
        # cover the job list with nothing counted twice.
        adopted = sum(n["jobs_ok"] for n in snap["nodes"])
        assert adopted + snap["fallback_jobs"] == len(jobs)
        assert snap["leases"] == 0

    def test_round_journal_identical_after_worker_kill(self):
        """Service-level acceptance: kill one of two workers between
        windows; every remaining round's receipt and journal is
        byte-identical to an all-local run, and the quarantine shows
        up in STATUS and the repro_cluster_* metrics."""
        store_a, bulletin_a = build_committed()
        baseline = ProverService(store_a, bulletin_a)
        for window in range(3):
            baseline.aggregate_window(window)
        expected = [r.to_json_bytes()
                    for r in baseline.chain.receipts()]

        store_b, bulletin_b = build_committed()
        with WorkerProc() as survivor:
            victim = WorkerProc()
            with obs.capture() as cap:
                # stream=False: the baseline proves monolithically, and
                # receipts (not just journals) are compared below — a
                # REPRO_STREAM=1 leg would swap in the fold image.
                service = ProverService(
                    store_b, bulletin_b,
                    prove_nodes=(victim.endpoint, survivor.endpoint),
                    stream=False)
                try:
                    service.aggregate_window(0)
                    victim.sigkill()
                    service.aggregate_window(1)
                    service.aggregate_window(2)
                    got = [r.to_json_bytes()
                           for r in service.chain.receipts()]
                    status = service.status()
                finally:
                    service.close()
            victim.close()
        assert got == expected
        cluster = status["engine"]["cluster"]
        dead = node_snap(cluster, victim.endpoint)
        assert dead["state"] == QUARANTINED
        assert node_snap(cluster, survivor.endpoint)["jobs_ok"] >= 1
        gauge = cap.registry.get(CLUSTER_NODES)
        assert gauge is not None
        assert gauge.value(state="quarantined") == 1
        assert gauge.value(state="healthy") == 1

    def test_all_nodes_down_degrades_without_hanging(self):
        """Every node dead from the start: the service must finish the
        round via local fallback and report itself degraded."""
        store_a, bulletin_a = build_committed(windows=1)
        baseline = ProverService(store_a, bulletin_a)
        baseline.aggregate_window(0)
        expected = [r.to_json_bytes()
                    for r in baseline.chain.receipts()]

        store_b, bulletin_b = build_committed(windows=1)
        with obs.capture() as cap:
            # stream=False for the same reason as above: whole
            # receipts are compared against a monolithic baseline.
            service = ProverService(
                store_b, bulletin_b,
                prove_nodes=(dead_endpoint(), dead_endpoint()),
                stream=False)
            try:
                service.aggregate_window(0)
                got = [r.to_json_bytes()
                       for r in service.chain.receipts()]
                status = service.status()
            finally:
                service.close()
        assert got == expected
        cluster = status["engine"]["cluster"]
        assert cluster["degraded"] is True
        assert cluster["fallback_jobs"] >= 1
        assert all(n["state"] == QUARANTINED
                   for n in cluster["nodes"])
        degraded = cap.registry.get(CLUSTER_DEGRADED)
        assert degraded is not None and degraded.value() == 1


class TestSeededFaultStorm:
    def test_frame_fault_storm_converges(self):
        """A seeded net.frame storm on the dispatcher's client side
        (swept over REPRO_FAULT_SEED in CI): proving still converges
        byte-identically and the pool is never left stalled."""
        plan = FaultPlan.parse("net.frame:corrupt:p=0.2", seed=FAULT_SEED)
        jobs = [job_for(echo_guest, f"storm-{FAULT_SEED}-{i}")
                for i in range(6)]
        with WorkerProc() as w1, WorkerProc() as w2:
            dispatcher = ClusterDispatcher(
                [w1.endpoint, w2.endpoint], opts=FAST,
                injector=FaultInjector(plan))
            try:
                futures = [dispatcher.dispatch(j) for j in jobs]
                results = [f.result(timeout=120) for f in futures]
                snap = dispatcher.snapshot()
            finally:
                dispatcher.shutdown()
        for job, result in zip(jobs, results):
            assert result.receipt.to_json_bytes() == \
                execute_job(job).receipt.to_json_bytes()
        assert snap["leases"] == 0  # nothing stalled
