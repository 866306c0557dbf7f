"""Compose-style harness: spin up N worker daemons, prove against them.

The topology file (``topology.json``) declares the fleet the way a
compose file declares services: one entry per worker daemon, plus the
workload the coordinator should drive.  :class:`ClusterHarness` turns
each entry into a real ``python -m repro worker`` subprocess, waits
for the listening line, and hands the endpoints to whoever asks.

Usage::

    with ClusterHarness.from_topology(path) as harness:
        run_demo(harness.endpoints, topology)

Everything here is plain stdlib + repro — the harness is also what the
integration suite's smoke test drives, so it must stay importable.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
DEFAULT_TOPOLOGY = Path(__file__).with_name("topology.json")


def load_topology(path: str | Path = DEFAULT_TOPOLOGY) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        topology = json.load(fh)
    if not topology.get("workers"):
        raise ValueError(f"{path}: topology declares no workers")
    return topology


class WorkerDaemon:
    """One ``repro worker`` subprocess from a topology entry."""

    def __init__(self, spec: dict) -> None:
        argv = [sys.executable, "-m", "repro", "worker",
                "--port", "0",
                "--backend", str(spec.get("backend", "thread"))]
        if spec.get("workers"):
            argv += ["--workers", str(spec["workers"])]
        if spec.get("idle_timeout"):
            argv += ["--idle-timeout", str(spec["idle_timeout"])]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.spec = spec
        self.proc = subprocess.Popen(
            argv, cwd=REPO_ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if "worker listening on " not in line:
            rest = self.proc.stdout.read() or ""
            self.proc.kill()
            raise RuntimeError(
                f"worker failed to start: {line!r}\n{rest}")
        self.endpoint = line.split("worker listening on ", 1)[1] \
                            .split()[0]

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        """SIGKILL — the chaos path, no goodbye."""
        if self.alive:
            os.kill(self.proc.pid, signal.SIGKILL)
        self.proc.wait(timeout=10)

    def stop(self) -> None:
        if self.alive:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def run_demo(endpoints, topology, harness=None, kill_one=False) -> int:
    """Aggregate a committed workload over the cluster; returns rounds.

    Imports repro lazily so the harness itself stays importable
    without ``src`` on the path (callers that only want the fleet).
    """
    from repro.core.prover_service import ProverService
    from repro.core.system import SystemConfig, TelemetrySystem
    from repro.core.verifier_client import VerifierClient

    system = TelemetrySystem(SystemConfig(
        seed=11, flows_per_tick=topology.get("flows_per_window", 4)))
    # Pump the simulator until enough windows have committed on their
    # own; flushing mid-run would re-commit a partial window later
    # (equivocation), so the tail partial window is simply left out.
    wanted = topology.get("windows", 3)
    records = 40
    while len(system.bulletin.windows()) < wanted and records < 20_000:
        system.simulator.run_until_records(records)
        records *= 2
    windows = system.bulletin.windows()
    print(f"workload: {len(windows)} committed windows, "
          f"{len(endpoints)} worker nodes")

    service = ProverService(system.store, system.bulletin,
                            prove_nodes=endpoints)
    try:
        for index, window in enumerate(windows):
            if kill_one and harness is not None and index == 1:
                victim = harness.kill_one()
                print(f"chaos: SIGKILLed worker {victim.endpoint}")
            service.aggregate_window(window)
            root = service.chain.latest.header.new_root
            print(f"  window {window}: round proven, "
                  f"new root {str(root)[:16]}…")
        verified = VerifierClient(system.bulletin).verify_chain(
            service.chain.receipts())
        print(f"chain verifies: {len(verified)} rounds, "
              f"{verified[-1].size} flows")
        cluster = service.status()["engine"]["cluster"]
        print("fleet after the run:")
        for node in cluster["nodes"]:
            print(f"  {node['endpoint']:<22} {node['state']:<12} "
                  f"ok={node['jobs_ok']} failed={node['jobs_failed']}")
        print(f"degraded={cluster['degraded']} "
              f"steals={cluster['steals']} "
              f"fallback_jobs={cluster['fallback_jobs']}")
        return len(verified)
    finally:
        service.close()
        system.close()


class ClusterHarness:
    """The whole fleet, compose-style: up, endpoints, down."""

    def __init__(self, specs: list[dict]) -> None:
        self.workers: list[WorkerDaemon] = []
        try:
            for spec in specs:
                self.workers.append(WorkerDaemon(spec))
        except Exception:
            self.down()
            raise

    @classmethod
    def from_topology(cls, path: str | Path = DEFAULT_TOPOLOGY
                      ) -> "ClusterHarness":
        return cls(load_topology(path)["workers"])

    @property
    def endpoints(self) -> tuple[str, ...]:
        return tuple(w.endpoint for w in self.workers)

    def kill_one(self) -> WorkerDaemon:
        """SIGKILL the first live worker (chaos demo) and return it."""
        for worker in self.workers:
            if worker.alive:
                worker.kill()
                return worker
        raise RuntimeError("no live worker left to kill")

    def down(self) -> None:
        for worker in self.workers:
            worker.stop()

    def __enter__(self) -> "ClusterHarness":
        return self

    def __exit__(self, *exc) -> None:
        self.down()
