"""End-to-end system wiring (the §6 experimental setup in one object).

:class:`TelemetrySystem` glues the simulator, the shared store, the
bulletin board, the prover service and a verifier client together, and
:func:`build_paper_eval_system` reproduces the paper's configuration:
4 routers on a simplified topology, per-router log generation, a shared
SQL-style backend, and 5-second commitment windows.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..commitments import BulletinBoard
from ..netflow import NetFlowSimulator, SimClock, SimulatorConfig
from ..netflow.generator import TrafficConfig
from ..netflow.topology import NetworkTopology
from ..storage import MemoryLogStore, SqliteLogStore
from ..storage.backend import LogStore
from ..zkvm import ProverOpts
from ..zkvm.costmodel import CostModel
from .policy import DEFAULT_POLICY, AggregationPolicy
from .prover_service import ProverService
from .verifier_client import VerifierClient


@dataclass
class SystemConfig:
    """Configuration mirroring the paper's evaluation defaults."""

    num_routers: int = 4
    commit_interval_ms: int = 5_000
    flows_per_tick: int = 20
    seed: int = 7
    backend: str = "memory"  # "memory" | "sqlite"
    sqlite_path: str = ":memory:"


class TelemetrySystem:
    """Simulator + prover + verifier, wired to shared storage."""

    def __init__(self, config: SystemConfig | None = None,
                 policy: AggregationPolicy = DEFAULT_POLICY,
                 prover_opts: ProverOpts | None = None,
                 topology: NetworkTopology | None = None,
                 traffic: TrafficConfig | None = None) -> None:
        self.config = config or SystemConfig()
        self.store: LogStore = self._build_store()
        self.bulletin = BulletinBoard()
        self.clock = SimClock()
        sim_config = SimulatorConfig(
            num_routers=self.config.num_routers,
            commit_interval_ms=self.config.commit_interval_ms,
            flows_per_tick=self.config.flows_per_tick,
            traffic=traffic or TrafficConfig(seed=self.config.seed),
        )
        self.simulator = NetFlowSimulator(
            self.store, self.bulletin, self.clock, sim_config,
            topology=topology)
        self.prover = ProverService(self.store, self.bulletin, policy,
                                    prover_opts)
        self.verifier = VerifierClient(self.bulletin)
        self.cost_model = CostModel()

    def _build_store(self) -> LogStore:
        if self.config.backend == "memory":
            return MemoryLogStore()
        if self.config.backend == "sqlite":
            return SqliteLogStore(self.config.sqlite_path)
        raise ValueError(
            f"unknown backend {self.config.backend!r}")

    # -- convenience drives ----------------------------------------------------

    def generate(self, target_records: int) -> None:
        """Simulate until ≥ ``target_records`` exist, then flush commits."""
        self.simulator.run_until_records(target_records)
        self.simulator.flush()

    def aggregate_all(self) -> int:
        """Aggregate every committed window; returns the round count.
        A window whose round aborts lands in ``prover.quarantined``."""
        return len(self.prover.aggregate_all_committed())

    def query(self, sql: str):
        """Prove a query, verify it client-side, and return both."""
        response = self.prover.answer_query(sql)
        return response, self.verifier.verify_response(
            response, self.prover.chain.receipts())

    def close(self) -> None:
        self.store.close()


def build_paper_eval_system(target_records: int = 200,
                            seed: int = 7,
                            backend: str = "memory",
                            flows_per_tick: int = 20) -> TelemetrySystem:
    """The §6 setup, populated and committed, ready for aggregation."""
    system = TelemetrySystem(SystemConfig(
        seed=seed, backend=backend, flows_per_tick=flows_per_tick))
    system.generate(target_records)
    return system
