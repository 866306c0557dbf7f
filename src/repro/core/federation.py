"""Inter-domain peering reconciliation (paper §1/§2.1).

"ISPs and CDN providers frequently establish SLAs with content
providers or *peering networks* ... When performance degradation
occurs, neither party is willing to reveal raw telemetry."

Two autonomous domains share a traffic boundary: domain A carries each
flow to the peering link, domain B onward.  Each domain runs its own
commitment/aggregation/proof pipeline over only its own routers.  A
neutral auditor reconciles the peering accounting from *proofs alone*:

    delivered_by_A  =  SUM(packets) − SUM(lost_packets)   (A's chain)
    received_by_B   =  SUM(packets)                        (B's chain)

With conservation (every packet A delivered arrives at B's ingress),
the two proven numbers must match; a discrepancy localizes the dispute
to the boundary without either side disclosing a single flow record.

The K-provider generalization — per-round published roots and a zkVM
guest proving the cross-provider join itself — lives in
:mod:`repro.federation`, which builds on the domain model here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..commitments import BulletinBoard, Commitment, window_digest
from ..errors import ConfigurationError
from ..netflow.generator import TrafficConfig, TrafficGenerator
from ..netflow.records import NetFlowRecord
from ..netflow.topology import LinkSpec, NetworkTopology
from ..storage import MemoryLogStore
from .prover_service import ProverService
from .verifier_client import VerifierClient


@dataclass
class PeeringDomain:
    """One autonomous domain's full pipeline."""

    name: str
    router_ids: tuple[str, ...]
    store: MemoryLogStore
    bulletin: BulletinBoard
    prover: ProverService

    @classmethod
    def create(cls, name: str, router_ids: tuple[str, ...]) -> "PeeringDomain":
        store = MemoryLogStore()
        bulletin = BulletinBoard()
        return cls(
            name=name,
            router_ids=router_ids,
            store=store,
            bulletin=bulletin,
            prover=ProverService(store, bulletin),
        )

    def aggregate_all(self) -> None:
        """Prove every pending window, or refuse over partial state.

        A quarantined window is committed data the chain will never
        cover; proofs over the rest would mis-localize a dispute to the
        boundary, so the domain refuses instead of answering.
        """
        self.prover.aggregate_all_committed()
        self.prover.require_unquarantined(f"domain {self.name!r}")

    def commit_window(self, window_index: int, records: list[NetFlowRecord]) -> None:
        by_router: dict[str, list[NetFlowRecord]] = {}
        for record in records:
            if record.router_id not in self.router_ids:
                raise ConfigurationError(
                    f"record from {record.router_id!r} does not belong "
                    f"to domain {self.name!r}"
                )
            by_router.setdefault(record.router_id, []).append(record)
        for router_id, router_records in by_router.items():
            self.store.append_records(router_id, window_index, router_records)
            self.bulletin.publish(
                Commitment(
                    router_id=router_id,
                    window_index=window_index,
                    digest=window_digest([r.to_bytes() for r in router_records]),
                    record_count=len(router_records),
                    published_at_ms=window_index * 5_000,
                )
            )


@dataclass
class PeeringScenario:
    """Two domains around one peering boundary, fed by shared flows."""

    domain_a: PeeringDomain
    domain_b: PeeringDomain
    topology: NetworkTopology
    total_flows: int


def build_peering_scenario(
    num_flows: int = 120,
    seed: int = 7,
    boundary_loss: float = 0.01,
    num_windows: int = 1,
) -> PeeringScenario:
    """A carries r1→r2, B carries r3→r4; every flow crosses r2—r3.

    ``boundary_loss`` is the loss rate of the peering link itself —
    the quantity the reconciliation surfaces.  ``num_windows`` spreads
    the flows round-robin over that many commitment windows (the
    multi-round shape the stale-window regression tests exercise).
    """
    if num_windows < 1:
        raise ConfigurationError("num_windows must be >= 1")
    topology = NetworkTopology()
    for router_id in ("r1", "r2", "r3", "r4"):
        topology.add_router(router_id)
    internal = LinkSpec(latency_us=1_500, jitter_us=150, loss_rate=0.002)
    topology.add_link("r1", "r2", internal)
    topology.add_link(
        "r2", "r3", LinkSpec(latency_us=4_000, jitter_us=400, loss_rate=boundary_loss)
    )
    topology.add_link("r3", "r4", internal)

    generator = TrafficGenerator(topology, TrafficConfig(seed=seed))
    domain_a = PeeringDomain.create("isp-a", ("r1", "r2"))
    domain_b = PeeringDomain.create("isp-b", ("r3", "r4"))
    records_a: dict[int, list[NetFlowRecord]] = {w: [] for w in range(num_windows)}
    records_b: dict[int, list[NetFlowRecord]] = {w: [] for w in range(num_windows)}
    for flow_index in range(num_flows):
        window = flow_index % num_windows
        flow = generator.generate_flow(now_ms=1_000 + window * 5_000)
        # Force the boundary crossing: ingress r1, egress r4.
        crossing = dataclasses.replace(flow, path=("r1", "r2", "r3", "r4"))
        for record in generator.observe(crossing):
            if record.router_id in domain_a.router_ids:
                records_a[window].append(record)
            else:
                records_b[window].append(record)
    for window in range(num_windows):
        domain_a.commit_window(window, records_a[window])
        domain_b.commit_window(window, records_b[window])
    return PeeringScenario(
        domain_a=domain_a,
        domain_b=domain_b,
        topology=topology,
        total_flows=num_flows,
    )


@dataclass(frozen=True)
class ReconciliationReport:
    """The auditor's verdict over two verified proof chains."""

    delivered_by_a: int
    received_by_b: int
    flows_a: int
    flows_b: int
    tolerance: float

    @property
    def gap(self) -> int:
        return self.delivered_by_a - self.received_by_b

    @property
    def relative_gap(self) -> float:
        # Guard on the *larger* side: a domain that delivered nothing
        # while the other received packets must surface as a full-size
        # gap (1.0), not divide-by-A's-zero into a clean 0.0.
        larger = max(self.delivered_by_a, self.received_by_b)
        if larger == 0:
            return 0.0
        return abs(self.gap) / larger

    @property
    def consistent(self) -> bool:
        return self.relative_gap <= self.tolerance and self.flows_a == self.flows_b

    def __str__(self) -> str:
        status = "CONSISTENT" if self.consistent else "DISPUTED"
        return (
            f"[{status}] A delivered {self.delivered_by_a:,} pkts "
            f"over {self.flows_a} flows; B received "
            f"{self.received_by_b:,} over {self.flows_b} "
            f"(gap {self.gap:+,}, {self.relative_gap:.3%})"
        )


class PeeringAuditor:
    """Neutral third party: verifies both chains, reconciles accounting.

    Holds only public material from each domain (bulletin + receipts +
    query responses); never sees either side's logs.
    """

    def __init__(self, tolerance: float = 0.0) -> None:
        if tolerance < 0:
            raise ConfigurationError("tolerance must be non-negative")
        self.tolerance = tolerance

    def reconcile(self, scenario: PeeringScenario) -> ReconciliationReport:
        a = scenario.domain_a
        b = scenario.domain_b
        for domain in (a, b):
            # Every committed-but-unproven window must enter the chain
            # before querying — a partially aggregated domain would
            # otherwise reconcile over stale state and mis-localize the
            # dispute to the boundary.
            domain.aggregate_all()
        a_response = a.prover.answer_query(
            "SELECT SUM(packets), SUM(lost_packets), COUNT(*) FROM clogs"
        )
        b_response = b.prover.answer_query("SELECT SUM(packets), COUNT(*) FROM clogs")
        # Independent verification per domain.
        a_verified = self._verify(a, a_response)
        b_verified = self._verify(b, b_response)
        a_packets, a_lost, a_flows = a_verified.values
        b_packets, b_flows = b_verified.values
        return ReconciliationReport(
            delivered_by_a=(a_packets or 0) - (a_lost or 0),
            received_by_b=b_packets or 0,
            flows_a=a_flows or 0,
            flows_b=b_flows or 0,
            tolerance=self.tolerance,
        )

    @staticmethod
    def _verify(domain: PeeringDomain, response):
        verifier = VerifierClient(domain.bulletin)
        chain = verifier.verify_chain(domain.prover.chain.receipts())
        return verifier.verify_query(response, chain[-1])
