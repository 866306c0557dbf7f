"""K-provider federation scenarios: domains, topology, published roots.

A :class:`FederationScenario` strings K autonomous provider domains
into a delivery chain: provider ``i`` owns a contiguous run of routers
and hands every flow to provider ``i+1`` over an inter-domain boundary
link.  Each domain is a full :class:`PeeringDomain` pipeline (own
store, own bulletin, own prover service); the only shared state is the
:class:`RootBoard`, the public registry where every provider publishes
its per-round aggregation root.  With K=2 this is the paper's §2.1
peering dispute: what A delivered to the boundary against what B
received there.

The board is what makes the providers *mutually distrustful* rather
than merely separate: the federation join is proven against the
published roots, so a provider that publishes a root different from
what its chain proves is caught deterministically — either the join
guest aborts (when the coordinator feeds it the published roots) or
the auditor flags the provider (when it compares published roots to
the verified chains).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..commitments import BulletinBoard, Commitment, window_digest
from ..core.prover_service import ProverService
from ..errors import ConfigurationError, ProofError
from ..hashing import Digest
from ..netflow.generator import TrafficConfig, TrafficGenerator
from ..netflow.records import NetFlowRecord
from ..netflow.topology import LinkSpec, NetworkTopology
from ..storage import MemoryLogStore
from ..zkvm import Receipt


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


class RootBoard:
    """Public per-round root registry for a federation.

    Providers publish ``(provider, round, root)``; auditors and the
    join coordinator read.  Publishing a *different* root for an
    already-published round raises — equivocation is never silent.  The
    explicit ``replace=True`` escape hatch exists only to simulate a
    Byzantine provider in tests and demos.
    """

    def __init__(self) -> None:
        self._roots: dict[tuple[str, int], Digest] = {}

    def publish(
        self,
        provider: str,
        round_index: int,
        root: Digest,
        *,
        replace: bool = False,
    ) -> None:
        key = (provider, round_index)
        existing = self._roots.get(key)
        if existing is not None and existing != root and not replace:
            raise ConfigurationError(
                f"provider {provider!r} already published a different "
                f"root for round {round_index} (equivocation)"
            )
        self._roots[key] = root

    def try_root(self, provider: str, round_index: int) -> Digest | None:
        return self._roots.get((provider, round_index))

    def latest(self, provider: str) -> tuple[int, Digest]:
        rounds = [r for (name, r) in self._roots if name == provider]
        if not rounds:
            raise ProofError(f"provider {provider!r} has published no roots")
        last = max(rounds)
        return last, self._roots[(provider, last)]


@dataclass(frozen=True)
class ProviderPublic:
    """The public material one provider hands the auditor.

    Receipts, commitments and published roots only — never records.
    """

    name: str
    bulletin: object
    receipts: tuple[Receipt, ...]


@dataclass
class FederationScenario:
    """K provider domains in a delivery chain plus the shared board."""

    providers: tuple[PeeringDomain, ...]
    topology: NetworkTopology
    total_flows: int
    board: RootBoard = field(default_factory=RootBoard)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(domain.name for domain in self.providers)

    def domain(self, name: str) -> PeeringDomain:
        for domain in self.providers:
            if domain.name == name:
                return domain
        raise ConfigurationError(f"no provider named {name!r}; providers: {list(self.names)}")

    def aggregate_and_publish(self) -> None:
        """Prove every pending window in every domain, publish roots.

        Each provider aggregates with its *own* prover over its own
        store — cross-domain work only ever exchanges receipts.  A
        provider with a quarantined window raises
        :class:`~repro.errors.ProofError` naming it rather than publish
        a root over partial state.
        """
        for domain in self.providers:
            domain.aggregate_all()
            chain = domain.prover.chain
            if not len(chain):
                raise ProofError(f"provider {domain.name!r} has nothing committed to aggregate")
            round_index = len(chain) - 1
            self.board.publish(domain.name, round_index, chain.latest.header.new_root)

    def public_views(self) -> tuple[ProviderPublic, ...]:
        """What each provider publishes for auditing (no records)."""
        return tuple(
            ProviderPublic(
                name=domain.name,
                bulletin=domain.bulletin,
                receipts=tuple(domain.prover.chain.receipts()),
            )
            for domain in self.providers
        )


def provider_name(index: int) -> str:
    """isp-a, isp-b, … isp-z, isp-26, isp-27, …"""
    if index < 26:
        return f"isp-{chr(ord('a') + index)}"
    return f"isp-{index}"


def build_federation_scenario(
    num_providers: int = 3,
    num_flows: int = 120,
    seed: int = 7,
    boundary_loss: float = 0.01,
    num_windows: int = 1,
) -> FederationScenario:
    """A K-domain delivery chain; every flow crosses every boundary.

    Provider ``i`` owns routers ``r{2i+1}`` and ``r{2i+2}``; the link
    between ``r{2i+2}`` and ``r{2i+3}`` is the inter-domain boundary
    carrying ``boundary_loss``.  Flows are forced end-to-end (ingress
    at provider 0, egress at provider K−1) and spread round-robin over
    ``num_windows`` commitment windows.
    """
    if num_providers < 2:
        raise ConfigurationError("a federation needs at least two providers")
    if num_windows < 1:
        raise ConfigurationError("num_windows must be >= 1")
    topology = NetworkTopology()
    router_ids = tuple(f"r{i + 1}" for i in range(2 * num_providers))
    for router_id in router_ids:
        topology.add_router(router_id)
    internal = LinkSpec(latency_us=1_500, jitter_us=150, loss_rate=0.002)
    boundary = LinkSpec(latency_us=4_000, jitter_us=400, loss_rate=boundary_loss)
    for i in range(len(router_ids) - 1):
        # Even index => intra-provider link, odd => boundary link.
        spec = internal if i % 2 == 0 else boundary
        topology.add_link(router_ids[i], router_ids[i + 1], spec)

    domains = tuple(
        PeeringDomain.create(provider_name(i), router_ids[2 * i : 2 * i + 2])
        for i in range(num_providers)
    )
    owner = {router_id: domain for domain in domains for router_id in domain.router_ids}
    generator = TrafficGenerator(topology, TrafficConfig(seed=seed))
    pending: dict[tuple[str, int], list[NetFlowRecord]] = {}
    for flow_index in range(num_flows):
        window = flow_index % num_windows
        flow = generator.generate_flow(now_ms=1_000 + window * 5_000)
        crossing = dataclasses.replace(flow, path=router_ids)
        for record in generator.observe(crossing):
            key = (owner[record.router_id].name, window)
            pending.setdefault(key, []).append(record)
    for domain in domains:
        for window in range(num_windows):
            records = pending.get((domain.name, window), [])
            if records:
                domain.commit_window(window, records)
    return FederationScenario(
        providers=domains,
        topology=topology,
        total_flows=num_flows,
    )
