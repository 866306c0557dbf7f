"""Router topologies for the NetFlow simulator.

A topology is a networkx graph whose nodes are routers and whose edges
carry link properties (propagation latency, jitter, loss rate, capacity).
Flows enter at an ingress router, follow the minimum-latency path, and
are observed by every router along it — which is what makes cross-router
aggregation (summing per-flow counters over routers, §4) meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from ..errors import ConfigurationError


@dataclass(frozen=True)
class RouterInfo:
    """Identity of one router vantage point."""

    router_id: str
    loopback: str
    region: str = "core"


@dataclass(frozen=True)
class LinkSpec:
    """Link properties used by the traffic generator."""

    latency_us: int = 1_000
    jitter_us: int = 100
    loss_rate: float = 0.0
    bandwidth_bps: int = 10_000_000_000

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigurationError(
                f"loss_rate {self.loss_rate} must be in [0, 1)")
        if self.latency_us < 0 or self.jitter_us < 0:
            raise ConfigurationError("latency/jitter must be non-negative")


class NetworkTopology:
    """A set of routers and links with path computation."""

    def __init__(self) -> None:
        self._graph = nx.Graph()
        self._routers: dict[str, RouterInfo] = {}

    # -- construction -----------------------------------------------------------

    def add_router(self, router_id: str, *, region: str = "core",
                   loopback: str | None = None) -> RouterInfo:
        if router_id in self._routers:
            raise ConfigurationError(f"duplicate router {router_id!r}")
        index = len(self._routers) + 1
        info = RouterInfo(
            router_id=router_id,
            loopback=loopback or f"192.0.2.{index}",
            region=region,
        )
        self._routers[router_id] = info
        self._graph.add_node(router_id, info=info)
        return info

    def add_link(self, a: str, b: str,
                 spec: LinkSpec | None = None) -> None:
        for router_id in (a, b):
            if router_id not in self._routers:
                raise ConfigurationError(f"unknown router {router_id!r}")
        spec = spec or LinkSpec()
        self._graph.add_edge(a, b, spec=spec, weight=spec.latency_us)

    # -- inspection --------------------------------------------------------------

    @property
    def graph(self) -> nx.Graph:
        return self._graph

    def routers(self) -> list[RouterInfo]:
        return [self._routers[r] for r in sorted(self._routers)]

    def router_ids(self) -> list[str]:
        return sorted(self._routers)

    def router(self, router_id: str) -> RouterInfo:
        try:
            return self._routers[router_id]
        except KeyError:
            raise ConfigurationError(
                f"unknown router {router_id!r}") from None

    def link(self, a: str, b: str) -> LinkSpec:
        try:
            return self._graph.edges[a, b]["spec"]
        except KeyError:
            raise ConfigurationError(f"no link {a!r}-{b!r}") from None

    def path(self, src: str, dst: str) -> list[str]:
        """Minimum-latency router path from ``src`` to ``dst``."""
        if src == dst:
            return [src]
        try:
            return nx.shortest_path(self._graph, src, dst, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise ConfigurationError(
                f"no path between {src!r} and {dst!r}") from exc

    def path_latency_us(self, path: list[str]) -> int:
        return sum(self.link(a, b).latency_us
                   for a, b in zip(path, path[1:]))

    def path_jitter_us(self, path: list[str]) -> int:
        return sum(self.link(a, b).jitter_us
                   for a, b in zip(path, path[1:]))

    # -- canned topologies ----------------------------------------------------------

    @classmethod
    def linear(cls, num_routers: int,
               spec: LinkSpec | None = None) -> "NetworkTopology":
        """A chain r1 - r2 - ... - rN."""
        if num_routers < 1:
            raise ConfigurationError("need at least one router")
        topo = cls()
        for i in range(1, num_routers + 1):
            topo.add_router(f"r{i}")
        for i in range(1, num_routers):
            topo.add_link(f"r{i}", f"r{i + 1}", spec)
        return topo

    @classmethod
    def paper_eval(cls) -> "NetworkTopology":
        """The §6 evaluation setting: a simplified 4-router topology."""
        spec = LinkSpec(latency_us=2_000, jitter_us=200, loss_rate=0.002)
        return cls.linear(4, spec)
