"""Unit tests for topologies."""

import pytest

from repro.errors import ConfigurationError
from repro.netflow.topology import LinkSpec, NetworkTopology


class TestConstruction:
    def test_add_router_and_link(self):
        topo = NetworkTopology()
        topo.add_router("a")
        topo.add_router("b")
        topo.add_link("a", "b", LinkSpec(latency_us=500))
        assert topo.link("a", "b").latency_us == 500
        assert topo.router("a").loopback.startswith("192.0.2.")

    def test_duplicate_router_rejected(self):
        topo = NetworkTopology()
        topo.add_router("a")
        with pytest.raises(ConfigurationError):
            topo.add_router("a")

    def test_link_requires_known_routers(self):
        topo = NetworkTopology()
        topo.add_router("a")
        with pytest.raises(ConfigurationError):
            topo.add_link("a", "ghost")

    def test_unknown_lookups(self):
        topo = NetworkTopology.linear(2)
        with pytest.raises(ConfigurationError):
            topo.router("zzz")
        with pytest.raises(ConfigurationError):
            topo.link("r1", "r1")

    def test_link_spec_validation(self):
        with pytest.raises(ConfigurationError):
            LinkSpec(loss_rate=1.5)
        with pytest.raises(ConfigurationError):
            LinkSpec(latency_us=-1)


class TestPaths:
    def test_linear_path(self):
        topo = NetworkTopology.linear(4)
        assert topo.path("r1", "r4") == ["r1", "r2", "r3", "r4"]
        assert topo.path("r3", "r1") == ["r3", "r2", "r1"]

    def test_self_path(self):
        topo = NetworkTopology.linear(2)
        assert topo.path("r1", "r1") == ["r1"]

    def test_star_paths_go_through_core(self):
        topo = NetworkTopology()
        for router in ("core", "edge1", "edge2"):
            topo.add_router(router)
        topo.add_link("core", "edge1")
        topo.add_link("core", "edge2")
        assert topo.path("edge1", "edge2") == ["edge1", "core", "edge2"]

    def test_mesh_paths_are_direct(self):
        topo = NetworkTopology()
        routers = ["r1", "r2", "r3", "r4"]
        for router in routers:
            topo.add_router(router)
        for index, a in enumerate(routers):
            for b in routers[index + 1:]:
                topo.add_link(a, b)
        assert topo.path("r1", "r3") == ["r1", "r3"]

    def test_min_latency_routing(self):
        topo = NetworkTopology()
        for r in ("a", "b", "c"):
            topo.add_router(r)
        topo.add_link("a", "c", LinkSpec(latency_us=10_000))
        topo.add_link("a", "b", LinkSpec(latency_us=1_000))
        topo.add_link("b", "c", LinkSpec(latency_us=1_000))
        assert topo.path("a", "c") == ["a", "b", "c"]

    def test_disconnected_raises(self):
        topo = NetworkTopology()
        topo.add_router("a")
        topo.add_router("b")
        with pytest.raises(ConfigurationError):
            topo.path("a", "b")

    def test_path_latency_and_jitter(self):
        spec = LinkSpec(latency_us=2_000, jitter_us=100)
        topo = NetworkTopology.linear(3, spec)
        path = topo.path("r1", "r3")
        assert topo.path_latency_us(path) == 4_000
        assert topo.path_jitter_us(path) == 200


class TestCannedTopologies:
    def test_paper_eval_is_four_routers(self):
        topo = NetworkTopology.paper_eval()
        assert len(topo.router_ids()) == 4

    def test_minimum_sizes(self):
        with pytest.raises(ConfigurationError):
            NetworkTopology.linear(0)

    def test_router_ids_sorted(self):
        topo = NetworkTopology.linear(12)
        assert topo.router_ids() == sorted(topo.router_ids())
