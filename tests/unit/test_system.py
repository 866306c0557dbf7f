"""Unit tests for the system wiring and package surface."""

import pytest

import repro
from repro.core.system import SystemConfig, TelemetrySystem, \
    build_paper_eval_system
from repro.errors import StorageError
from repro.netflow.topology import NetworkTopology


class TestSystemConfig:
    def test_defaults_match_paper(self):
        config = SystemConfig()
        assert config.num_routers == 4
        assert config.commit_interval_ms == 5_000

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            TelemetrySystem(SystemConfig(backend="postgres"))

    def test_backends_construct(self):
        for backend in ("memory", "sqlite"):
            system = TelemetrySystem(SystemConfig(backend=backend))
            system.close()


class TestTelemetrySystem:
    def test_custom_topology_flows_through(self):
        system = TelemetrySystem(
            SystemConfig(flows_per_tick=3),
            topology=NetworkTopology.linear(2))
        system.generate(30)
        assert set(system.store.router_ids()) <= {"r1", "r2"}

    def test_generate_then_aggregate_then_query(self):
        system = build_paper_eval_system(target_records=60,
                                         flows_per_tick=5)
        rounds = system.aggregate_all()
        assert rounds >= 1
        response, verified = system.query(
            "SELECT COUNT(*) FROM clogs")
        assert response.values == verified.values

    def test_seed_determinism(self):
        def root(seed):
            system = build_paper_eval_system(target_records=60,
                                             seed=seed,
                                             flows_per_tick=5)
            system.aggregate_all()
            return system.prover.state.root
        assert root(5) == root(5)
        assert root(5) != root(6)

    def test_memory_and_sqlite_reach_one_root(self):
        """The §6 claim: both backends publish one bulletin, in one
        order, and commit the same CLog root."""
        runs = []
        for backend in ("memory", "sqlite"):
            system = TelemetrySystem(SystemConfig(
                seed=7, flows_per_tick=10, backend=backend))
            system.generate(120)
            assert system.aggregate_all() >= 1
            runs.append(([c.to_wire() for c in system.bulletin],
                         system.prover.state.root))
            system.close()
        assert runs[0] == runs[1]

    def test_store_failure_reaches_the_caller(self):
        system = TelemetrySystem(SystemConfig(flows_per_tick=5))

        def fail(*_args):
            raise StorageError("disk full")

        system.store.append_records = fail
        with pytest.raises(StorageError, match="disk full"):
            system.generate(100)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_public_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_core_exports_resolve(self):
        import repro.core
        for name in repro.core.__all__:
            assert getattr(repro.core, name) is not None

    def test_subpackage_exports_resolve(self):
        import repro.commitments
        import repro.merkle
        import repro.netflow
        import repro.query
        import repro.sketch
        import repro.storage
        import repro.zkvm
        for module in (repro.merkle, repro.netflow, repro.query,
                       repro.sketch, repro.storage, repro.zkvm,
                       repro.commitments):
            for name in module.__all__:
                assert getattr(module, name) is not None
