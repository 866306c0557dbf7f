"""Gap-filling tests for small public API surfaces."""

import importlib
import inspect
import pkgutil
import typing

from repro.hashing import sha256


class TestMerkleMapSurface:
    def test_leaf_digest_matches_tree(self):
        from repro.merkle import MerkleMap
        m = MerkleMap()
        m.set("a", b"1")
        m.set("b", b"2")
        assert m.leaf_digest("a") == m.tree.leaf(m.index_of("a"))
        assert m.leaf_digest("a") == m.expected_leaf("a", b"1")


class TestSessionSurface:
    def test_cycles_in_category(self):
        from repro.zkvm import ExecutorEnvBuilder, Executor, \
            guest_program

        @guest_program("category-probe")
        def probe(env):
            env.tick(123, "custom-work")
            env.commit(1)

        session = Executor().execute(probe,
                                     ExecutorEnvBuilder().build())
        assert session.cycle_breakdown["custom-work"] == 123
        assert "nonexistent" not in session.cycle_breakdown


class TestTopologySurface:
    def test_graph_property_exposes_networkx(self):
        import networkx as nx
        from repro.netflow.topology import NetworkTopology
        topo = NetworkTopology.linear(3)
        assert isinstance(topo.graph, nx.Graph)
        assert set(topo.graph.nodes) == {"r1", "r2", "r3"}


class TestSignedBaselineSurface:
    def test_register_router_idempotent(self):
        import pathlib
        import sys

        benchmarks_dir = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
        sys.path.insert(0, str(benchmarks_dir))
        try:
            from baselines import SignedLogBaseline
        finally:
            sys.path.pop(0)
        baseline = SignedLogBaseline()
        baseline.register_router("r1")
        key_before = baseline._keys["r1"]
        baseline.register_router("r1")
        assert baseline._keys["r1"] == key_before


class TestEvaluatePredicateSurface:
    def test_none_predicate_matches_everything(self):
        from repro.query.evaluator import evaluate_predicate
        assert evaluate_predicate(None, {"anything": 1})


class TestReceiptBindings:
    def test_bindings_are_domain_separated(self):
        from repro.zkvm.receipt import (groth16_binding,
                                        succinct_binding)
        claim = sha256(b"claim")
        assert groth16_binding(claim) != succinct_binding(claim)

    def test_expand_seal_deterministic_prefix(self):
        from repro.zkvm.receipt import expand_seal
        binding = sha256(b"b")
        assert expand_seal(binding, 64) == expand_seal(binding, 256)[:64]
        assert len(expand_seal(binding, 100)) == 100


class TestLedgerSeams:
    """The public names ``benchmarks/ledger`` hangs its probes on.

    The ledger is the fixed judge and cannot be edited by the PR it
    judges, so a rename here nulls a probe silently — or, for
    ``repro.hotpath``, fails every run outright.  Each seam is checked
    the way the ledger calls it.
    """

    @staticmethod
    def _accepts(fn, *names):
        parameters = inspect.signature(fn).parameters
        return all(name in parameters for name in names)

    def test_environment_report(self):
        import repro.hotpath
        import repro.obs.runtime
        assert repro.hotpath.enabled() is True
        assert isinstance(repro.obs.runtime.is_enabled(), bool)

    def test_prover_injection_seams(self):
        from repro.core.aggregation import Aggregator
        from repro.core.query_proof import QueryProver
        from repro.zkvm import Prover
        assert self._accepts(Aggregator, "policy", "prover")
        assert self._accepts(QueryProver, "prover")
        assert self._accepts(Prover, "opts", "executor")

    def test_engine_job_seams(self):
        from repro.engine.jobs import encode_job, execute_job
        assert self._accepts(execute_job, "job")
        assert self._accepts(encode_job, "job", "capture_obs")

    def test_round_host_seams(self):
        from repro.core.clog import CLogState
        from repro.core.witness import build_witness
        assert list(inspect.signature(CLogState.clone).parameters) \
            == ["self"]
        assert list(inspect.signature(build_witness).parameters) \
            == ["state", "records", "policy"]  # called positionally

    def test_codec_and_memo_seams(self):
        from repro.merkle.memo import memo_stats
        from repro.serialization import (decode, decode_receipt,
                                         encode_receipt)
        assert self._accepts(decode, "data")
        assert self._accepts(decode_receipt, "data")
        assert self._accepts(encode_receipt, "receipt")
        stats = memo_stats()
        assert set(stats) == {"node", "leaf"}
        for counters in stats.values():
            assert {"size", "hits", "misses"} <= set(counters)

    def test_service_seams(self):
        from repro.commitments import BulletinBoard
        from repro.core.prover_service import ProverService
        from repro.storage import MemoryLogStore
        assert self._accepts(ProverService, "store", "bulletin",
                             "auto_checkpoint")
        # called positionally: gather_window(w), prove_round([w], inputs)
        assert list(inspect.signature(ProverService.gather_window)
                    .parameters)[:2] == ["self", "window_index"]
        assert list(inspect.signature(ProverService.prove_round)
                    .parameters) == ["self", "window_indices", "inputs"]
        assert self._accepts(ProverService.aggregate_window,
                             "window_index")
        assert self._accepts(ProverService.answer_query, "sql")
        service = ProverService(MemoryLogStore(), BulletinBoard(),
                                auto_checkpoint=True)
        assert service.engine is None
        stats = service.query_cache.stats()
        assert {"hit_rate", "evictions"} <= set(stats)

    def test_engine_seams(self):
        from repro.engine import ProvingEngine, ReceiptCache
        assert self._accepts(ProvingEngine, "backend", "max_workers",
                             "cache")
        assert list(inspect.signature(ProvingEngine.prove_round)
                    .parameters)[:3] == ["self", "windows",
                                         "num_partitions"]
        with ProvingEngine(backend="process", max_workers=2,
                           cache=ReceiptCache()) as engine:
            assert (engine.pool.backend, engine.pool.max_workers) == \
                ("process", 2)
            snapshot = engine.snapshot()
        assert "hit_rate" in snapshot["cache"]
        assert "jobs_failed" in snapshot

    def test_serving_seams(self):
        from repro.net import ProverServer
        from repro.qserve import QueryService
        assert self._accepts(QueryService, "service", "max_inflight")
        assert self._accepts(ProverServer, "service", "qserve")

    def test_wire_client_seams(self):
        """The served workloads: routers publish and run a round over
        the wire, then ``QueryClient(host, port)`` queries — whole
        board and chain with no arguments, ``verified_query`` a pair."""
        from repro.commitments import BulletinBoard
        from repro.core.prover_service import ProverService
        from repro.net import ProverServer, QueryClient, RouterClient
        from ..conftest import make_committed_records
        assert list(inspect.signature(QueryClient).parameters)[:2] \
            == ["host", "port"]  # called positionally
        assert self._accepts(QueryClient.query, "sql")
        assert self._accepts(RouterClient.publish_all, "commitments")
        assert self._accepts(RouterClient.run_round, "windows")
        store, routers_board, _count = make_committed_records(40)
        service = ProverService(store, BulletinBoard())
        server = ProverServer(service)
        assert server.start_background() is server
        try:
            router = RouterClient(server.host, server.port)
            client = QueryClient(server.host, server.port)
            with router, client:
                assert router.publish_all(routers_board) == 4
                assert [r["round"] for r in router.run_round([0])] == [0]
                sql = "SELECT COUNT(*) FROM clogs"
                assert client.query(sql).round == 0
                board = client.fetch_bulletin()
                assert list(board) == list(routers_board)
                chain = client.fetch_receipt_chain()
                assert [r.claim.digest() for r in chain] == [
                    r.claim.digest() for r in service.chain.receipts()]
                pair = client.verified_query(sql)
                assert isinstance(pair, tuple) and len(pair) == 2
                assert pair[1].values == pair[0].values
        finally:
            server.stop_background()


def _annotated_objects():
    """Every class and function a ``repro`` module defines, with the
    methods (static, class and property accessors too) of each class."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != info.name:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                yield obj
                for member in vars(obj).values():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        yield member


class TestAnnotationsResolve:
    def test_every_annotation_resolves(self):
        """A name used in an annotation but never imported (or one that
        exists only in type stubs) raises the moment anything
        introspects the hints."""
        unresolved = []
        for obj in _annotated_objects():
            try:
                typing.get_type_hints(obj)
            except (NameError, AttributeError) as exc:
                unresolved.append(f"{obj.__module__}.{obj.__qualname__}: {exc}")
        assert unresolved == []
