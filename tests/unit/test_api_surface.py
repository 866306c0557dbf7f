"""Gap-filling tests for small public API surfaces."""

import inspect

import pytest

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
        assert session.cycles_in("custom-work") == 123
        assert session.cycles_in("nonexistent") == 0


class TestTopologySurface:
    def test_graph_property_exposes_networkx(self):
        import networkx as nx
        from repro.netflow.topology import NetworkTopology
        topo = NetworkTopology.linear(3)
        assert isinstance(topo.graph, nx.Graph)
        assert set(topo.graph.nodes) == {"r1", "r2", "r3"}


class TestTransparencySurface:
    def test_claim_at(self, aggregated_system):
        from repro.core.transparency import ReceiptTransparencyLog
        from repro.errors import ChainError
        log = ReceiptTransparencyLog()
        receipts = aggregated_system.prover.chain.receipts()
        for receipt in receipts:
            log.append(receipt)
        assert log.claim_at(0) == receipts[0].claim.digest()
        with pytest.raises(ChainError):
            log.claim_at(len(receipts))


class TestDaemonSurface:
    def test_oldest_lag_tracks_clock(self):
        from repro.commitments import (BulletinBoard, Commitment,
                                       window_digest)
        from repro.core.daemon import AggregationDaemon
        from repro.core.prover_service import ProverService
        from repro.netflow.clock import SimClock
        from repro.storage import MemoryLogStore
        from ..conftest import make_record
        store = MemoryLogStore()
        bulletin = BulletinBoard()
        records = [make_record()]
        store.append_records("r1", 0, records)
        bulletin.publish(Commitment(
            "r1", 0, window_digest([r.to_bytes() for r in records]),
            1, 0))
        clock = SimClock()
        daemon = AggregationDaemon(ProverService(store, bulletin),
                                   clock)
        assert daemon.oldest_lag_ms() == 0
        daemon.pending_windows()  # first sighting at t=0
        clock.advance_ms(700)
        assert daemon.oldest_lag_ms() == 700


class TestSignedBaselineSurface:
    def test_register_router_idempotent(self):
        from repro.baselines import SignedLogBaseline
        baseline = SignedLogBaseline()
        baseline.register_router("r1")
        key_before = baseline._keys["r1"]
        baseline.register_router("r1")
        assert baseline._keys["r1"] == key_before


class TestEvaluatePredicateSurface:
    def test_none_predicate_matches_everything(self):
        from repro.query.evaluator import evaluate_predicate
        assert evaluate_predicate(None, {"anything": 1})

    def test_predicate_from_wire_none(self):
        from repro.query.ast import predicate_from_wire
        assert predicate_from_wire(None) is None

    def test_unknown_wire_kind(self):
        from repro.errors import QueryError
        from repro.query.ast import predicate_from_wire
        with pytest.raises(QueryError):
            predicate_from_wire({"kind": "mystery"})


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
