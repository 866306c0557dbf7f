"""Property tests for partitioned query proving.

Two invariants:

* **Strategy equivalence** — for any query in the grammar, any
  partition count and any batch it shares a scan with, the fan-out
  commits a journal *byte-identical* to the serial full scan's (so
  receipts are interchangeable, caches agree, and clients cannot tell
  the strategies apart — nor how many strangers shared their scan).
  Float aggregates make this non-trivial: partial sums fold in subtree
  order, so the accumulators carry exact dyadic rationals and round to
  a float only once, at merge.  The monolithic ``query_guest`` is the
  oracle throughout.
* **Planner self-consistency** — a cost estimate's segment figures
  come from the executor's segment walk, and ``seconds()`` prices them
  with the cost model's one formula; no separately computed field can
  disagree with them.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.planner import QueryCostEstimate, partition_layout
from repro.core.prover_service import ProverService
from repro.core.query_proof import QueryProver
from repro.core.verifier_client import VerifierClient
from repro.engine import ProvingEngine
from repro.zkvm import ProverOpts
from repro.zkvm import cycles as cy
from repro.zkvm.costmodel import CostModel

from ..conftest import make_committed_records

# Queries chosen to cross every merge shape: plain counts, int and
# float folds, AVG (fraction totals), and grouped variants over both
# low- and high-cardinality keys.
QUERIES = [
    "SELECT COUNT(*) FROM clogs",
    "SELECT SUM(octets), MIN(packets), MAX(packets) FROM clogs",
    "SELECT AVG(rtt_avg_us), SUM(loss_rate) FROM clogs",
    "SELECT COUNT(*), AVG(jitter_avg_us) FROM clogs "
    "WHERE packets > 50 OR lost_packets > 0",
    "SELECT SUM(octets), AVG(rtt_avg_us) FROM clogs "
    "GROUP BY src_net16",
    "SELECT COUNT(*), SUM(throughput_bps) FROM clogs "
    "GROUP BY src_port",
]


BATCH_SIZES = (1, 2, 5)
PARTITION_COUNTS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def proven():
    store, bulletin, _ = make_committed_records(70, seed=31)
    service = ProverService(store, bulletin)
    service.aggregate_window(0)
    engine = ProvingEngine(prover_opts=ProverOpts.groth16(),
                           backend="thread", max_workers=2)
    receipt = service.chain.latest.receipt
    oracle = {sql: QueryProver().prove_query(sql, service.state,
                                             receipt)[0]
              for sql in QUERIES}
    client = VerifierClient(bulletin)
    (round_view,) = client.verify_chain(service.chain.receipts())
    yield service, engine, oracle, client, round_view
    engine.close()


class TestStrategyEquivalence:
    @given(order=st.permutations(QUERIES),
           partitions=st.sampled_from(PARTITION_COUNTS))
    @example(order=QUERIES, partitions=1)
    @example(order=QUERIES, partitions=2)
    @example(order=QUERIES, partitions=4)
    @example(order=QUERIES, partitions=8)
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[
                  HealthCheck.function_scoped_fixture,
                  HealthCheck.too_slow])
    def test_partitioned_journal_is_byte_identical(self, proven, order,
                                                   partitions):
        """Every query, at batch sizes 1, 2 and 5, in whatever company
        the shuffle puts it: the journal is the oracle's, the receipt
        stands alone, and the unchanged client accepts it.  (Cutting
        one workload into batches differently is this same property —
        batch membership never reaches a receipt.)"""
        service, engine, oracle, client, round_view = proven
        receipt = service.chain.latest.receipt
        prover = QueryProver(engine=engine)
        count = partition_layout(len(service.state), partitions)[1]
        for size in BATCH_SIZES:
            for start in range(0, len(order), size):
                batch = list(order[start:start + size])
                outcomes = prover.prove_queries_partitioned(
                    batch, service.state, receipt, partitions)
                assert len(outcomes) == len(batch)
                for sql, (response, info) in zip(batch, outcomes):
                    assert response.sql == sql
                    assert response.receipt.journal.data == \
                        oracle[sql].receipt.journal.data
                    # Fully resolved: the receipt stands alone.
                    assert not response.receipt.claim.assumptions
                    assert info.num_partitions == count
                    verified = client.verify_query(response, round_view)
                    assert verified.values == oracle[sql].values


class TestPlannerSelfConsistency:
    @given(total=st.one_of(
        st.integers(min_value=0, max_value=1 << 26),
        # Dense coverage right at segment boundaries.
        st.integers(min_value=-3, max_value=3).map(
            lambda d: max(0, (1 << 20) + d)),
        st.integers(min_value=-3, max_value=3).map(
            lambda d: max(0, 5 * (1 << 20) + d)),
    ))
    @settings(max_examples=200, deadline=None)
    def test_single_segmentation_source(self, total):
        walk = cy.segments(total)
        sizes = [count for count, _po2 in walk]
        # The walk agrees with the closed-form segment count ...
        assert len(walk) == -(-max(total, 1) // cy.SEGMENT_CYCLE_LIMIT)
        assert sum(sizes) == max(total, 1)
        assert all(0 < s <= cy.SEGMENT_CYCLE_LIMIT for s in sizes)
        # ... an estimate's segment figures are that walk's, and
        # seconds() prices them through the cost model.
        model = CostModel()
        estimate = QueryCostEstimate(
            sql="q", entries=1, total_cycles=total, sha_compressions=0)
        assert estimate.segment_count == len(walk)
        assert estimate.padded_cycles == sum(1 << po2 for _, po2 in walk)
        expected = sum(
            (1 << max(cy.SEGMENT_MIN_PO2, (s - 1).bit_length()))
            for s in sizes) / model.cpu_cycles_per_second \
            + len(sizes) * model.segment_overhead + model.base_overhead
        assert estimate.seconds(model) == pytest.approx(expected)
