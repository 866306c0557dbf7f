"""Unit tests for the prover service."""

import pytest

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.prover_service import ProverService
from repro.errors import (
    ChainError,
    ConfigurationError,
    MissingCommitment,
    ProofError,
)
from repro.storage import MemoryLogStore
from repro.zkvm.costmodel import CostModel

from ..conftest import make_committed_records, make_record


@pytest.fixture
def service():
    store, bulletin, _count = make_committed_records(60)
    return ProverService(store, bulletin)


def commit(store, bulletin, window, n=2):
    records = [make_record(sport=1000 + window * 10 + i)
               for i in range(n)]
    store.append_records("r1", window, records)
    bulletin.publish(Commitment(
        "r1", window, window_digest([r.to_bytes() for r in records]),
        n, window * 5_000))


@pytest.fixture
def fresh():
    store, bulletin = MemoryLogStore(), BulletinBoard()
    return store, bulletin, ProverService(store, bulletin)


def four_windows() -> ProverService:
    """Four committed windows over two routers whose flows recur
    across windows, so later rounds update earlier rounds' entries."""
    store, bulletin = MemoryLogStore(), BulletinBoard()
    for window in range(4):
        for router in ("r1", "r2"):
            records = [make_record(router_id=router,
                                   sport=1000 + (window + j) % 5,
                                   packets=10 + window + j)
                       for j in range(3)]
            store.append_records(router, window, records)
            bulletin.publish(Commitment(
                router, window,
                window_digest([r.to_bytes() for r in records]),
                len(records), window * 5_000))
    return ProverService(store, bulletin)


class TestAggregation:
    def test_aggregate_window_advances_state(self, service):
        result = service.aggregate_window(0)
        assert result.round == 0
        assert len(service.state) > 0
        assert len(service.chain) == 1
        assert service.state.root == result.new_root
        assert service.last_prove_info is not None

    def test_double_aggregation_rejected(self, service):
        service.aggregate_window(0)
        with pytest.raises(ProofError, match="already aggregated"):
            service.aggregate_window(0)

    def test_missing_window_raises(self, service):
        with pytest.raises(MissingCommitment):
            service.aggregate_window(99)

    def test_uncommitted_data_never_aggregated(self, service):
        """Rows present in the store but not on the bulletin must not
        enter a round."""
        service.store.append_records(
            "r1", 7, [])  # no-op window; now add real rows
        from ..conftest import make_record
        service.store.append_records("r1", 7, [make_record()])
        with pytest.raises(MissingCommitment):
            service.aggregate_window(7)

    def test_aggregate_all_committed(self):
        store, bulletin, _ = make_committed_records(40, window_index=0)
        # Add a second committed window.
        from repro.commitments import Commitment, window_digest
        from ..conftest import make_record
        extra = [make_record(router_id="r1", sport=4000 + i)
                 for i in range(3)]
        store.append_records("r1", 1, extra)
        bulletin.publish(Commitment(
            router_id="r1", window_index=1,
            digest=window_digest([r.to_bytes() for r in extra]),
            record_count=3, published_at_ms=10_000))
        service = ProverService(store, bulletin)
        results = service.aggregate_all_committed()
        assert [r.round for r in results] == [0, 1]
        assert len(service.chain) == 2
        # Re-running is a no-op.
        assert service.aggregate_all_committed() == []

    def test_multi_window_single_round(self):
        store, bulletin, _ = make_committed_records(40, window_index=0)
        from repro.commitments import Commitment, window_digest
        from ..conftest import make_record
        extra = [make_record(router_id="r2", sport=5000)]
        store.append_records("r2", 1, extra)
        bulletin.publish(Commitment(
            router_id="r2", window_index=1,
            digest=window_digest([r.to_bytes() for r in extra]),
            record_count=1, published_at_ms=10_000))
        service = ProverService(store, bulletin)
        result = service.aggregate_windows([0, 1])
        assert result.round == 0
        windows = set(result.header.consumed)
        assert ("r2", 1) in windows


class TestDrain:
    """The strict drain, ``aggregate_all_committed``: one round per
    pending window, in commit order."""

    def test_drain_consumes_everything(self, fresh):
        store, bulletin, service = fresh
        for window in range(5):
            commit(store, bulletin, window)
        rounds = service.aggregate_all_committed()
        assert [r.windows for r in rounds] == [{w} for w in range(5)]
        assert service.pending_windows() == []
        assert len(service.chain) == 5

    def test_drain_idempotent(self, fresh):
        store, bulletin, service = fresh
        commit(store, bulletin, 0)
        assert len(service.aggregate_all_committed()) == 1
        assert service.aggregate_all_committed() == []


class TestStatusPendingWindows:
    """Regression: ``ProverService.status()`` must surface the backlog.

    Health tooling watches status() to tell a prover that is catching
    up from one that stalled; before ``pending_windows`` was added,
    committed-but-unproven windows were invisible there — both cases
    reported the same body.
    """

    def test_status_lists_committed_but_unproven_windows(self, fresh):
        store, bulletin, service = fresh
        assert service.status()["pending_windows"] == []
        commit(store, bulletin, 0)
        commit(store, bulletin, 1)
        commit(store, bulletin, 2)
        assert service.status()["pending_windows"] == [0, 1, 2]
        service.aggregate_window(1)
        status = service.status()
        assert status["pending_windows"] == [0, 2]
        assert status["aggregated_windows"] == [1]
        service.aggregate_windows([0, 2])
        assert service.status()["pending_windows"] == []


class TestRoundWindowList:
    """A round's window list must name each window once and at least
    one window; anything else is refused before any proving, and the
    chain is left exactly as it was."""

    def test_repeated_window_refused(self, fresh):
        store, bulletin, service = fresh
        for window in (0, 1):
            commit(store, bulletin, window)
        service.aggregate_window(0)
        root, rounds = service.state.root, len(service.chain)
        with pytest.raises(ChainError, match="more than once"):
            service.aggregate_windows([1, 1])
        assert (service.state.root, len(service.chain)) == (root, rounds)
        assert service.aggregated_windows == {0}
        assert service.pending_windows() == [1]
        # The refused list cost nothing: the honest round still proves.
        assert service.aggregate_windows([1]).record_count == 2

    def test_repeated_inputs_refused_by_prove_round(self, fresh):
        store, bulletin, service = fresh
        commit(store, bulletin, 0)
        inputs = service.gather_window(0)
        with pytest.raises(ChainError, match="more than once"):
            service.prove_round([0], inputs + inputs)
        assert len(service.chain) == 0
        assert service.aggregated_windows == frozenset()

    def test_empty_list_refused(self, fresh):
        store, bulletin, service = fresh
        commit(store, bulletin, 0)
        with pytest.raises(ConfigurationError, match="no windows"):
            service.aggregate_windows([])
        assert len(service.chain) == 0
        assert service.last_prove_info is None
        assert service.pending_windows() == [0]


class TestBatchingIsAWindowList:
    """A batched round is an explicit window list: one round over four
    windows commits what four one-window rounds commit, for less
    modeled proving time (one fixed overhead instead of four)."""

    def test_one_round_equals_four_rounds_for_less(self):
        model = CostModel()
        batched = four_windows()
        batch = batched.aggregate_windows([0, 1, 2, 3])
        single = four_windows()
        rounds = [single.aggregate_window(w) for w in range(4)]
        assert batch.windows == {0, 1, 2, 3}
        assert len(batched.chain) == 1 and len(single.chain) == 4
        assert batched.state.root == single.state.root
        assert list(batched.state.entries_in_slot_order()) \
            == list(single.state.entries_in_slot_order())
        assert batch.record_count == sum(r.record_count for r in rounds)
        assert model.prove_seconds(batch.info.stats) \
            < sum(model.prove_seconds(r.info.stats) for r in rounds)


class TestQuarantine:
    """One tampered window is quarantined by the service and every
    later window still proves."""

    @pytest.fixture
    def poisoned(self):
        from repro.commitments import BulletinBoard, Commitment, \
            window_digest
        from repro.storage import MemoryLogStore
        from ..conftest import make_record
        store, bulletin = MemoryLogStore(), BulletinBoard()
        store.append_records("r1", 0, [make_record(sport=1)])
        bulletin.publish(Commitment(
            "r1", 0, window_digest([b"tampered"]), 1, 0))
        for window in (1, 2):
            records = [make_record(sport=100 + window)]
            store.append_records("r1", window, records)
            bulletin.publish(Commitment(
                "r1", window,
                window_digest([r.to_bytes() for r in records]),
                1, window * 5_000))
        return ProverService(store, bulletin)

    def test_aggregate_all_committed_skips_the_poisoned_window(
            self, poisoned):
        results = poisoned.aggregate_all_committed()
        assert [r.windows for r in results] == [{1}, {2}]
        assert list(poisoned.quarantined) == [0]
        assert "commitment mismatch" in poisoned.quarantined[0]
        assert poisoned.pending_windows() == []
        (entry,) = poisoned.status()["quarantined"]
        assert entry == {"window": 0,
                         "reason": poisoned.quarantined[0]}
        assert poisoned.aggregate_all_committed() == []

    def test_explicit_round_still_aborts(self, poisoned):
        from repro.errors import GuestAbort
        with pytest.raises(GuestAbort):
            poisoned.aggregate_window(0)
        assert list(poisoned.quarantined) == [0]
        with pytest.raises(GuestAbort):
            poisoned.aggregate_window(0)
        assert len(poisoned.chain) == 0

    def test_batched_abort_quarantines_nothing(self, poisoned):
        from repro.errors import GuestAbort
        with pytest.raises(GuestAbort):
            poisoned.aggregate_windows([0, 1])
        assert poisoned.quarantined == {}

    def test_proven_round_clears_the_entry(self, poisoned):
        poisoned.quarantine(1, "held by the operator")
        assert poisoned.pending_windows() == [0, 2]
        poisoned.aggregate_window(1)
        assert poisoned.quarantined == {}

    def test_other_errors_propagate_unquarantined(self, poisoned):
        from repro.errors import StorageError
        from repro.faults import FaultInjector, FaultPlan, inject_faults
        inject_faults(poisoned, FaultInjector(FaultPlan.parse(
            "store.window_blobs:storage:count=1")))
        with pytest.raises(StorageError):
            poisoned.aggregate_all_committed()
        assert poisoned.quarantined == {}


class TestQueries:
    def test_query_before_aggregation_fails(self, service):
        with pytest.raises(ChainError):
            service.answer_query("SELECT COUNT(*) FROM clogs")

    def test_query_counts_entries(self, service):
        service.aggregate_window(0)
        response = service.answer_query("SELECT COUNT(*) FROM clogs")
        assert response.value() == len(service.state)
        assert response.scanned == len(service.state)
        assert response.round == 0
        assert response.root == service.state.root

    def test_query_matches_host_evaluation(self, service):
        service.aggregate_window(0)
        sql = "SELECT SUM(lost_packets), MAX(hop_count) FROM clogs"
        response = service.answer_query(sql)
        from repro.query import evaluate, parse_query
        expected = evaluate(parse_query(sql), service.state.entry_views())
        assert response.values == expected.values

    def test_query_cache_returns_identical_response(self, service):
        service.aggregate_window(0)
        sql = "SELECT COUNT(*) FROM clogs"
        first = service.answer_query(sql)
        prove_info = service.last_prove_info
        second = service.answer_query(sql)
        assert second is first  # cache hit, no new proving
        assert service.last_prove_info is prove_info
        fresh = service.answer_query(sql, use_cache=False)
        assert fresh is not first
        assert fresh.receipt.claim_digest == first.receipt.claim_digest

    def test_paper_example_query_shape(self, service):
        service.aggregate_window(0)
        response = service.answer_query(
            'SELECT SUM(hop_count) FROM clogs '
            'WHERE src_ip = "1.1.1.1" AND dst_ip = "9.9.9.9"')
        # No such flow in generated traffic: SUM over empty set.
        assert response.value() is None
        assert response.matched == 0

    def test_empty_chain_error_is_descriptive(self, service):
        with pytest.raises(ChainError, match="aggregate_windows"):
            service.answer_query("SELECT COUNT(*) FROM clogs")

    def test_out_of_range_round_rejected(self, service):
        service.aggregate_window(0)
        with pytest.raises(ProofError, match="round"):
            service.answer_query("SELECT COUNT(*) FROM clogs",
                                 round_index=5)

    def test_query_cache_is_lru_bounded(self):
        from repro.errors import ConfigurationError
        store, bulletin, _ = make_committed_records(30)
        service = ProverService(store, bulletin, query_cache_size=2)
        service.aggregate_window(0)
        q1 = "SELECT COUNT(*) FROM clogs"
        q2 = "SELECT SUM(octets) FROM clogs"
        q3 = "SELECT MAX(hop_count) FROM clogs"
        first = service.answer_query(q1)
        service.answer_query(q2)
        # Touch q1 so q2 becomes the least recently used...
        assert service.answer_query(q1) is first
        service.answer_query(q3)  # ...and is evicted here.
        assert service.status()["query_cache"]["memory_entries"] == 2
        assert service.status()["query_cache"]["memory_max"] == 2
        assert service.answer_query(q1) is first       # survived
        assert service.answer_query(q2) is not None    # re-proved
        with pytest.raises(ConfigurationError):
            ProverService(store, bulletin, query_cache_size=0)

    def test_stale_round_is_a_cache_miss(self):
        """Regression: the cache key must include the committed root.

        Two chains can hold the *same round index* over *different
        data* (a restore onto a diverged chain, or any path that
        rebuilds state without renumbering rounds).  A cache keyed on
        (sql, round) alone would replay the other chain's response —
        a receipt binding a root the service no longer commits.  We
        replay that stale-round scenario literally: seed one service's
        cache into another whose round 0 committed a different root,
        and the lookup must miss.
        """
        sql = "SELECT COUNT(*) FROM clogs"
        store_a, bulletin_a, _ = make_committed_records(30, seed=1)
        service_a = ProverService(store_a, bulletin_a)
        service_a.aggregate_window(0)
        stale = service_a.answer_query(sql)

        store_b, bulletin_b, _ = make_committed_records(40, seed=2)
        service_b = ProverService(store_b, bulletin_b)
        service_b.aggregate_window(0)
        assert service_b.state.root != service_a.state.root
        # Same sql, same round index, diverged root: under the old
        # (sql, round) key this seeding would collide.
        service_b.query_cache.put(stale)
        fresh = service_b.answer_query(sql)
        assert fresh is not stale
        assert fresh.root == service_b.state.root
        assert fresh.scanned == len(service_b.state)

    def test_cache_key_carries_round_and_root(self):
        from repro.qserve.cache import result_cache_key
        store, bulletin, _ = make_committed_records(30)
        service = ProverService(store, bulletin)
        service.aggregate_window(0)
        sql = "SELECT COUNT(*) FROM clogs"
        response = service.answer_query(sql)
        # The key is derived from the response's own committed
        # identity; a different round or root addresses a different
        # entry.
        hit = service.query_cache.get(sql, 0, service.state.root)
        assert hit is response
        key = result_cache_key(sql, 0, service.state.root)
        assert key != result_cache_key(sql, 1, service.state.root)
        assert key != result_cache_key(sql + " ", 0, service.state.root)
