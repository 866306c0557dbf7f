"""Unit tests for the prover service."""

import pytest

from repro.core.prover_service import ProverService
from repro.errors import MissingCommitment, ProofError

from ..conftest import make_committed_records


@pytest.fixture
def service():
    store, bulletin, _count = make_committed_records(60)
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
        windows = {(w["r"], w["w"])
                   for w in result.journal_header["windows"]}
        assert ("r2", 1) in windows


class TestStreamedWindowsProvenOnce:
    """No call sequence may prove a committed window's records twice:
    a window ingested into the open streamed round is refused on the
    way in again, and ``aggregate_all_committed`` counts it once."""

    RECORDS_PER_WINDOW = 3

    @pytest.fixture
    def stream_service(self):
        from repro.commitments import BulletinBoard, Commitment, \
            window_digest
        from repro.storage import MemoryLogStore
        from ..conftest import make_record
        store, bulletin = MemoryLogStore(), BulletinBoard()
        for window in (0, 1):
            records = [make_record(sport=1000 + 10 * window + i)
                       for i in range(self.RECORDS_PER_WINDOW)]
            store.append_records("r1", window, records)
            bulletin.publish(Commitment(
                router_id="r1", window_index=window,
                digest=window_digest([r.to_bytes() for r in records]),
                record_count=len(records), published_at_ms=5_000))
        service = ProverService(store, bulletin, stream=True)
        yield service
        service.close()

    def test_aggregate_all_committed_counts_ingested_window_once(
            self, stream_service):
        stream_service.ingest_window(0)
        results = stream_service.aggregate_all_committed()
        assert stream_service.pending_windows() == []
        assert stream_service.aggregated_windows == {0, 1}
        assert sum(r.record_count for r in results) \
            == 2 * self.RECORDS_PER_WINDOW
        assert len(stream_service.state) == 2 * self.RECORDS_PER_WINDOW

    def test_aggregate_all_committed_closes_a_fully_ingested_round(
            self, stream_service):
        stream_service.ingest_window(0)
        stream_service.ingest_window(1)
        (result,) = stream_service.aggregate_all_committed()
        assert result.record_count == 2 * self.RECORDS_PER_WINDOW
        assert stream_service.pending_windows() == []
        assert stream_service.stream_status()["open_round"] is None

    @pytest.mark.parametrize("again", [
        lambda service: service.ingest_window(0),
        lambda service: service.aggregate_window(0),
        lambda service: service.aggregate_windows([0, 1]),
        lambda service: service.prove_round(
            [0], service.gather_window(0)),
    ], ids=["ingest_window", "aggregate_window", "aggregate_windows",
            "prove_round"])
    def test_window_in_open_round_is_refused(self, stream_service,
                                             again):
        stream_service.ingest_window(0)
        with pytest.raises(ProofError, match="already ingested"):
            again(stream_service)
        # The refusal left the open round as it was; closing it covers
        # window 0 exactly once.
        assert stream_service.stream_status()["pending_deltas"] == 1
        result = stream_service.close_stream_round()
        assert result.record_count == self.RECORDS_PER_WINDOW
        assert stream_service.pending_windows() == [1]


class TestQueries:
    def test_query_before_aggregation_fails(self, service):
        from repro.errors import ChainError
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
        from repro.errors import ChainError
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
        assert service.status()["cached_queries"] == 2
        assert service.status()["query_cache_max"] == 2
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
