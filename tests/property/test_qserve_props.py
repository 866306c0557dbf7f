"""Property tests for the multi-tenant query-serving layer's cache.

**Cache round-trip** — a persistent-tier hit decodes to the exact
receipt bytes that were stored, under arbitrary store/reload
orderings; any corruption of the stored blob degrades to a miss
(re-prove), never to a wrong or undecodable answer.

(Batch transparency — a batched query's journal is byte-identical to
the serial full scan's whatever batch it rode in — is the fan-out's
own property and lives in ``test_query_parallel_props.py``.)
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.prover_service import ProverService
from repro.core.query_proof import QueryProver
from repro.qserve import QueryResultCache, result_cache_key
from repro.serialization import encode_query_response
from repro.storage import MemoryLogStore

from ..conftest import make_committed_records

# One response per merge shape: plain counts, int and float folds, AVG
# fractions, filters, and grouped variants over low- and
# high-cardinality keys.
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


@pytest.fixture(scope="module")
def responses():
    store, bulletin, _ = make_committed_records(60, seed=23)
    service = ProverService(store, bulletin)
    service.aggregate_window(0)
    return [QueryProver().prove_query(
                sql, service.state, service.chain.latest.receipt)[0]
            for sql in QUERIES]


class TestCacheRoundTrip:
    @given(order=st.permutations(range(len(QUERIES))))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[
                  HealthCheck.function_scoped_fixture])
    def test_persistent_hits_are_byte_identical(self, responses,
                                                order):
        store = MemoryLogStore()
        warm = QueryResultCache(store=store, memory_entries=2)
        for index in order:
            warm.put(responses[index])
        # A cold cache over the same store: every lookup is a
        # persistent hit with the original receipt bytes, regardless
        # of insertion order or memory-tier evictions.
        cold = QueryResultCache(store=store, memory_entries=2)
        for response in responses:
            hit = cold.get(response.sql, response.round, response.root)
            assert hit is not None
            assert hit.receipt.journal.data == \
                response.receipt.journal.data
            assert encode_query_response(hit) == \
                encode_query_response(response)

    @given(victim=st.integers(min_value=0, max_value=len(QUERIES) - 1),
           position=st.integers(min_value=0, max_value=5000),
           flip=st.integers(min_value=1, max_value=255))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[
                  HealthCheck.function_scoped_fixture])
    def test_any_corruption_degrades_to_miss(self, responses, victim,
                                             position, flip):
        """Flip one byte anywhere in a stored blob — the digest
        envelope, the payload, anywhere — and the lookup must come
        back a miss: re-prove, never a silently altered answer."""
        store = MemoryLogStore()
        response = responses[victim]
        warm = QueryResultCache(store=store)
        warm.put(response)
        key = result_cache_key(response.sql, response.round,
                               response.root)
        name = f"query-results/{key.hex()}"
        blob = bytearray(store.get_checkpoint(name))
        blob[position % len(blob)] ^= flip
        store.put_checkpoint(name, bytes(blob))
        cache = QueryResultCache(store=store)
        assert cache.get(response.sql, response.round,
                         response.root) is None
        # Corruption must not have torn down the persistent tier —
        # and an intact entry written afterwards is served again.
        assert cache.stats()["persistent"] is True
        cache.put(response)
        fresh = QueryResultCache(store=store)
        hit = fresh.get(response.sql, response.round, response.root)
        assert hit is not None and encode_query_response(hit) == \
            encode_query_response(response)
