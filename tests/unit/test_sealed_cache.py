"""The one contract of :class:`~repro.storage.cache.SealedCache`, run through both of its
codecs — :class:`~repro.engine.cache.ReceiptCache` and
:class:`~repro.qserve.cache.QueryResultCache` — plus the durable reads and writes the caches
cost, counted rather than timed.
"""

from __future__ import annotations

import hashlib
from contextlib import closing

import pytest

from repro.commitments import BulletinBoard
from repro.core.prover_service import DEFAULT_CHECKPOINT, ProverService
from repro.engine import ProvingEngine, ReceiptCache, execute_job
from repro.obs import runtime as obs
from repro.qserve import QueryResultCache, result_cache_key
from repro.net import ProverServer, QueryClient
from repro.storage import MemoryLogStore, SqliteLogStore

from ..conftest import make_committed_records
from ..counting import count_durable_io
from . import test_guest_programs as pinned
from .test_engine import echo_guest, echo_job, router_inputs
from .test_qserve import BrokenStore, _responses
from .test_storage import dropped_tables_store

STATS_KEYS = {
    "memory_entries",
    "memory_max",
    "persistent",
    "hits",
    "misses",
    "stores",
    "evictions",
    "hit_rate",
}


class Receipts:
    """Three echo-guest receipts, looked up the way ``ProverPool.submit`` does."""

    cache = ReceiptCache
    prefix = "receipt-cache"
    counter = "repro_engine_cache_total"

    def __init__(self) -> None:
        self.jobs = [echo_job(f"sealed-{i}") for i in range(3)]
        self.results = [execute_job(job) for job in self.jobs]

    def key(self, i):
        return self.jobs[i].cache_key(echo_guest.image_id)

    def put(self, cache, i):
        cache.put(self.key(i), self.results[i])

    def get(self, cache, i):
        return cache.get(self.key(i), self.jobs[i], echo_guest.image_id)


class Answers:
    """Three proven query responses."""

    cache = QueryResultCache
    prefix = "query-results"
    counter = "repro_qserve_cache_total"

    def __init__(self) -> None:
        self.responses = _responses(3)

    def key(self, i):
        response = self.responses[i]
        return result_cache_key(response.sql, response.round, response.root)

    def put(self, cache, i):
        cache.put(self.responses[i])

    def get(self, cache, i):
        response = self.responses[i]
        return cache.get(response.sql, response.round, response.root)


@pytest.fixture(scope="module", params=[Receipts, Answers], ids=["receipts", "answers"])
def codec(request):
    return request.param()


class TestSealedCacheContract:
    def test_stats_keys_are_one_set(self, codec):
        assert set(codec.cache().stats()) == STATS_KEYS

    def test_lru_bound_counts_evictions(self, codec):
        cache = codec.cache(memory_entries=2)
        for i in range(3):
            codec.put(cache, i)
        assert codec.get(cache, 0) is None
        assert codec.get(cache, 1) is not None
        assert codec.get(cache, 2) is not None
        stats = cache.stats()
        assert (stats["memory_entries"], stats["evictions"]) == (2, 1)

    def test_persistent_hit_is_promoted(self, codec):
        store = MemoryLogStore()
        codec.put(codec.cache(store=store), 0)
        fresh = codec.cache(store=store)
        assert codec.get(fresh, 0) is not None
        # Gone from the store, so the second hit can only be the memory tier.
        store.delete_checkpoint(f"{codec.prefix}/{codec.key(0).hex()}")
        assert codec.get(fresh, 0) is not None
        stats = fresh.stats()
        assert (stats["memory_entries"], stats["hits"], stats["misses"]) == (1, 2, 0)

    def test_every_flipped_byte_is_a_miss(self, codec):
        store = MemoryLogStore()
        codec.put(codec.cache(store=store), 0)
        name = f"{codec.prefix}/{codec.key(0).hex()}"
        blob = store.get_checkpoint(name)
        for position in range(len(blob)):
            flipped = bytearray(blob)
            flipped[position] ^= 0x01
            store.put_checkpoint(name, bytes(flipped))
            cache = codec.cache(store=store)
            assert codec.get(cache, 0) is None, position
            assert cache.stats()["memory_entries"] == 0
        # Corruption is a miss, not a store failure: the tier stays up.
        assert cache.stats()["persistent"] is True

    def test_read_error_degrades_to_memory_only(self, codec):
        store = BrokenStore()
        codec.put(codec.cache(store=store), 0)
        cache = codec.cache(store=store)
        store.broken = True
        assert codec.get(cache, 0) is None
        assert cache.stats()["persistent"] is False
        # The degraded tier is never read or written again, even once healthy.
        store.broken = False
        assert codec.get(cache, 0) is None
        codec.put(cache, 1)
        assert store.checkpoint_names() == [f"{codec.prefix}/{codec.key(0).hex()}"]
        assert codec.get(cache, 1) is not None

    def test_sqlite_read_error_is_a_miss(self, codec, tmp_path):
        with closing(dropped_tables_store(tmp_path)) as store:
            cache = codec.cache(store=store)
            assert codec.get(cache, 0) is None
            assert cache.stats()["persistent"] is False

    def test_every_lookup_is_counted(self, codec):
        store = MemoryLogStore()
        cache = codec.cache(store=store)
        with obs.capture() as cap:
            assert codec.get(cache, 1) is None
            codec.put(cache, 1)
            assert codec.get(cache, 1) is not None
        counter = cap.registry.get(codec.counter)
        assert counter.value(tier="memory", result="miss") == 1
        assert counter.value(tier="persistent", result="miss") == 1
        assert counter.value(tier="memory", result="store") == 1
        assert counter.value(tier="persistent", result="store") == 1
        assert counter.value(tier="memory", result="hit") == 1
        assert store.checkpoint_names() == [f"{codec.prefix}/{codec.key(1).hex()}"]


SQL = "SELECT COUNT(*), SUM(packets) FROM clogs"


def _cold_then_warm(action):
    """KV counts of ``action()`` run twice: ``(cold, warm)``."""
    pins = []
    for _ in range(2):
        with count_durable_io() as counts:
            action()
        pins.append(dict(counts))
    return tuple(pins)


def _checkpointed_rounds():
    """Two auto-checkpointed rounds (window 0, then the pinned
    round's windows), then ``restore()`` on a fresh service over the same
    store; returns the counts and the last checkpoint blob."""
    store, bulletin = MemoryLogStore(), BulletinBoard()
    with count_durable_io() as counts:
        service = ProverService(store, bulletin, auto_checkpoint=True)
        for windows in ([0], pinned.TestPinnedRoundContract.WINDOWS):
            service.prove_round(windows, pinned.pinned_windows(windows))
        fresh = ProverService(store, bulletin)
        assert fresh.restore()
    assert fresh.chain.latest.header.new_root == service.chain.latest.header.new_root
    return dict(counts), store.get_checkpoint(DEFAULT_CHECKPOINT)


def _served():
    store, bulletin, _ = make_committed_records(20, seed=3)
    service = ProverService(store, bulletin)
    service.aggregate_all_committed()
    return _cold_then_warm(lambda: service.answer_query(SQL))


def _sqlite_served():
    """A default ``ProverServer`` over a sqlite store holding one proven
    round of :func:`_served`'s records."""
    memory, bulletin, _ = make_committed_records(20, seed=3)
    store = SqliteLogStore()
    for commitment in bulletin:
        store.append_records(commitment.router_id, commitment.window_index,
                             memory.window_records(commitment.router_id,
                                                   commitment.window_index))
    service = ProverService(store, bulletin)
    service.aggregate_all_committed()
    return ProverServer(service)


def _engine_round():
    inputs = router_inputs(3)
    with ProvingEngine(backend="serial", store=MemoryLogStore()) as engine:
        return _cold_then_warm(lambda: engine.prove_round(inputs, 2))


class TestCountedDurableIO:
    """Checkpoint-KV traffic of the cache paths, pinned as integers.

    Captured before the two caches became codecs over one ``SealedCache``; the merge moved
    none of them.  A round of two partitions is three jobs (two partitions and the merge).
    The checkpointed-rounds pin (two puts, one restore read, the last blob's SHA-256) was
    captured while the checkpoint could still carry a streamed round's frontier, and shows
    a default checkpoint's bytes did not move when that section went.  It was re-pinned
    (7,767 -> 7,566 bytes, new SHA-256) when chain links stopped carrying copies of
    ``new_root``/``size``/``record_count`` beside the receipt whose journal commits them,
    and again (7,566 -> 7,512 bytes) when the checkpoint stopped carrying the
    aggregated-window list that restore now reads off the round headers.  It was
    re-pinned once more (7,512 -> 7,476 bytes, new SHA-256) when ``ProverService`` lost
    its round option: the rounds are the batched guest's (same sizes, another image id
    and claim) and the payload no longer carries a ``strategy`` key.  A default
    service's query cache is attached to its own store from construction, so a cold query
    costs the numbers an explicitly attached store used to; once answered, the query is
    served from memory and touches no KV.  A cold query served over the wire read the KV
    three times (admission, dispatcher, then ``answer_query``) until the dispatcher's
    proof stopped looking the answer up again: two reads now.
    """

    NONE = {"get_checkpoint": 0, "put_checkpoint": 0, "checkpoint_bytes": 0}
    CHECKPOINTED = {"get_checkpoint": 1, "put_checkpoint": 2, "checkpoint_bytes": 7476}
    CHECKPOINT_SHA256 = "8157a1cd164170c9f35864e6bcc436e36cbd7050238accc8c73578a64f97610c"

    def test_default_service_query_touches_no_kv(self):
        store, bulletin, _ = make_committed_records(20, seed=3)
        service = ProverService(store, bulletin)
        service.aggregate_all_committed()
        first = service.answer_query(SQL)
        with count_durable_io() as counts:
            repeats = [service.answer_query(SQL) for _ in range(3)]
        assert dict(counts) == self.NONE
        assert all(r.claim == first.claim for r in repeats)

    def test_attached_query_cache_reads_and_writes_once_when_cold(self):
        cold = {"get_checkpoint": 1, "put_checkpoint": 1, "checkpoint_bytes": 937}
        assert _served() == (cold, self.NONE)

    def test_served_query_reads_the_kv_once_per_lookup_when_cold(self):
        """Over the wire a cold query is looked up at admission and again
        by the dispatcher, then proven without a third lookup; the warm
        repeat is a memory hit."""
        cold = {"get_checkpoint": 2, "put_checkpoint": 1, "checkpoint_bytes": 937}
        with _sqlite_served() as server, \
                QueryClient(server.host, server.port) as client:
            assert _cold_then_warm(lambda: client.query(SQL)) == (cold, self.NONE)
            stats = client.fetch_status()["service"]["query_cache"]
        assert (stats["misses"], stats["hits"]) == (2, 1)

    def test_checkpointed_rounds_then_restore(self):
        counts, blob = _checkpointed_rounds()
        assert counts == self.CHECKPOINTED
        assert hashlib.sha256(blob).hexdigest() == self.CHECKPOINT_SHA256

    def test_engine_round_reads_and_writes_once_per_job_when_cold(self):
        cold = {"get_checkpoint": 3, "put_checkpoint": 3, "checkpoint_bytes": 9220}
        assert _engine_round() == (cold, self.NONE)
