"""Byte-identity property suite for the hot paths.

Midstate tag templates, the index-based serialization decoder, buffered
guest I/O with batched SHA accounting, the memoized Merkle digest cache
and numpy predicate masks are the only implementations ``src/`` has.
Each must be *observationally identical* to the straightforward version
it replaced, which lives on as an oracle in ``tests/reference/`` (or is
simply the loop over the public per-value call).  These tests
machine-check that by running the same inputs both ways and asserting
equality of journal bytes, cycle totals and breakdowns, sha-compression
counts, digests, and query results.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core.prover_service import ProverService
from repro.errors import QueryError, SerializationError
from repro.hashing import TAG_CLOG, hash_many, tagged_hash
from repro.merkle import MerkleTree, TaggedMerkleHasher, clear_memos
from repro.netflow import NetworkTopology, TrafficGenerator
from repro.netflow.generator import TrafficConfig
from repro.netflow.records import NetFlowRecord
from repro.query import evaluate, evaluate_partial, parse_query, vectorized
from repro.serialization import decode, encode
from repro.storage import MemoryLogStore
from repro.zkvm.guest import GuestEnv
from repro.zkvm import ExecutorEnvBuilder, Prover, ProverOpts, guest_program

from .. import reference
from ..reference import guest as reference_guest
from ..reference import hashing as reference_hashing
from ..reference import query as reference_query
from ..reference import serialization as reference_serialization


def _meter_state(env: GuestEnv) -> tuple:
    meter = env.meter
    return (meter.total, dict(meter.by_category),
            meter.sha_compressions)


# -- primitive identity: serialization ---------------------------------------

values_strategy = st.recursive(
    st.none() | st.booleans()
    | st.integers(-(2**80), 2**80)
    | st.floats(allow_nan=False)
    | st.text(max_size=20)
    | st.binary(max_size=40),
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.text(max_size=8), children, max_size=6),
    max_leaves=25,
)


class TestSerializationIdentity:
    @given(values_strategy)
    @settings(max_examples=200, deadline=None)
    def test_decode_identical_on_and_off(self, value):
        data = encode(value)
        assert decode(data) == reference_serialization.decode(data)

    @given(st.binary(max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_garbage_errors_identical(self, data):
        outcomes = []
        for decoder in (decode, reference_serialization.decode):
            try:
                outcomes.append(("ok", decoder(data)))
            except SerializationError as exc:
                outcomes.append(("err", str(exc)))
        assert outcomes[0] == outcomes[1]


# -- primitive identity: hashing and Merkle memo -----------------------------

class TestHashingIdentity:
    @given(st.lists(st.binary(max_size=40), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_tagged_and_framed_hashing(self, parts):
        assert tagged_hash(TAG_CLOG, *parts) \
            == reference_hashing.tagged_hash(TAG_CLOG, *parts)
        assert hash_many(TAG_CLOG, parts) \
            == reference_hashing.hash_many(TAG_CLOG, parts)

    @given(st.lists(st.binary(min_size=1, max_size=30), min_size=1,
                    max_size=24))
    @settings(max_examples=100, deadline=None)
    def test_merkle_roots_and_proofs(self, payloads):
        hasher = TaggedMerkleHasher()
        clear_memos()
        leaves = [hasher.leaf(p) for p in payloads]
        tree_fast = MerkleTree(leaves, hasher=hasher)
        # Second build must hit the memo and stay identical.
        tree_warm = MerkleTree(leaves, hasher=hasher)
        plain = reference_hashing.PlainMerkleHasher()
        leaves_ref = [plain.leaf(p) for p in payloads]
        tree_ref = MerkleTree(leaves_ref, hasher=plain)
        assert leaves == leaves_ref
        assert tree_fast.root == tree_ref.root == tree_warm.root
        for index in range(len(payloads)):
            assert tree_fast.prove(index).siblings \
                == tree_ref.prove(index).siblings


# -- guest I/O: buffered reads / batched commits -----------------------------

class TestGuestIOIdentity:
    @given(st.lists(values_strategy, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_read_batch_matches_read_loop(self, values):
        frames = tuple(encode(v) for v in values)
        env_fast = GuestEnv(frames)
        got_fast = env_fast.read_batch(len(values))
        env_ref = GuestEnv(frames)
        got_ref = [env_ref.read() for _ in range(len(values))]
        assert got_fast == got_ref
        assert _meter_state(env_fast) == _meter_state(env_ref)

    @given(st.lists(values_strategy, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_commit_many_matches_commit_loop(self, values):
        env_fast = GuestEnv(())
        env_fast.commit_many(values)
        env_ref = GuestEnv(())
        for value in values:
            env_ref.commit(value)
        assert env_fast.journal_data == env_ref.journal_data
        assert _meter_state(env_fast) == _meter_state(env_ref)

    @given(st.lists(st.binary(min_size=1, max_size=30), min_size=2,
                    max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_metered_merkle_charges_despite_memo(self, payloads):
        def build(hasher):
            leaves = [hasher.leaf(p) for p in payloads]
            return MerkleTree(leaves, hasher=hasher).root

        clear_memos()
        env_cold = GuestEnv(())
        root_cold = build(env_cold.merkle_hasher())
        env_warm = GuestEnv(())  # all digests now memoized
        root_warm = build(env_warm.merkle_hasher())
        env_ref = GuestEnv(())  # one metered env.tagged_hash per digest
        root_ref = build(reference_guest.MeteredMerkleHasher(env_ref))
        assert root_cold == root_warm == root_ref
        assert _meter_state(env_cold) == _meter_state(env_warm) \
            == _meter_state(env_ref)


# -- query scans: numpy mask vs per-entry walk --------------------------------

def _entry(i: int) -> dict:
    return {
        "src_ip": f"10.0.{i % 4}.{i % 7}",
        "dst_ip": f"10.1.{i % 3}.{i % 5}",
        "packets": (i * 37) % 211,
        "octets": (i * 911) % 10_000,
        "hop_count": i % 6,
        "loss_rate": ((i * 13) % 29) / 29.0,
        "protocol": 6 if i % 2 else 17,
    }


# Each row: the SQL, whether the WHERE clause becomes a numpy mask over
# `_entry` rows (else every entry is walked), and for GROUP BY whether
# np.unique finds the buckets (else the dict loop does).  The choice is
# made from the input's shape, so it is pinned here: a bail set that
# silently widens or narrows moves work between paths and must fail.
QUERY_PATHS = (
    ("SELECT COUNT(*) FROM clogs", True, None),
    ("SELECT COUNT(*) FROM clogs WHERE packets > 100", True, None),
    ("SELECT SUM(octets) FROM clogs WHERE protocol = 6", True, None),
    ("SELECT SUM(hop_count), COUNT(*) FROM clogs "
     'WHERE src_ip = "10.0.1.3" AND packets >= 10', True, None),
    ("SELECT AVG(loss_rate) FROM clogs WHERE loss_rate > 0.5", True, None),
    ("SELECT MIN(octets), MAX(octets) FROM clogs "
     "WHERE packets > 50 OR hop_count = 2", True, None),
    ("SELECT SUM(packets) FROM clogs WHERE NOT protocol = 17", True, None),
    # CIDR membership has no numpy form: walked per entry
    ('SELECT COUNT(*) FROM clogs WHERE src_ip IN "10.0.0.0/16"',
     False, None),
    ("SELECT SUM(octets) FROM clogs GROUP BY protocol", True, True),
    ("SELECT COUNT(*), AVG(packets) FROM clogs "
     "WHERE octets < 5000 GROUP BY hop_count", True, True),
    # str group column: np.unique bucketing
    ("SELECT SUM(packets) FROM clogs "
     "WHERE packets > 20 GROUP BY src_ip", True, True),
    # float group column: mask, then the dict bucket loop
    ("SELECT COUNT(*) FROM clogs GROUP BY loss_rate", True, False),
    # COUNT(*)-only grouped: per-bucket count, no entry read
    ("SELECT COUNT(*) FROM clogs WHERE protocol = 6 "
     "GROUP BY hop_count", True, True),
)
QUERY_POOL = tuple(sql for sql, _, _ in QUERY_PATHS)


class TestVectorizedScanIdentity:
    @pytest.mark.parametrize("sql", QUERY_POOL)
    @given(st.integers(0, 500), st.integers(0, 80))
    @settings(max_examples=25, deadline=None)
    def test_evaluate_identical(self, sql, offset, count):
        views = [_entry(offset + i) for i in range(count)]
        query = parse_query(sql)
        costs_fast: list[int] = []
        costs_ref: list[int] = []
        fast = evaluate(query, views, cost_hook=costs_fast.append)
        fast_partial = evaluate_partial(query, views)
        expected = reference_query.evaluate(
            query, views, cost_hook=costs_ref.append)
        expected_partial = reference_query.evaluate_partial(query, views)
        assert fast == expected
        assert sum(costs_fast) == sum(costs_ref)
        assert fast_partial == expected_partial
        # src's own per-entry walk, reached on any shape by refusing
        # the mask, is the oracle's loop call for call.
        costs_walk: list[int] = []
        with mock.patch.object(vectorized, "matched_indices",
                               reference.refuse_mask):
            walked = evaluate(query, views, cost_hook=costs_walk.append)
            walked_partial = evaluate_partial(query, views)
        assert walked == expected
        assert costs_walk == costs_ref
        assert walked_partial == expected_partial

    @pytest.mark.parametrize("sql, masked, unique_buckets", QUERY_PATHS)
    def test_path_taken_is_pinned(self, sql, masked, unique_buckets):
        views = [_entry(i) for i in range(40)]
        query = parse_query(sql)
        columns: dict = {}
        indices = vectorized.matched_indices(query, views, None, columns)
        assert (indices is not None) is masked
        if query.group_by is not None and masked:
            members = vectorized.bucket_members(
                query.group_by.name, views, indices, columns)
            assert (members is not None) is unique_buckets
        # ...and the walk really is per entry: one hook call each.
        calls: list[int] = []
        evaluate(query, views, cost_hook=calls.append)
        assert len(calls) == (1 if masked else len(views))

    def test_type_mismatch_error_preserved(self):
        views = [_entry(0)]
        query = parse_query(
            'SELECT COUNT(*) FROM clogs WHERE packets < "abc"')
        for run in (evaluate, reference_query.evaluate):
            with pytest.raises(QueryError, match="cannot compare"):
                run(query, views)

    def test_float_sum_stays_exact(self):
        views = [_entry(i) for i in range(64)]
        query = parse_query("SELECT SUM(loss_rate) FROM clogs")
        fast = evaluate(query, views)
        expected_result = reference_query.evaluate(query, views)
        assert fast.values == expected_result.values
        expected = float(sum(Fraction(v["loss_rate"]) for v in views))
        assert fast.values[0] == expected


# -- end-to-end: proven round + queries are byte-identical -------------------

def _committed_workload(num_records: int, seed: int = 7):
    topology = NetworkTopology.paper_eval()
    generator = TrafficGenerator(topology, TrafficConfig(seed=seed))
    store = MemoryLogStore()
    bulletin = BulletinBoard()
    per_router: dict[str, list[NetFlowRecord]] = {
        router_id: [] for router_id in topology.router_ids()}
    count = 0
    while count < num_records:
        flow = generator.generate_flow(now_ms=1_000)
        for record in generator.observe(flow):
            if count >= num_records:
                break
            per_router[record.router_id].append(record)
            count += 1
    for router_id, records in per_router.items():
        if not records:
            continue
        store.append_records(router_id, 0, records)
        bulletin.publish(Commitment(
            router_id=router_id,
            window_index=0,
            digest=window_digest([r.to_bytes() for r in records]),
            record_count=len(records),
            published_at_ms=5_000,
        ))
    return store, bulletin


WORKLOAD_QUERIES = (
    "SELECT COUNT(*) FROM clogs",
    "SELECT SUM(hop_count) FROM clogs "
    'WHERE src_ip = "1.1.1.1" AND dst_ip = "9.9.9.9"',
    "SELECT SUM(octets) FROM clogs GROUP BY protocol",
)


def _round_fingerprint(num_records: int, partitions: int | None):
    store, bulletin = _committed_workload(num_records)
    service = ProverService(store, bulletin,
                            query_partitions=partitions)
    result = service.aggregate_window(0)
    receipt = result.receipt
    fingerprint = [
        receipt.journal.data,
        receipt.claim.digest(),
        result.info.stats.total_cycles,
        dict(result.info.stats.cycle_breakdown),
        result.info.stats.sha_compressions,
        result.info.stats.segment_count,
    ]
    for sql in WORKLOAD_QUERIES:
        response = service.answer_query(sql)
        fingerprint.append(response.receipt.journal.data)
        fingerprint.append(response.receipt.claim.digest())
    return fingerprint


class TestWorkloadByteIdentity:
    @pytest.mark.parametrize("partitions", [None, 2])
    def test_round_and_query_journals(self, partitions):
        clear_memos()
        fast = _round_fingerprint(90, partitions)
        with reference.reference_paths():
            expected = _round_fingerprint(90, partitions)
        assert fast == expected


@guest_program("hotpath-prop-pipeline")
def _pipeline_guest(env):
    count = env.read()
    values = env.read_batch(count)
    hasher = env.merkle_hasher()
    leaves = [hasher.leaf(encode(v)) for v in values]
    if leaves:
        root = MerkleTree(leaves, hasher=hasher).root
        env.commit(root)
    env.commit_many(values)


class TestProvenGuestIdentity:
    @given(st.lists(st.integers(-(2**40), 2**40), max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_batch_guest_receipts_identical(self, values):
        def prove():
            builder = ExecutorEnvBuilder().write(len(values))
            for value in values:
                builder.write(value)
            return Prover(ProverOpts.groth16()).prove(
                _pipeline_guest, builder.build())

        clear_memos()
        fast = prove()
        with reference.reference_paths():
            expected = prove()
        assert fast.receipt.journal.data \
            == expected.receipt.journal.data
        assert fast.receipt.claim.digest() \
            == expected.receipt.claim.digest()
        assert fast.stats.total_cycles == expected.stats.total_cycles
        assert fast.stats.sha_compressions \
            == expected.stats.sha_compressions
