"""Unit tests for the telemetry guest programs, driven directly."""

import hashlib
from collections import Counter
from unittest import mock

import pytest

from repro.commitments import window_digest
from repro.core.aggregation import (
    Aggregator,
    BatchedAggregator,
    RouterWindowInput,
    make_receipt_binding,
)
from repro.core.clog import CLogState
from repro.core.chain import ROUND_IMAGE_IDS
from repro.core.guest_programs import (
    GUEST_MODULES,
    GUEST_REGISTRY,
    VM_MODULES,
    aggregation_guest,
    assume_receipt,
    batched_aggregation_guest,
    partition_guest,
    query_guest,
    verify_previous_round,
    verify_window_commitments,
)
from repro.core.policy import DEFAULT_POLICY
from repro.core import query_proof
from repro.core.prover_service import ProverService
from repro.core.query_proof import QueryProver
from repro.core.sketch_proof import (
    SketchTelemetry,
    sketch_build_guest,
    sketch_estimate_guest,
)
from repro.core.witness import build_witness
from repro.engine import ProvingEngine
from repro.errors import ChainError, GuestAbort
from repro.federation import build_federation_scenario
from repro.federation.join import FederationJoinProver
from repro.hashing import sha256
from repro.merkle.memo import clear_memos
from repro.merkle.tree import EMPTY_ROOTS
from repro.serialization import encode
from repro.zkvm import ExecutorEnvBuilder, Prover, verify_receipt
from repro.zkvm.guest import (
    GuestProgram,
    MeteredMerkleHasher,
    _called_helpers,
)

from ..conftest import make_committed_records, make_record
from ..counting import count_host_work
from ..recorder import CallRecorder
from ..reference import settle_image_ids


def window_inputs(records_by_router: dict[str, list]):
    inputs = []
    for router_id, records in sorted(records_by_router.items()):
        blobs = tuple(r.to_bytes() for r in records)
        inputs.append(RouterWindowInput(
            router_id=router_id, window_index=0,
            commitment=window_digest(list(blobs)), blobs=blobs))
    return inputs


def simple_round(records_by_router=None):
    if records_by_router is None:
        records_by_router = {
            "r1": [make_record(router_id="r1")],
            "r2": [make_record(router_id="r2", sport=2000)],
        }
    state = CLogState()
    return Aggregator().aggregate(state, window_inputs(records_by_router),
                                  prev_receipt=None)


class TestAggregationGuest:
    def test_journal_header_fields(self):
        result = simple_round()
        header = result.header
        assert header.round == 0
        assert header.prev_root == EMPTY_ROOTS[0]
        assert header.new_root == result.new_root
        assert header.size == 2
        assert header.entries == 2
        assert header.policy == DEFAULT_POLICY.digest()
        assert set(header.consumed) == {("r1", 0), ("r2", 0)}

    def test_per_entry_journal_items(self):
        result = simple_round()
        values = result.receipt.journal.decode()
        items = values[1:]
        assert len(items) == 2
        for item in items:
            assert set(item) == {"s", "l", "t"}
            assert len(item["t"]) == 16

    def test_receipt_verifies(self):
        result = simple_round()
        verify_receipt(result.receipt, aggregation_guest.image_id)

    def test_commitment_mismatch_aborts(self):
        records = {"r1": [make_record()]}
        inputs = window_inputs(records)
        forged = [RouterWindowInput(
            router_id=i.router_id, window_index=i.window_index,
            commitment=sha256(b"wrong"), blobs=i.blobs) for i in inputs]
        with pytest.raises(GuestAbort, match="commitment mismatch"):
            Aggregator().aggregate(CLogState(), forged, None)

    def test_nonempty_genesis_state_aborts(self):
        """Round 0 must start from the empty CLog."""
        builder = ExecutorEnvBuilder()
        builder.write({
            "round": 0,
            "policy": DEFAULT_POLICY.to_wire(),
            "prev_root": sha256(b"not empty"),
            "prev_size": 3,
            "prev_depth": 2,
            "num_routers": 0,
            "num_ops": 0,
        })
        with pytest.raises(GuestAbort, match="genesis"):
            Prover().prove(aggregation_guest, builder.build())

    def test_witness_record_mismatch_aborts(self):
        """Ops must line up one-to-one with committed records."""
        records = {"r1": [make_record()]}
        inputs = window_inputs(records)
        witness = build_witness(CLogState(),
                                [make_record()], DEFAULT_POLICY)
        builder = ExecutorEnvBuilder()
        builder.write({
            "round": 0,
            "policy": DEFAULT_POLICY.to_wire(),
            "prev_root": witness.prev_root,
            "prev_size": 0,
            "prev_depth": 0,
            "num_routers": 1,
            "num_ops": 0,  # no ops supplied
        })
        builder.write({
            "router_id": "r1", "window_index": 0,
            "commitment": inputs[0].commitment,
            "blobs": list(inputs[0].blobs),
        })
        with pytest.raises(GuestAbort, match="witness exhausted"):
            Prover().prove(aggregation_guest, builder.build())

    def test_chained_round_requires_prev_receipt(self):
        result = simple_round()
        state = result.new_state
        follow_up = {"r1": [make_record(sport=3000)]}
        with pytest.raises(ChainError):
            Aggregator().aggregate(state, window_inputs(follow_up), None)

    def test_chained_round_resolves(self):
        first = simple_round()
        follow_up = window_inputs(
            {"r1": [make_record(router_id="r1", sport=3000)]})
        # Reuse different window index to be realistic.
        second = Aggregator().aggregate(first.new_state, follow_up,
                                        first.receipt)
        assert second.round == 1
        assert second.header.prev_root == first.new_root
        assert not second.receipt.claim.assumptions
        verify_receipt(second.receipt, aggregation_guest.image_id)


class TestQueryGuest:
    def make_query_input(self, result, sql, entries=None, num=None):
        state = result.new_state
        entries = entries if entries is not None \
            else state.entries_in_slot_order()
        builder = ExecutorEnvBuilder()
        builder.write({"query": sql,
                       "num_entries": num if num is not None
                       else len(entries)})
        builder.write(make_receipt_binding(result.receipt))
        for entry in entries:
            builder.write({"key": entry.key.pack(),
                           "payload": entry.to_payload()})
        return builder.build()

    def test_query_journal(self):
        result = simple_round()
        sql = "SELECT COUNT(*) FROM clogs"
        info = Prover().prove(query_guest,
                              self.make_query_input(result, sql))
        journal = info.receipt.journal.decode_one()
        assert journal["query"] == sql
        assert journal["root"] == result.new_root
        assert journal["values"] == [2]
        assert journal["scanned"] == 2

    def test_entry_substitution_aborts(self):
        """Swapping an entry's payload breaks the root recomputation."""
        result = simple_round()
        entries = result.new_state.entries_in_slot_order()
        from repro.core.clog import CLogEntry
        forged = [CLogEntry.fresh(make_record(sport=1, lost_packets=0))]\
            + entries[1:]
        env_input = self.make_query_input(
            result, "SELECT COUNT(*) FROM clogs", entries=forged)
        with pytest.raises(GuestAbort, match="root"):
            Prover().prove(query_guest, env_input)

    def test_entry_omission_aborts(self):
        result = simple_round()
        entries = result.new_state.entries_in_slot_order()
        env_input = self.make_query_input(
            result, "SELECT COUNT(*) FROM clogs", entries=entries[:1],
            num=1)
        with pytest.raises(GuestAbort, match="entries"):
            Prover().prove(query_guest, env_input)

    def test_query_over_empty_state(self):
        result = Aggregator().aggregate(CLogState(), window_inputs(
            {"r1": [make_record()]}), None)
        # Single entry state still works.
        info = Prover().prove(query_guest, self.make_query_input(
            result, "SELECT SUM(lost_packets) FROM clogs"))
        journal = info.receipt.journal.decode_one()
        assert journal["values"] == [1]


# -- the contract the round pipeline must hold --------------------------------
#
# One fixed fixture, four ways to prove it.  The values below were
# captured at the commit *before* Algorithm 1's steps were folded into
# shared helpers; journals, total cycles, per-category breakdowns and
# SHA compression counts are the contract, and any refactor of the
# guests or the host frame builders must leave them bit-identical.

def pinned_windows(window_indices):
    inputs = []
    for w in window_indices:
        for router in ("r1", "r2"):
            blobs = tuple(
                make_record(router_id=router,
                            sport=1000 + (5 * w + j) % 9,
                            packets=10 + w + j,
                            lost_packets=j % 2).to_bytes()
                for j in range(4))
            inputs.append(RouterWindowInput(
                router_id=router, window_index=w,
                commitment=window_digest(list(blobs)), blobs=blobs))
    return inputs


PINNED = {
    "aggregation": {
        "journal": "a046eb28c4717d39b0a99fcdbd0b2a28"
                   "2c2266dac4b302863d7fc802fe4ec3f3",
        "total_cycles": 93862,
        "sha": 732,
        "breakdown": {"aggregate": 2880, "base": 10000,
                      "commitment": 12648, "decode": 16606, "io": 11828,
                      "merkle": 32164, "verify": 7736},
    },
    # The batched round guest: the update round's journal, byte for
    # byte, from 14 node hashes where Alg. 1 takes 172.
    "batched": {
        "journal": "a046eb28c4717d39b0a99fcdbd0b2a28"
                   "2c2266dac4b302863d7fc802fe4ec3f3",
        "total_cycles": 61162,
        "sha": 371,
        "breakdown": {"aggregate": 2880, "base": 10000,
                      "commitment": 12648, "decode": 11616, "io": 8666,
                      "merkle": 7616, "verify": 7736},
    },
    "merge": {
        "journal": "284f9e2000f1125e7fcb39e0afe4110b"
                   "9506c81cc4a7d5bb06c64338127f9cfd",
        "total_cycles": 46690,
        "sha": 126,
        "breakdown": {"aggregate": 2160, "base": 10000, "decode": 5880,
                      "io": 2830, "merkle": 3332, "verify": 22488},
    },
    "partition0": {
        "journal": "9b65047a742fc61a51b751e84894b335"
                   "37efc4dab803751608a89628ef37e054",
        "total_cycles": 24820,
        "sha": 85,
        "breakdown": {"aggregate": 1440, "base": 10000, "commitment": 3060,
                      "decode": 5136, "io": 5184},
    },
    "partition1": {
        "journal": "95a15742b889f84ffd49c9fb6ab46cb6"
                   "a2e252303c45e5f493c9c374450b5ecd",
        "total_cycles": 24820,
        "sha": 85,
        "breakdown": {"aggregate": 1440, "base": 10000, "commitment": 3060,
                      "decode": 5136, "io": 5184},
    },
}


def pin_of(journal, stats):
    return {"journal": hashlib.sha256(journal.data).hexdigest(),
            "total_cycles": stats.total_cycles,
            "sha": stats.sha_compressions,
            "breakdown": dict(stats.cycle_breakdown)}


@pytest.fixture(scope="module")
def serial_engine():
    with ProvingEngine(backend="serial") as engine:
        yield engine


@pytest.fixture(scope="module")
def genesis():
    """Round 0 over window 0: inserts and grows; the pinned rounds
    chain onto it, so step 1 runs and updates mix with inserts."""
    return Aggregator().aggregate(CLogState(), pinned_windows([0]), None)


class TestPinnedRoundContract:
    WINDOWS = [1, 2, 3]

    def test_aggregation_round(self, genesis):
        result = Aggregator().aggregate(
            genesis.new_state, pinned_windows(self.WINDOWS),
            genesis.receipt)
        assert pin_of(result.receipt.journal, result.info.stats) \
            == PINNED["aggregation"]

    def test_batched_round(self, genesis):
        result = BatchedAggregator().aggregate(
            genesis.new_state, pinned_windows(self.WINDOWS),
            genesis.receipt)
        assert pin_of(result.receipt.journal, result.info.stats) \
            == PINNED["batched"]
        assert PINNED["batched"]["journal"] \
            == PINNED["aggregation"]["journal"]

    def test_batched_round_hashes_each_union_node_once(
            self, genesis, monkeypatch):
        """The batched guest's metered node hashes are exactly the
        internal nodes above the touched slots: once in the old tree
        (where they hold an occupied slot) and once in the new."""
        state = genesis.new_state
        nodes = Counter()
        hash_node = MeteredMerkleHasher.node

        def counting_node(self, left, right):
            nodes["node"] += 1
            return hash_node(self, left, right)

        monkeypatch.setattr(MeteredMerkleHasher, "node", counting_node)
        result = BatchedAggregator().aggregate(
            state, pinned_windows(self.WINDOWS), genesis.receipt)
        touched = {item["s"] for item in result.receipt.journal.decode()[1:]}
        old_size, old_depth = len(state), state.depth
        new_depth = result.header.depth
        old_union = {(h, s >> h) for s in touched if s < 1 << old_depth
                     for h in range(1, old_depth + 1)
                     if (s >> h) << h < old_size}
        new_union = {(h, s >> h) for s in touched
                     for h in range(1, new_depth + 1)}
        assert (len(old_union), len(new_union)) == (3, 11)
        assert nodes["node"] == len(old_union) + len(new_union)

    def test_partition_merge_round(self, serial_engine):
        result = serial_engine.prove_round(pinned_windows(self.WINDOWS), 2)
        assert pin_of(result.receipt.journal, result.merge_info.stats) \
            == PINNED["merge"]
        for index, info in enumerate(result.partition_infos):
            assert pin_of(info.receipt.journal, info.stats) \
                == PINNED[f"partition{index}"]


class TestBatchedRoundWork:
    """Counted, not timed: on a ``round_bulk``-shaped round (1,000
    records of 444 new flows in one window, seed 7) the batched guest
    meters under 0.4x Alg. 1's SHA-256 compressions, for the same
    journal."""

    def test_bulk_round_compressions(self):
        store, bulletin, _ = make_committed_records(1_000)
        inputs = ProverService(store, bulletin).gather_window(0)
        paper = Aggregator().aggregate(CLogState(), inputs, None)
        batched = BatchedAggregator().aggregate(CLogState(), inputs, None)
        assert batched.receipt.journal.data == paper.receipt.journal.data
        assert len(batched.new_state) == 444
        compressions = (paper.info.stats.sha_compressions,
                        batched.info.stats.sha_compressions)
        assert compressions == (48_207, 13_627)
        assert compressions[1] <= 0.4 * compressions[0]


@pytest.fixture(scope="module")
def proven(genesis):
    """The pinned update round's result: nine flows at depth 4, so two
    partitions are 8 + 1 slots."""
    return Aggregator().aggregate(
        genesis.new_state, pinned_windows([1, 2, 3]), genesis.receipt)


class TestPinnedHostWork:
    """What one pinned round, and two queries over its state, ask of
    the host, counted rather than timed: ``TestPinnedRoundContract``'s
    update round (24 records over the genesis state), every seam of
    :mod:`tests.counting`.

    At the commit before ``FlowKey`` cached its packing and the codec
    took exact-type fast paths, the same round counted: ``encode`` 107,
    ``decode`` 101, ``decode_stream`` 2, ``_encode`` 1,828,
    ``_decode_fast`` 2,363, ``CLogEntry.to_payload`` 48,
    ``FlowKey.unpack`` 67 and ``IPv4Address`` 374.  A change that
    moves one of these numbers says so here.
    """

    PINNED = {
        "encode": 59,
        "decode": 101,
        "decode_stream": 2,
        "_encode": 467,
        "_decode_fast": 470,
        "CLogEntry.to_payload": 48,
        "FlowKey.unpack": 67,
        "IPv4Address": 0,
    }

    def test_aggregation_round(self, genesis):
        windows = pinned_windows(TestPinnedRoundContract.WINDOWS)
        with count_host_work() as counts:
            result = Aggregator().aggregate(genesis.new_state, windows,
                                            genesis.receipt)
        assert pin_of(result.receipt.journal, result.info.stats) \
            == PINNED["aggregation"]
        assert dict(counts) == self.PINNED

    QUERIES = (
        "SELECT COUNT(*), SUM(packets) FROM clogs WHERE src_port >= 1003",
        "SELECT SUM(octets) FROM clogs GROUP BY protocol",
    )
    PINNED_QUERIES = (
        {"encode": 3, "decode": 20, "decode_stream": 2, "_encode": 51,
         "_decode_fast": 112, "CLogEntry.to_payload": 0,
         "FlowKey.unpack": 9, "IPv4Address": 0},
        {"encode": 3, "decode": 2, "decode_stream": 2, "_encode": 34,
         "_decode_fast": 41, "CLogEntry.to_payload": 0,
         "FlowKey.unpack": 0, "IPv4Address": 0},
    )

    def test_full_scan_queries(self, proven):
        """Two full-scan queries over the pinned round's nine flows,
        the entry-view memo cleared first.

        At the commit before entry frames were written through a
        ``DictLayout`` and the scan guests memoized each payload's
        view, the same two queries counted: ``encode`` 12 and 12,
        ``decode`` 20 and 20, ``decode_stream`` 2 and 2, ``_encode`` 62
        and 63, ``_decode_fast`` 112 and 113, ``FlowKey.unpack`` 9 and
        9, and 0 for the other seams.  The host now encodes no frame
        dict (``encode`` one fewer per entry frame) and the second
        query decodes no payload (``decode`` one fewer per entry).

        Every query memo is cleared first.  Before the entry frames
        were encoded once per root and ``read_batch`` kept decoded
        frames, the second query counted ``decode`` 11, ``_encode`` 52
        and ``_decode_fast`` 68: it now encodes no entry frame (two
        ``_encode`` fewer per entry) and decodes none (one ``decode``
        and three ``_decode_fast`` fewer per entry).
        """
        clear_memos()
        counted = []
        for sql in self.QUERIES:
            with count_host_work() as counts:
                QueryProver().prove_query(sql, proven.new_state,
                                          proven.receipt)
            counted.append(dict(counts))
        assert len(proven.new_state) == 9
        assert tuple(counted) == self.PINNED_QUERIES

    def test_second_cold_query_at_a_root_redoes_no_root_work(self, proven):
        """What depends only on the committed root is done once: a
        second query at the same root encodes no entry frame, decodes
        none (its two ``decode`` calls are the header and the receipt
        binding) and hashes no tree node in the guest."""
        clear_memos()
        first, second = self.QUERIES
        QueryProver().prove_query(first, proven.new_state, proven.receipt)
        work = Counter()
        encode_frame = query_proof._ENTRY_FRAME.encode
        hash_node = MeteredMerkleHasher.node

        class CountingLayout:
            def encode(self, values):
                work["entry frames encoded"] += 1
                return encode_frame(values)

        def counting_node(self, left, right):
            work["node digests"] += 1
            return hash_node(self, left, right)

        with mock.patch.object(query_proof, "_ENTRY_FRAME",
                               CountingLayout()), \
                mock.patch.object(MeteredMerkleHasher, "node",
                                  counting_node), \
                count_host_work() as counts:
            QueryProver().prove_query(second, proven.new_state,
                                      proven.receipt)
        assert work == Counter()
        assert counts["decode"] == 2


# Guest *inputs* are a contract too: ``input_digest`` is sealed into the
# claim and keys every ``ReceiptCache`` entry.  Captured at the commit
# before the entry frames were read off the Merkle map's stored key and
# payload bytes instead of being re-encoded per entry.
PINNED_INPUTS = {
    "full_scan": "cc18222f6c0dd028800f0f1aee54e65a"
                 "fad71a640ed738abb28d8147453f4c1b",
    "partition0": "1be26cb6ff1990c12d658d5aa45c660c"
                  "6b3bcaab5fcf992e4b730a788343ae68",
    "partition1": "dc3e3ca9fe28758c84c5679a81d701a5"
                  "e5182b6a53af53bfb183605926c6f49f",
    "federation_totals": "e6d29c337481f95a3a8205d99ec4d8ad"
                         "face8e37fb8b1633bf0bec0dad154b2c",
}


class TestPinnedInputFrames:
    SQL = "SELECT COUNT(*), SUM(packets) FROM clogs WHERE src_port >= 1003"

    def test_full_scan_query(self, proven):
        _response, info = QueryProver().prove_query(
            self.SQL, proven.new_state, proven.receipt)
        assert info.receipt.claim.input_digest.hex() \
            == PINNED_INPUTS["full_scan"]

    def test_partition_jobs(self, proven, serial_engine):
        _response, info = QueryProver(engine=serial_engine) \
            .prove_query_partitioned(self.SQL, proven.new_state,
                                     proven.receipt, 2)
        assert [part.receipt.claim.input_digest.hex()
                for part in info.partition_infos] \
            == [PINNED_INPUTS["partition0"], PINNED_INPUTS["partition1"]]

    def test_federation_totals_job(self, proven, serial_engine):
        job = FederationJoinProver(engine=serial_engine)._totals_job(
            proven.new_state, proven.receipt)
        assert job.env_commitment.hex() \
            == PINNED_INPUTS["federation_totals"]


# Every guest a receipt can name, with its image id: the trusted code
# base.  Captured while the streamed round's delta and fold guests were
# still registered (and ``fold_guest`` was a third round image); their
# removal moved none of the ids that remain.  The two scanning query
# guests were re-pinned when their shared ``_read_entry_views`` began
# reading payloads through the entry-view memo; no other id moved.  The
# full-rebuild round guest's row went with that guest; no id moved.
PINNED_IMAGES = {
    "telemetry-aggregation-v1": "1e9f5957578049b379824b826de0994e"
                                "f267d2a85214695d010fa2063d2f956f",
    "telemetry-aggregation-batched-v1": "20856bb7dfa6f1760d7a79130a440dcc"
                                        "8ad27d5cef9de155dcc0bbadbc37000a",
    "telemetry-query-v1": "dcc94b88375c0b48490340417413c3a5"
                          "7555ee03d950d4131dd9cbc1111eb57e",
    "telemetry-partition-v1": "bf02d2b7e46ded9a92b9ee8eb645da0d"
                              "9f66e2af2a7a8a33ce35e2c2c99e8288",
    "telemetry-merge-v1": "acd6189ec95bd07d031d65fc102c152f"
                          "a04b32bc5a918eee3edbb6f543617752",
    "telemetry-query-partition-v2": "e8024a1f606bb7c9c6f2fcc5bad49a3d"
                                    "b54b8ba27fda950d802fbf70c5abc998",
    "telemetry-query-merge-v2": "0078e86a9cdd99ea7e8b3672e2a908c2"
                                "655d2574be1895c4028df69e84ad2c04",
    "telemetry-federation-join-v1": "309dc41e8e9fcbcaceda06fd18e7462b"
                                    "457745d9350c5fbcdf03f01dac955c5e",
}

# The sketch guests are not in GUEST_REGISTRY (no engine job names
# them), so they are pinned by object.
PINNED_SKETCH_IMAGES = {
    "sketch-build-v1": "a97dae689868a0abd81e365204f52789"
                       "e38833f01713740442e772fb411e3199",
    "sketch-estimate-v1": "da3989248044e996850b424638dfae1b"
                          "981e4ca848145ab77111c3f1af07311d",
}


class TestPinnedImages:
    def test_round_images_are_update_and_batched(self):
        assert ROUND_IMAGE_IDS == (aggregation_guest.image_id,
                                   batched_aggregation_guest.image_id)

    def test_registered_telemetry_guests_and_image_ids(self):
        # Test modules register their own guests under other prefixes.
        registered = {name: program.image_id.hex()
                      for name, program in GUEST_REGISTRY.items()
                      if name.startswith("telemetry-")}
        assert registered == PINNED_IMAGES

    def test_sketch_guest_image_ids(self):
        pinned = {program.name: program.image_id.hex()
                  for program in (sketch_build_guest,
                                  sketch_estimate_guest)}
        assert pinned == PINNED_SKETCH_IMAGES


class TestGuestModules:
    """Each registered guest, run cold on the pinned fixtures under
    :class:`tests.recorder.CallRecorder`, executes exactly the VM
    modules and its row of ``GUEST_MODULES`` — the declaration item
    18(b) will hash into the image id."""

    SQL = TestPinnedInputFrames.SQL

    def test_every_guest_executes_its_declared_modules(
            self, monkeypatch, genesis, proven):
        executed = {}
        # A fresh engine: the shared one's receipt cache would answer
        # jobs earlier tests proved without running their guests.
        serial_engine = ProvingEngine(backend="serial")

        def recorded_call(program, env):
            try:
                with CallRecorder() as recorder:
                    program.fn(env)
            finally:
                executed.setdefault(program.name, set()).update(
                    recorder.modules())

        # Image ids hash source text: read it now, not under the
        # recorder, which would make that slow and record it.
        settle_image_ids()
        monkeypatch.setattr(GuestProgram, "__call__", recorded_call)
        windows = pinned_windows(TestPinnedRoundContract.WINDOWS)
        runs = (
            lambda: Aggregator().aggregate(genesis.new_state, windows,
                                           genesis.receipt),
            lambda: BatchedAggregator().aggregate(
                genesis.new_state, windows, genesis.receipt),
            lambda: serial_engine.prove_round(windows, 2),
            lambda: QueryProver().prove_query(
                self.SQL, proven.new_state, proven.receipt),
            lambda: QueryProver(engine=serial_engine)
            .prove_query_partitioned(self.SQL, proven.new_state,
                                     proven.receipt, 2),
            lambda: FederationJoinProver(engine=serial_engine).prove_join(
                build_federation_scenario(num_providers=2, num_flows=8,
                                          seed=3)),
        )
        with serial_engine:
            for run in runs:
                clear_memos()
                run()
        telemetry = {name for name in GUEST_REGISTRY
                     if name.startswith("telemetry-")}
        assert set(GUEST_MODULES) == telemetry
        assert executed == {name: VM_MODULES | modules
                            for name, modules in GUEST_MODULES.items()}


# -- the shared steps abort the same way from every caller ---------------------

def tampered(inputs):
    """Swap one committed blob for another record's bytes, keeping the
    published commitment — post-commitment tampering."""
    first = inputs[0]
    blobs = (make_record(router_id=first.router_id,
                         sport=4242).to_bytes(),) + first.blobs[1:]
    return [RouterWindowInput(first.router_id, first.window_index,
                              first.commitment, blobs)] + inputs[1:]


STEP2_CALLERS = {
    "aggregation": lambda engine, windows:
        Aggregator().aggregate(CLogState(), windows, None),
    "batched": lambda engine, windows:
        BatchedAggregator().aggregate(CLogState(), windows, None),
    "partition": lambda engine, windows: engine.prove_round(windows),
    "sketch-build": lambda engine, windows:
        SketchTelemetry().build(windows),
}

STEP1_GUESTS = {
    "aggregation": aggregation_guest,
    "batched": batched_aggregation_guest,
}

# The guest each STEP2_CALLERS entry runs step 2 in.
STEP2_GUESTS = {
    "aggregation": aggregation_guest,
    "batched": batched_aggregation_guest,
    "partition": partition_guest,
    "sketch-build": sketch_build_guest,
}


def step1_input(guest, genesis, binding=None, **forged):
    """Frames for a round-1 execution that stops after step 1 (no
    routers, no ops, an empty multiproof), with the header fields in
    ``forged`` overridden."""
    state = genesis.new_state
    header = {
        "round": 1,
        "policy": DEFAULT_POLICY.to_wire(),
        "prev_root": state.root,
        "prev_size": len(state),
        "num_routers": 0,
    }
    if guest is aggregation_guest:
        header.update(prev_depth=state.depth, num_ops=0)
    elif guest is batched_aggregation_guest:
        header.update(prev_depth=state.depth)
    header.update(forged)
    builder = ExecutorEnvBuilder()
    builder.write(header)
    if header["round"] > 0:
        builder.write(binding or make_receipt_binding(genesis.receipt))
    if guest is batched_aggregation_guest:
        builder.write({"slots": [], "siblings": []})
    return builder.build()


class TestImageIdsCoverSharedSteps:
    """An image id hashes only the helpers a guest reaches inside its
    own package.  Moving a guest out of ``repro.core`` would silently
    drop the shared steps from its id, so a receipt would no longer
    bind the code that checks commitments or prior receipts."""

    def test_step2_guests_are_the_step2_callers(self):
        assert set(STEP2_GUESTS) == set(STEP2_CALLERS)

    @pytest.mark.parametrize("name", sorted(STEP2_GUESTS))
    def test_step2_guest_image_covers_commitment_check(self, name):
        helpers = _called_helpers(STEP2_GUESTS[name].fn)
        assert verify_window_commitments in helpers

    @pytest.mark.parametrize("name", sorted(STEP1_GUESTS))
    def test_step1_guest_image_covers_previous_round_check(self, name):
        helpers = _called_helpers(STEP1_GUESTS[name].fn)
        assert verify_previous_round in helpers
        assert assume_receipt in helpers

    def test_sketch_estimate_image_covers_receipt_assumption(self):
        assert assume_receipt in _called_helpers(sketch_estimate_guest.fn)


class TestSharedSteps:
    @pytest.mark.parametrize("caller", sorted(STEP2_CALLERS))
    def test_tampered_blob_aborts_every_step2_caller(
            self, caller, serial_engine):
        windows = pinned_windows([0])
        prove = STEP2_CALLERS[caller]
        prove(serial_engine, windows)  # control: honest inputs prove
        with pytest.raises(
                GuestAbort,
                match="integrity check failed for router 'r1' window 0: "
                      "commitment mismatch"):
            prove(serial_engine, tampered(windows))

    @pytest.mark.parametrize("name", sorted(STEP1_GUESTS))
    def test_honest_prev_state_accepted(self, name, genesis):
        guest = STEP1_GUESTS[name]
        info = Prover().prove(guest, step1_input(guest, genesis))
        assert len(info.receipt.claim.assumptions) == 1

    @pytest.mark.parametrize("name", sorted(STEP1_GUESTS))
    @pytest.mark.parametrize("forged", [
        {"prev_root": sha256(b"forged")},
        {"prev_size": 99},
        {"round": 2},
    ], ids=["root", "size", "round"])
    def test_wrong_prev_state_aborts_every_step1_caller(
            self, name, forged, genesis):
        guest = STEP1_GUESTS[name]
        with pytest.raises(GuestAbort, match="claimed prev state"):
            Prover().prove(guest, step1_input(guest, genesis, **forged))

    @pytest.mark.parametrize("name", sorted(STEP1_GUESTS))
    def test_wrong_prev_depth_aborts(self, name, genesis):
        guest = STEP1_GUESTS[name]
        with pytest.raises(GuestAbort, match="claimed prev state"):
            Prover().prove(guest, step1_input(guest, genesis,
                                              prev_depth=7))

    @pytest.mark.parametrize("name", sorted(STEP1_GUESTS))
    def test_headerless_prev_journal_aborts(self, name, genesis):
        guest = STEP1_GUESTS[name]
        binding = dict(make_receipt_binding(genesis.receipt),
                       journal=encode([1, 2, 3]))
        with pytest.raises(GuestAbort,
                           match="previous journal has no header"):
            Prover().prove(guest, step1_input(guest, genesis, binding))

    @pytest.mark.parametrize("name", sorted(STEP1_GUESTS))
    def test_nonempty_genesis_aborts_every_step1_caller(
            self, name, genesis):
        guest = STEP1_GUESTS[name]
        with pytest.raises(GuestAbort, match="genesis"):
            Prover().prove(guest, step1_input(guest, genesis, round=0))
