"""Unit tests for the telemetry guest programs, driven directly."""

import hashlib

import pytest

from repro.commitments import window_digest
from repro.core.aggregation import (
    Aggregator,
    RouterWindowInput,
    make_receipt_binding,
)
from repro.core.clog import CLogState
from repro.core.guest_programs import (
    aggregation_guest,
    delta_aggregation_guest,
    query_guest,
)
from repro.core.policy import DEFAULT_POLICY
from repro.core.query_proof import QueryProver
from repro.core.rebuild import RebuildAggregator, rebuild_aggregation_guest
from repro.core.sketch_proof import SketchTelemetry
from repro.core.witness import build_witness
from repro.engine import ProvingEngine
from repro.errors import ChainError, GuestAbort
from repro.federation.join import FederationJoinProver
from repro.hashing import sha256
from repro.merkle.tree import EMPTY_ROOTS
from repro.serialization import encode
from repro.stream import StreamingAggregator
from repro.zkvm import ExecutorEnvBuilder, Prover, verify_receipt

from ..conftest import make_record


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
        header = result.journal_header
        assert header["round"] == 0
        assert header["prev_root"] == EMPTY_ROOTS[0]
        assert header["new_root"] == result.new_root
        assert header["size"] == 2
        assert header["entries"] == 2
        assert header["policy"] == DEFAULT_POLICY.digest()
        assert {(w["r"], w["w"]) for w in header["windows"]} == \
            {("r1", 0), ("r2", 0)}

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
        assert second.journal_header["prev_root"] == first.new_root
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
    "delta_fold": {
        "journal": "a046eb28c4717d39b0a99fcdbd0b2a28"
                   "2c2266dac4b302863d7fc802fe4ec3f3",
        "total_cycles": 179126,
        "sha": 918,
        "breakdown": {"aggregate": 2880, "base": 50000,
                      "commitment": 12648, "decode": 16606, "io": 23496,
                      "merge": 240, "merkle": 32164, "verify": 41092},
    },
    "rebuild": {
        "journal": "7823d80272c0fa537174850266bdd429"
                   "22e786d0dc30c4f51ca58ff93190db31",
        "total_cycles": 61102,
        "sha": 326,
        "breakdown": {"aggregate": 13152, "base": 10000,
                      "commitment": 12648, "decode": 4368, "io": 8642,
                      "merkle": 4556, "verify": 7736},
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

    def test_delta_fold_round(self, genesis, serial_engine):
        result = StreamingAggregator(engine=serial_engine).aggregate(
            genesis.new_state, pinned_windows(self.WINDOWS),
            genesis.receipt)
        assert len(result.info.delta_results) == 3
        assert len(result.info.fold_results) == 2
        assert pin_of(result.receipt.journal, result.info.stats) \
            == PINNED["delta_fold"]
        # Streamed and monolithic rounds commit the same journal.
        assert PINNED["delta_fold"]["journal"] \
            == PINNED["aggregation"]["journal"]

    def test_rebuild_round(self, genesis):
        result = RebuildAggregator().aggregate(
            genesis.new_state, pinned_windows(self.WINDOWS),
            genesis.receipt)
        assert pin_of(result.receipt.journal, result.info.stats) \
            == PINNED["rebuild"]

    def test_partition_merge_round(self, serial_engine):
        result = serial_engine.prove_round(pinned_windows(self.WINDOWS), 2)
        assert pin_of(result.receipt.journal, result.merge_info.stats) \
            == PINNED["merge"]
        for index, info in enumerate(result.partition_infos):
            assert pin_of(info.receipt.journal, info.stats) \
                == PINNED[f"partition{index}"]


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
    "rebuild": "66d3cb84ffc008d350cd1bfc2f14a7db"
               "0e08efe8a4e9b7c62a1f902e022f27cd",
}


class TestPinnedInputFrames:
    SQL = "SELECT COUNT(*), SUM(packets) FROM clogs WHERE src_port >= 1003"

    @pytest.fixture(scope="class")
    def proven(self, genesis):
        """Nine flows at depth 4, so two partitions are 8 + 1 slots."""
        return Aggregator().aggregate(
            genesis.new_state, pinned_windows([1, 2, 3]), genesis.receipt)

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

    def test_rebuild_round(self, genesis):
        result = RebuildAggregator().aggregate(
            genesis.new_state, pinned_windows([1, 2, 3]), genesis.receipt)
        assert result.receipt.claim.input_digest.hex() \
            == PINNED_INPUTS["rebuild"]


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
    "delta": lambda engine, windows:
        StreamingAggregator(engine=engine).aggregate(
            CLogState(), windows, None),
    "rebuild": lambda engine, windows:
        RebuildAggregator().aggregate(CLogState(), windows, None),
    "partition": lambda engine, windows: engine.prove_round(windows),
    "sketch-build": lambda engine, windows:
        SketchTelemetry().build(windows),
}

STEP1_GUESTS = {
    "aggregation": aggregation_guest,
    "delta": delta_aggregation_guest,
    "rebuild": rebuild_aggregation_guest,
}


def step1_input(guest, genesis, binding=None, **forged):
    """Frames for a round-1 execution that stops after step 1 (no
    routers, no ops), with the header fields in ``forged`` overridden."""
    state = genesis.new_state
    header = {
        "round": 1,
        "policy": DEFAULT_POLICY.to_wire(),
        "prev_root": state.root,
        "prev_size": len(state),
        "num_routers": 0,
    }
    if guest is not rebuild_aggregation_guest:
        header.update(prev_depth=state.depth, num_ops=0, seq=0)
    header.update(forged)
    builder = ExecutorEnvBuilder()
    builder.write(header)
    if header["round"] > 0:
        builder.write(binding or make_receipt_binding(genesis.receipt))
    if guest is rebuild_aggregation_guest:
        for entry in state.entries_in_slot_order():
            builder.write({"key": entry.key.pack(),
                           "payload": entry.to_payload()})
    return builder.build()


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

    @pytest.mark.parametrize("name", ["aggregation", "delta"])
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

    def test_later_delta_skips_step1(self, genesis):
        """Only delta 0 binds the previous round: at ``seq > 0`` no
        binding frame is read and nothing is assumed."""
        state = genesis.new_state
        builder = ExecutorEnvBuilder()
        builder.write({
            "round": 1, "policy": DEFAULT_POLICY.to_wire(),
            "prev_root": state.root, "prev_size": len(state),
            "prev_depth": state.depth, "num_routers": 0, "num_ops": 0,
            "seq": 1,
        })
        info = Prover().prove(delta_aggregation_guest, builder.build())
        assert not info.receipt.claim.assumptions

    def test_negative_delta_seq_aborts(self, genesis):
        with pytest.raises(GuestAbort, match="non-negative"):
            Prover().prove(
                delta_aggregation_guest,
                step1_input(delta_aggregation_guest, genesis, seq=-1))
