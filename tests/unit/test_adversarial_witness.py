"""Adversarial witnesses: a malicious host cannot steer the aggregation
guest off the committed data.

These tests drive :data:`aggregation_guest` directly with hand-forged
witness ops — wrong slots, stale proofs, swapped payloads, skipped
grows — and require the guest to abort every time; and
:data:`batched_aggregation_guest` with forged multiproofs.  This is the
soundness surface between the (untrusted) host orchestration and the
(proven) guest execution.
"""

import pytest

from repro.commitments import window_digest
from repro.core.aggregation import Aggregator, RouterWindowInput, make_receipt_binding
from repro.core.clog import CLogEntry, CLogState
from repro.core.guest_programs import aggregation_guest, batched_aggregation_guest
from repro.core.policy import DEFAULT_POLICY
from repro.core.witness import build_batched_witness, build_witness
from repro.errors import GuestAbort
from repro.merkle.tree import EMPTY_ROOTS
from repro.zkvm import ExecutorEnvBuilder, Prover

from ..conftest import make_record


def run_guest(guest, records, ops, prev_state=None, num_ops=None):
    """Assemble and prove an aggregation round with explicit ops."""
    state = prev_state or CLogState()
    blobs = [record.to_bytes() for record in records]
    builder = ExecutorEnvBuilder()
    builder.write({
        "round": 0,
        "policy": DEFAULT_POLICY.to_wire(),
        "prev_root": state.root,
        "prev_size": len(state),
        "prev_depth": state.depth,
        "num_routers": 1,
        "num_ops": num_ops if num_ops is not None else len(ops),
    })
    builder.write({
        "router_id": "r1",
        "window_index": 0,
        "commitment": window_digest(blobs),
        "blobs": blobs,
    })
    for op in ops:
        builder.write(op)
    return Prover().prove(guest, builder.build())


def honest_ops(records):
    return [dict(op) for op in
            build_witness(CLogState(), records, DEFAULT_POLICY).ops]


class TestForgedOps:
    guest = aggregation_guest

    def test_honest_witness_accepted(self):
        records = [make_record(sport=1000), make_record(sport=2000)]
        info = run_guest(self.guest, records, honest_ops(records))
        assert info.receipt is not None

    def test_insert_at_wrong_slot(self):
        records = [make_record(sport=1000)]
        ops = honest_ops(records)
        ops[0]["slot"] = 5
        with pytest.raises(GuestAbort, match="append slot"):
            run_guest(self.guest, records, ops)

    def test_wrong_path_length(self):
        records = [make_record(sport=1000)]
        ops = honest_ops(records)
        ops[0]["siblings"] = [EMPTY_ROOTS[0]]
        with pytest.raises(GuestAbort, match="path length"):
            run_guest(self.guest, records, ops)

    def test_skipped_grow(self):
        """Two inserts without the grow step between them."""
        records = [make_record(sport=1000), make_record(sport=2000)]
        ops = [op for op in honest_ops(records) if op["op"] != "grow"]
        with pytest.raises(GuestAbort):
            run_guest(self.guest, records, ops)

    def test_update_with_forged_old_payload(self):
        """Claiming a different prior value for an existing flow (to
        reset an accumulated loss counter, say) fails the inclusion
        check against the running root."""
        base = make_record(sport=1000, lost_packets=9)
        repeat = make_record(sport=1000, router_id="r2",
                             lost_packets=1)
        records = [base, repeat]
        ops = honest_ops(records)
        assert ops[-1]["op"] == "update"
        zeroed = CLogEntry.fresh(base.with_updates(lost_packets=0))
        ops[-1]["old_payload"] = zeroed.to_payload()
        with pytest.raises(GuestAbort, match="line 17"):
            run_guest(self.guest, records, ops)

    def test_update_against_stale_siblings(self):
        """Replaying round-start siblings for a later update (instead
        of the evolving intermediate tree) must fail."""
        a = make_record(sport=1000)
        b = make_record(sport=2000)
        a_again = make_record(sport=1000, router_id="r2")
        records = [a, b, a_again]
        ops = honest_ops(records)
        update = next(op for op in ops if op["op"] == "update")
        # Forge siblings: pretend flow b was never inserted.
        from repro.merkle import MerkleMap
        lone = CLogState()
        lone.set_entry(CLogEntry.fresh(a))
        stale = lone.merkle_map.prove(a.key)
        update["siblings"] = list(stale.siblings) \
            + [EMPTY_ROOTS[1]] * (len(update["siblings"])
                                  - len(stale.siblings))
        with pytest.raises(GuestAbort):
            run_guest(self.guest, records, ops)
        del MerkleMap

    def test_more_ops_than_records(self):
        records = [make_record(sport=1000)]
        ops = honest_ops(records)
        extra = dict(ops[0])
        with pytest.raises(GuestAbort, match="more ops"):
            run_guest(self.guest, records, ops + [extra])

    def test_fewer_ops_than_records(self):
        records = [make_record(sport=1000), make_record(sport=2000)]
        ops = honest_ops(records)[:1]
        with pytest.raises(GuestAbort, match="exhausted"):
            run_guest(self.guest, records, ops)

    def test_unknown_op_kind(self):
        records = [make_record(sport=1000)]
        ops = honest_ops(records)
        ops[0]["op"] = "overwrite"
        with pytest.raises(GuestAbort, match="unknown witness op"):
            run_guest(self.guest, records, ops)

    def test_grow_without_insert(self):
        """A grow that exhausts the witness while a record still waits
        for its insert."""
        records = [make_record(sport=1000), make_record(sport=2000)]
        ops = honest_ops(records)
        assert [op["op"] for op in ops] == ["insert", "grow", "insert"]
        with pytest.raises(GuestAbort, match="not followed by an insert"):
            run_guest(self.guest, records, ops[:2])

    def test_forged_vacant_slot_proof(self):
        """An insert whose siblings do not lead from an empty leaf to
        the running root (here: pretending the first flow was never
        inserted)."""
        records = [make_record(sport=1000), make_record(sport=2000)]
        ops = honest_ops(records)
        ops[-1]["siblings"] = [EMPTY_ROOTS[0]]
        with pytest.raises(GuestAbort, match="vacant-slot proof failed"):
            run_guest(self.guest, records, ops)

    def test_grow_as_last_op(self):
        records = [make_record(sport=1000)]
        ops = honest_ops(records)
        ops.append({"op": "grow"})
        # The trailing grow leaves ops_remaining positive -> abort.
        with pytest.raises(GuestAbort):
            run_guest(self.guest, records, ops)


class TestForgedPrevState:
    guest = aggregation_guest

    def test_claimed_prev_root_must_be_empty_at_genesis(self):
        records = [make_record(sport=1000)]
        state = CLogState()
        state.set_entry(CLogEntry.fresh(make_record(sport=9)))
        ops = honest_ops(records)
        with pytest.raises(GuestAbort, match="genesis"):
            run_guest(self.guest, records, ops, prev_state=state)



# -- the batched guest's multiproof ---------------------------------------------

#: Round 0 over eight flows (slots 0-7, a full depth-3 tree).
GENESIS_RECORDS = [make_record(sport=1000 + i) for i in range(8)]


@pytest.fixture(scope="module")
def genesis():
    blobs = tuple(record.to_bytes() for record in GENESIS_RECORDS)
    window = RouterWindowInput("r1", 0, window_digest(list(blobs)), blobs)
    return Aggregator().aggregate(CLogState(), [window], None)


def run_batched(genesis, records, multiproof, entries):
    """Prove round 1 over ``records`` with an explicit multiproof."""
    state = genesis.new_state
    blobs = [record.to_bytes() for record in records]
    builder = ExecutorEnvBuilder()
    builder.write({
        "round": 1,
        "policy": DEFAULT_POLICY.to_wire(),
        "prev_root": state.root,
        "prev_size": len(state),
        "prev_depth": state.depth,
        "num_routers": 1,
    })
    builder.write(make_receipt_binding(genesis.receipt))
    builder.write({"router_id": "r2", "window_index": 1,
                   "commitment": window_digest(blobs), "blobs": blobs})
    builder.write(multiproof)
    for entry in entries:
        builder.write(entry)
    return Prover().prove(batched_aggregation_guest, builder.build())


def honest_multiproof(genesis, records):
    witness = build_batched_witness(genesis.new_state, records,
                                    DEFAULT_POLICY)
    multiproof, *entries = witness.frames()
    return ({"slots": list(multiproof["slots"]),
             "siblings": list(multiproof["siblings"])},
            [dict(entry) for entry in entries])


#: Updates of slots 1 and 2 (one twice), one new flow past the full tree.
ROUND = [make_record(sport=1001, router_id="r2"),
         make_record(sport=1002, router_id="r2"),
         make_record(sport=1001, router_id="r2", lost_packets=4),
         make_record(sport=5000, router_id="r2")]


class TestForgedMultiproof:
    def test_honest_multiproof_accepted(self, genesis):
        multiproof, entries = honest_multiproof(genesis, ROUND)
        assert multiproof["slots"] == [1, 2]
        # Siblings of slots 1 and 2: slots 0 and 3, then the node over
        # slots 4-7; the grown tree's left half is the previous root.
        assert len(multiproof["siblings"]) == 3
        info = run_batched(genesis, ROUND, multiproof, entries)
        assert info.receipt.claim.assumptions

    def test_forged_shared_sibling(self, genesis):
        """The node over slots 4-7 is on both touched paths."""
        multiproof, entries = honest_multiproof(genesis, ROUND)
        multiproof["siblings"][2] = multiproof["siblings"][0]
        with pytest.raises(GuestAbort, match="previous root"):
            run_batched(genesis, ROUND, multiproof, entries)

    def test_duplicated_slot(self, genesis):
        multiproof, entries = honest_multiproof(genesis, ROUND)
        multiproof["slots"] = [1, 1, 2]
        with pytest.raises(GuestAbort, match="distinct and ascending"):
            run_batched(genesis, ROUND, multiproof,
                        [entries[0], *entries])

    def test_unsorted_slots(self, genesis):
        multiproof, entries = honest_multiproof(genesis, ROUND)
        multiproof["slots"] = [2, 1]
        with pytest.raises(GuestAbort, match="distinct and ascending"):
            run_batched(genesis, ROUND, multiproof, entries[::-1])

    def test_slot_outside_previous_state(self, genesis):
        multiproof, entries = honest_multiproof(genesis, ROUND)
        multiproof["slots"] = [1, 8]
        with pytest.raises(GuestAbort, match="outside the previous state"):
            run_batched(genesis, ROUND, multiproof, entries)

    def test_old_payload_with_wrong_key(self, genesis):
        """Slot 1's frame carries slot 2's payload under slot 1's key."""
        multiproof, entries = honest_multiproof(genesis, ROUND)
        entries[0]["payload"] = entries[1]["payload"]
        with pytest.raises(GuestAbort, match="does not match frame key"):
            run_batched(genesis, ROUND, multiproof, entries)

    def test_forged_old_payload(self, genesis):
        """A different prior value for a touched flow (a reset loss
        counter) fails the old-root check."""
        multiproof, entries = honest_multiproof(genesis, ROUND)
        zeroed = CLogEntry.fresh(
            GENESIS_RECORDS[1].with_updates(lost_packets=0))
        entries[0]["payload"] = zeroed.to_payload()
        with pytest.raises(GuestAbort, match="previous root"):
            run_batched(genesis, ROUND, multiproof, entries)

    def test_one_flow_at_two_slots(self, genesis):
        multiproof, entries = honest_multiproof(genesis, ROUND)
        with pytest.raises(GuestAbort, match="one flow at two slots"):
            run_batched(genesis, ROUND, multiproof,
                        [entries[0], entries[0]])

    def test_slot_no_record_touches(self, genesis):
        multiproof, entries = honest_multiproof(genesis, ROUND[1:2])
        extra, extra_entries = honest_multiproof(genesis, ROUND[:2])
        with pytest.raises(GuestAbort, match="no record touches"):
            run_batched(genesis, ROUND[1:2], extra, extra_entries)
        run_batched(genesis, ROUND[1:2], multiproof, entries)

    def test_short_sibling_list(self, genesis):
        multiproof, entries = honest_multiproof(genesis, ROUND)
        multiproof["siblings"].pop()
        with pytest.raises(GuestAbort, match="missing a sibling"):
            run_batched(genesis, ROUND, multiproof, entries)

    def test_long_sibling_list(self, genesis):
        multiproof, entries = honest_multiproof(genesis, ROUND)
        multiproof["siblings"].append(EMPTY_ROOTS[0])
        with pytest.raises(GuestAbort, match="more siblings"):
            run_batched(genesis, ROUND, multiproof, entries)
