"""Adversarial witnesses: a malicious host cannot steer the aggregation
guest off the committed data.

These tests drive :data:`aggregation_guest` — and, through the
``...Delta`` subclasses, :data:`delta_aggregation_guest` at ``seq == 0``
— directly with hand-forged witness ops — wrong slots, stale proofs,
swapped payloads, skipped grows — and require the guest to abort every
time.  This is the soundness surface between the (untrusted) host
orchestration and the (proven) guest execution; both guests call the
same Algorithm 1 steps, and running the same cases against each keeps
it that way.
"""

import pytest

from repro.commitments import window_digest
from repro.core.clog import CLogEntry, CLogState
from repro.core.guest_programs import (
    aggregation_guest,
    delta_aggregation_guest,
)
from repro.core.policy import DEFAULT_POLICY
from repro.core.witness import build_witness
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
        "seq": 0,  # read by the delta guest only
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


class TestForgedOpsDelta(TestForgedOps):
    guest = delta_aggregation_guest


class TestForgedPrevState:
    guest = aggregation_guest

    def test_claimed_prev_root_must_be_empty_at_genesis(self):
        records = [make_record(sport=1000)]
        state = CLogState()
        state.set_entry(CLogEntry.fresh(make_record(sport=9)))
        ops = honest_ops(records)
        with pytest.raises(GuestAbort, match="genesis"):
            run_guest(self.guest, records, ops, prev_state=state)


class TestForgedPrevStateDelta(TestForgedPrevState):
    guest = delta_aggregation_guest
