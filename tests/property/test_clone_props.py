"""Property tests: the CLog hands out structure, it does not recompute it.

``CLogState.clone()`` copies the entry dict, the Merkle map's slots and
payload bytes and the tree's level lists.  The oracle here is the body
it replaced — re-insert every entry into an empty state, which
re-encodes and re-hashes all of it — and the clone must be
indistinguishable from that, and independent of its source in both
directions.  ``MerkleTree.append`` grows by one level instead of
re-hashing the tree, and ``entries_in_slot_order()`` reads dict
insertion order instead of sorting by slot; both are held to their
from-scratch definitions.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clog import CLogEntry, CLogState
from repro.core.policy import DEFAULT_POLICY
from repro.core.prover_service import ProverService
from repro.core.witness import build_witness
from repro.errors import MerkleError
from repro.hashing import sha256
from repro.merkle import MerkleTree

from .test_checkpoint_props import build_and_prove, round_plans
from .test_clog_props import records


def clone_by_reinsertion(state: CLogState) -> CLogState:
    """What ``CLogState.clone()`` used to be: the oracle."""
    other = CLogState()
    for entry in slot_sorted(state):
        other.set_entry(entry)
    other.round = state.round
    return other


def slot_sorted(state: CLogState) -> list[CLogEntry]:
    """Slot order by definition: sort every entry by its leaf index."""
    return sorted((state.get(key) for key in state.merkle_map),
                  key=lambda entry: state.merkle_map.index_of(entry.key))


def vacant_proof(state: CLogState):
    try:
        return state.merkle_map.tree.prove_vacant(len(state))
    except MerkleError as exc:  # capacity exhausted: grow comes first
        return str(exc)


def fingerprint(state: CLogState):
    """Everything a prover or a guest input ever reads off a state."""
    merkle_map = state.merkle_map
    return {
        "root": state.root,
        "depth": state.depth,
        "size": len(state),
        "round": state.round,
        "entries": state.entries_in_slot_order(),
        "slots": [merkle_map.index_of(key) for key in merkle_map],
        "payloads": [merkle_map.payload(key) for key in merkle_map],
        "frames": state.entry_frames(),
        "proofs": [merkle_map.prove(key) for key in merkle_map],
        "vacant": vacant_proof(state),
    }


def state_after(rounds) -> CLogState:
    state = CLogState()
    for batch in rounds:
        state = build_witness(state, batch, DEFAULT_POLICY).new_state
    return state


# Several rounds over up to 40 flows: updates rewrite stored payloads,
# inserts cross the 1/2/4/8/16/32 capacity boundaries.
round_batches = st.lists(records(max_size=30, distinct_flows=40),
                         min_size=1, max_size=3)


class TestStructuralClone:
    @given(round_batches)
    @settings(max_examples=60, deadline=None)
    def test_equals_the_reinsertion_oracle(self, rounds):
        state = state_after(rounds)
        assert fingerprint(state.clone()) \
            == fingerprint(clone_by_reinsertion(state))
        for proof in fingerprint(state.clone())["proofs"]:
            proof.verify(state.root)

    def test_empty_state(self):
        assert fingerprint(CLogState().clone()) \
            == fingerprint(clone_by_reinsertion(CLogState()))

    @given(round_batches, records(max_size=12, distinct_flows=60))
    @settings(max_examples=60, deadline=None)
    def test_independent_in_both_directions(self, rounds, batch):
        state = state_after(rounds)
        before = fingerprint(state)
        for mutated, untouched in ((state.clone(), state),
                                   (state, state.clone())):
            for record in batch:
                existing = mutated.get(record.key)
                mutated.set_entry(
                    existing.merge(record, DEFAULT_POLICY) if existing
                    else CLogEntry.fresh(record))
            mutated.round += 1
            assert mutated.root != before["root"]
            assert fingerprint(untouched) == before

    @given(round_batches, records(max_size=12, distinct_flows=60))
    @settings(max_examples=40, deadline=None)
    def test_witness_leaves_its_input_state_intact(self, rounds, batch):
        state = state_after(rounds)
        before = fingerprint(state)
        witness = build_witness(state, batch, DEFAULT_POLICY)
        assert fingerprint(state) == before
        assert fingerprint(witness.new_state) \
            == fingerprint(clone_by_reinsertion(witness.new_state))


class TestIncrementalTree:
    def test_append_equals_from_scratch_at_every_size(self):
        """0…130 leaves: each power-of-two crossing (1, 2, 4, … 128)
        takes the one-level growth step."""
        leaves = [sha256(b"leaf-%d" % i) for i in range(130)]
        grown = MerkleTree()
        for size in range(131):
            scratch = MerkleTree(leaves[:size])
            assert (grown.root, grown.depth, grown.size) \
                == (scratch.root, scratch.depth, scratch.size)
            assert grown.leaves() == scratch.leaves()
            for index in range(size):
                assert grown.prove(index) == scratch.prove(index)
            for level in range(grown.depth + 1):
                for pos in range(-(-size >> level)):  # occupied nodes
                    assert grown.prove_subtree(level, pos) \
                        == scratch.prove_subtree(level, pos)
            if size < 130:
                if size == 0 or size < 1 << grown.depth:
                    assert grown.prove_vacant(size) \
                        == scratch.prove_vacant(size)
                else:
                    with pytest.raises(MerkleError, match="grow"):
                        grown.prove_vacant(size)
                grown.append(leaves[size])

    def test_copy_is_independent(self):
        leaves = [sha256(b"leaf-%d" % i) for i in range(8)]
        tree = MerkleTree(leaves)
        copy = tree.copy()
        copy.update(3, sha256(b"other"))
        copy.append(sha256(b"ninth"))  # grows the copy only
        assert (tree.root, tree.depth, tree.size) \
            == (MerkleTree(leaves).root, 3, 8)
        tree.update(0, sha256(b"mine"))
        assert copy.leaf(0) == leaves[0]
        assert copy.depth == 4


class TestSlotOrder:
    @given(round_batches)
    @settings(max_examples=60, deadline=None)
    def test_after_witness_inserts_and_clone(self, rounds):
        state = state_after(rounds)
        assert state.entries_in_slot_order() == slot_sorted(state)
        clone = state.clone()
        assert clone.entries_in_slot_order() == slot_sorted(clone)
        assert clone.entries_in_slot_order() \
            == state.entries_in_slot_order()

    @given(round_plans)
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_after_checkpoint_restore(self, plan):
        store, bulletin, service = build_and_prove(plan)
        service.checkpoint()
        restored = ProverService(store, bulletin)
        assert restored.restore() is True
        assert restored.state.entries_in_slot_order() \
            == slot_sorted(restored.state) \
            == service.state.entries_in_slot_order()
