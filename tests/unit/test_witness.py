"""Unit tests for aggregation witness construction."""

from repro.core.clog import CLogEntry, CLogState
from repro.core.policy import DEFAULT_POLICY
from repro.core.witness import (OP_GROW, OP_INSERT, OP_UPDATE,
                                build_batched_witness, build_witness)
from repro.merkle import MerkleTree
from repro.merkle.hasher import default_hasher
from repro.merkle.tree import EMPTY_ROOTS

from ..conftest import make_record


def fresh_records(n):
    return [make_record(sport=1000 + i) for i in range(n)]


class TestFreshInserts:
    def test_all_inserts_for_new_flows(self):
        witness = build_witness(CLogState(), fresh_records(3),
                                DEFAULT_POLICY)
        kinds = [op["op"] for op in witness.ops]
        assert kinds.count(OP_INSERT) == 3
        assert witness.prev_root == EMPTY_ROOTS[0]
        assert witness.prev_size == 0
        assert len(witness.new_state) == 3

    def test_grow_ops_at_capacity_boundaries(self):
        witness = build_witness(CLogState(), fresh_records(5),
                                DEFAULT_POLICY)
        kinds = [op["op"] for op in witness.ops]
        # Capacity grows at sizes 1, 2, 4 -> three grow ops for 5 inserts.
        assert kinds.count(OP_GROW) == 3
        # A grow is always immediately followed by an insert.
        for i, kind in enumerate(kinds):
            if kind == OP_GROW:
                assert kinds[i + 1] == OP_INSERT

    def test_new_root_matches_direct_construction(self):
        records = fresh_records(7)
        witness = build_witness(CLogState(), records, DEFAULT_POLICY)
        direct = CLogState()
        for record in records:
            direct.set_entry(CLogEntry.fresh(record))
        assert witness.new_root == direct.root

    def test_insert_slots_sequential(self):
        witness = build_witness(CLogState(), fresh_records(4),
                                DEFAULT_POLICY)
        slots = [op["slot"] for op in witness.ops
                 if op["op"] == OP_INSERT]
        assert slots == [0, 1, 2, 3]


class TestUpdates:
    def test_repeat_flow_becomes_update(self):
        records = [make_record(router_id="r1"),
                   make_record(router_id="r2")]
        witness = build_witness(CLogState(), records, DEFAULT_POLICY)
        kinds = [op["op"] for op in witness.ops]
        assert kinds == [OP_INSERT, OP_UPDATE]
        update = witness.ops[1]
        assert update["slot"] == 0
        # The old payload is the freshly inserted entry.
        assert CLogEntry.from_payload(update["old_payload"]) == \
            CLogEntry.fresh(records[0])

    def test_existing_state_updates_in_place(self):
        state = CLogState()
        base = make_record()
        state.set_entry(CLogEntry.fresh(base))
        prev_root = state.root
        witness = build_witness(
            state, [make_record(router_id="r2")], DEFAULT_POLICY)
        assert witness.prev_root == prev_root
        assert witness.prev_size == 1
        assert [op["op"] for op in witness.ops] == [OP_UPDATE]
        assert len(witness.new_state) == 1

    def test_witness_does_not_mutate_input_state(self):
        state = CLogState()
        state.set_entry(CLogEntry.fresh(make_record()))
        root_before = state.root
        build_witness(state, [make_record(router_id="r2")],
                      DEFAULT_POLICY)
        assert state.root == root_before

    def test_round_advances(self):
        state = CLogState()
        state.round = 3
        witness = build_witness(state, fresh_records(1), DEFAULT_POLICY)
        assert witness.new_state.round == 4


class TestMixedRound:
    def test_interleaved_inserts_and_updates(self):
        state = CLogState()
        state.set_entry(CLogEntry.fresh(make_record(sport=1000)))
        records = [
            make_record(sport=1000, router_id="r2"),  # update
            make_record(sport=2000),                   # insert (+grow)
            make_record(sport=2000, router_id="r3"),   # update
            make_record(sport=3000),                   # insert (+grow)
        ]
        witness = build_witness(state, records, DEFAULT_POLICY)
        direct = state.clone()
        for record in records:
            existing = direct.get(record.key)
            direct.set_entry(
                existing.merge(record, DEFAULT_POLICY) if existing
                else CLogEntry.fresh(record))
        assert witness.new_root == direct.root
        assert len(witness.new_state) == 3

    def test_empty_round(self):
        state = CLogState()
        state.set_entry(CLogEntry.fresh(make_record()))
        witness = build_witness(state, [], DEFAULT_POLICY)
        assert witness.ops == ()
        assert witness.new_root == state.root


class CountingHasher:
    """The default hasher, counting what it is asked to hash."""

    algorithm = default_hasher().algorithm

    def __init__(self):
        self.leaves = self.nodes = 0

    def leaf(self, data):
        self.leaves += 1
        return default_hasher().leaf(data)

    def node(self, left, right):
        self.nodes += 1
        return default_hasher().node(left, right)

    def empty(self):
        return default_hasher().empty()


class TestHostCostIsPerRecord:
    """ROADMAP item 2, counted rather than timed: a witness costs what
    its records touch, whatever the state holds."""

    def witness_cost(self, monkeypatch, size):
        hasher = CountingHasher()
        state = CLogState(hasher=hasher)
        for i in range(size):
            state.set_entry(CLogEntry.fresh(make_record(sport=i)))
        assert len(state) == size == 1 << state.depth  # full: inserts grow
        records = [make_record(sport=i, router_id="r2") for i in range(4)] \
            + [make_record(src="10.9.9.9", sport=i) for i in range(4)]
        encoded = []
        write = CLogEntry.to_payload
        monkeypatch.setattr(
            CLogEntry, "to_payload",
            lambda entry: encoded.append(entry.key.pack()) or write(entry))
        hasher.leaves = hasher.nodes = 0
        witness = build_witness(state, records, DEFAULT_POLICY)
        kinds = [op["op"] for op in witness.ops]
        assert kinds == [OP_UPDATE] * 4 + [OP_GROW] + [OP_INSERT] * 4
        # Only the touched entries are encoded, once each.
        assert encoded == [record.key.pack() for record in records]
        assert hasher.leaves == 8
        # 4 updates x depth, one growth step, 4 inserts x (depth + 1).
        depth = state.depth
        assert hasher.nodes == 4 * depth + 1 + 4 * (depth + 1)
        assert hasher.leaves + hasher.nodes <= 8 * (depth + 2)
        return depth, hasher.leaves + hasher.nodes

    def test_hashes_and_encodes_scale_with_records_not_state(
            self, monkeypatch):
        small_depth, small = self.witness_cost(monkeypatch, 256)
        large_depth, large = self.witness_cost(monkeypatch, 4096)
        assert (small_depth, large_depth) == (8, 12)
        # 16x the state: the same work plus one hash per record per
        # extra level.
        assert large - small == 8 * (large_depth - small_depth)

    def test_growth_step_costs_one_node_hash(self):
        hasher = CountingHasher()
        tree = MerkleTree(hasher=hasher)
        for i in range(64):
            tree.append(hasher.leaf(b"%d" % i))
        hasher.nodes = 0
        tree.append(hasher.leaf(b"64"))  # past capacity: depth 6 -> 7
        assert tree.depth == 7
        assert hasher.nodes == 1 + 7
        assert tree.root == MerkleTree(tree.leaves()).root

    def test_clone_hashes_and_encodes_nothing(self, monkeypatch):
        hasher = CountingHasher()
        state = CLogState(hasher=hasher)
        for record in fresh_records(100):
            state.set_entry(CLogEntry.fresh(record))
        monkeypatch.setattr(CLogEntry, "to_payload", None)
        hasher.leaves = hasher.nodes = 0
        clone = state.clone()
        assert (hasher.leaves, hasher.nodes) == (0, 0)
        assert clone.root == state.root
        assert clone.entry_frames() == state.entry_frames()


class TestBatchedHostCost:
    """The batched builder hashes what the round touches once: a leaf
    per touched flow, however many records it has, and each touched
    tree node once, where :func:`build_witness` pays a leaf per record
    and a path per leaf."""

    def test_each_touched_node_hashed_once(self, monkeypatch):
        hasher = CountingHasher()
        state = CLogState(hasher=hasher)
        for i in range(256):
            state.set_entry(CLogEntry.fresh(make_record(sport=i)))
        # Four old flows (two records each) and four new flows, which
        # grow the full depth-8 tree to depth 9.
        records = [make_record(sport=i, router_id=router)
                   for router in ("r2", "r3") for i in (3, 64, 65, 200)] \
            + [make_record(src="10.9.9.9", sport=i) for i in range(4)]
        encoded = []
        write = CLogEntry.to_payload
        monkeypatch.setattr(
            CLogEntry, "to_payload",
            lambda entry: encoded.append(entry.key.pack()) or write(entry))
        hasher.leaves = hasher.nodes = 0
        witness = build_batched_witness(state, records, DEFAULT_POLICY)
        touched = [3, 64, 65, 200, 256, 257, 258, 259]
        union = {(height, slot >> height) for slot in touched
                 for height in range(1, 10)}
        assert len(union) == 31
        assert (hasher.leaves, hasher.nodes) == (8, len(union))
        assert len(encoded) == 8
        assert witness.slots == (3, 64, 65, 200)
        paper = build_witness(state, records, DEFAULT_POLICY)
        assert witness.new_root == paper.new_root
        assert witness.new_state.entry_frames() \
            == paper.new_state.entry_frames()
        # The siblings come off the old tree: nothing is hashed for them.
        hasher.leaves = hasher.nodes = 0
        assert state.merkle_map.tree.union_siblings(touched[:4]) \
            == witness.siblings
        assert (hasher.leaves, hasher.nodes) == (0, 0)

    def test_empty_round(self):
        state = CLogState()
        state.set_entry(CLogEntry.fresh(make_record()))
        witness = build_batched_witness(state, [], DEFAULT_POLICY)
        assert (witness.slots, witness.entries, witness.siblings) \
            == ((), (), ())
        assert witness.new_root == state.root
        assert witness.new_state.round == state.round + 1
