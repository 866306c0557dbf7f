"""Host-side witness construction for the aggregation guest.

The guest cannot hold the whole previous Merkle tree; instead, the host
prepares a *witness*: for each incoming record, in deterministic order,
either

* ``update`` — the flow exists: the entry's current payload plus the
  sibling path proving it sits under the *current* root (proofs are
  generated against the evolving intermediate tree, so sequential
  verified updates compose soundly), or
* ``insert`` — a vacant-slot proof for the append position, preceded by
  a ``grow`` step when the padded capacity is exhausted.

The guest verifies each step against its running root, applies the
policy merge, recomputes the root along the same siblings, and thereby
reproduces exactly the host's final root — or aborts (Algorithm 1).

The batched round guest takes a different witness
(:func:`build_batched_witness`): each pre-existing slot the round
touches once, with its stored entry, and the siblings of the union of
the touched and append paths once — a multiproof.  It checks the old
root and computes the new one over that union, so each touched node is
hashed once per walk rather than twice per record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..hashing import Digest
from ..merkle.tree import EMPTY_ROOTS
from ..netflow.records import FlowKey, NetFlowRecord
from .clog import CLogEntry, CLogState
from .policy import AggregationPolicy

OP_UPDATE = "update"
OP_INSERT = "insert"
OP_GROW = "grow"


@dataclass(frozen=True)
class AggregationWitness:
    """Everything the aggregation guest needs beyond the raw logs."""

    ops: tuple[dict[str, Any], ...]
    prev_root: Digest
    prev_size: int
    prev_depth: int
    new_root: Digest
    new_state: CLogState

    @property
    def op_count(self) -> int:
        return len(self.ops)

    def header_fields(self) -> dict[str, Any]:
        """Step 3's fields of the guest's input header."""
        return {"num_ops": self.op_count}

    def frames(self) -> tuple[dict[str, Any], ...]:
        """Step 3's input frames, after the router frames."""
        return self.ops


def build_witness(state: CLogState, records: list[NetFlowRecord],
                  policy: AggregationPolicy) -> AggregationWitness:
    """Build the per-record op list by replaying the round on a clone.

    ``records`` must be in the same deterministic order the guest will
    process them (sorted router ids, window-append order) — the guest
    pairs op *i* with record *i* and checks the keys match.
    """
    work = state.clone()
    prev_root = work.root
    prev_size = len(work)
    prev_depth = work.depth
    ops: list[dict[str, Any]] = []
    for record in records:
        key = record.key
        existing = work.get(key)
        if existing is not None:
            proof = work.merkle_map.prove(key)
            ops.append({
                "op": OP_UPDATE,
                "slot": proof.leaf_index,
                "old_payload": work.merkle_map.payload(key),
                "siblings": list(proof.siblings),
            })
            work.set_entry(existing.merge(record, policy))
        else:
            size = len(work)
            depth = work.merkle_map.depth
            if size > 0 and size >= (1 << depth):
                # Capacity exhausted: one grow step, then the vacant
                # proof in the grown tree is all-empty siblings plus the
                # old root at the top.
                ops.append({"op": OP_GROW})
                siblings = [EMPTY_ROOTS[i] for i in range(depth)]
                siblings.append(work.root)
            else:
                siblings = list(
                    work.merkle_map.tree.prove_vacant(size).siblings)
            ops.append({
                "op": OP_INSERT,
                "slot": size,
                "siblings": siblings,
            })
            work.set_entry(CLogEntry.fresh(record))
    work.round = state.round + 1
    return AggregationWitness(
        ops=tuple(ops),
        prev_root=prev_root,
        prev_size=prev_size,
        prev_depth=prev_depth,
        new_root=work.root,
        new_state=work,
    )


@dataclass(frozen=True)
class BatchedWitness:
    """Everything the batched round guest needs beyond the raw logs."""

    slots: tuple[int, ...]
    entries: tuple[dict[str, bytes], ...]
    siblings: tuple[Digest, ...]
    prev_root: Digest
    prev_size: int
    prev_depth: int
    new_root: Digest
    new_state: CLogState

    @property
    def op_count(self) -> int:
        return 1 + len(self.entries)

    def header_fields(self) -> dict[str, Any]:
        """Step 3's fields of the guest's input header: none, the
        multiproof frame carries its own slot list."""
        return {}

    def frames(self) -> tuple[dict[str, Any], ...]:
        """The multiproof frame, then one ``{key, payload}`` frame per
        touched slot in slot order."""
        multiproof = {"slots": list(self.slots),
                      "siblings": list(self.siblings)}
        return (multiproof, *self.entries)


def build_batched_witness(state: CLogState, records: list[NetFlowRecord],
                          policy: AggregationPolicy) -> BatchedWitness:
    """The batched guest's witness, and the round applied on a clone.

    Each flow the round touches is merged with all its records in
    order; a new flow takes the next append slot in order of first
    appearance, as in :func:`build_witness`.  The siblings come from
    the old tree once, and the clone's tree is then updated once per
    touched node (:meth:`~repro.merkle.tree.MerkleTree.set_leaves`).
    """
    touched: dict[FlowKey, CLogEntry] = {}
    for record in records:
        entry = touched.get(record.key)
        if entry is None:
            entry = state.get(record.key)
        touched[record.key] = CLogEntry.fresh(record) if entry is None \
            else entry.merge(record, policy)
    merkle_map = state.merkle_map
    old = sorted((merkle_map.index_of(key), key)
                 for key in touched if key in state)
    slots = tuple(slot for slot, _ in old)
    # Append slots inside the old capacity: their vacant paths are
    # checked against the old root too.
    size = len(state)
    vacant = range(size, min(size + len(touched) - len(old),
                             1 << state.depth))
    work = state.clone()
    work.set_entries(touched.values())
    work.round = state.round + 1
    return BatchedWitness(
        slots=slots,
        entries=tuple({"key": key.pack(), "payload": merkle_map.get(key)}
                      for _, key in old),
        siblings=merkle_map.tree.union_siblings([*slots, *vacant]),
        prev_root=state.root,
        prev_size=size,
        prev_depth=state.depth,
        new_root=work.root,
        new_state=work,
    )
