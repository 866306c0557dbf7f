"""Full-rebuild aggregation strategy (design-choice ablation).

The default :class:`~repro.core.aggregation.Aggregator` proves each
record as a verified Merkle *path update* — ≈ 2·depth hashes per record,
the access pattern the paper profiles (§7's ≈35k hashes at 3,000
records).  The alternative this module implements receives the **whole**
previous CLog in-guest, recomputes the previous root from scratch (one
hash per entry plus tree construction), applies the batch, and rebuilds
the new tree.

Cost comparison per round (hashes, ignoring constants):

* update-path:  ``records × 2·depth``
* full-rebuild: ``2 × (3·size + records)``  (leaf + construction, twice)

so rebuild wins when the batch is large relative to the dataset
(``records ≳ 3·size / depth``) and loses badly for small batches over a
large CLog.  ``benchmarks/bench_ablation_strategy.py`` sweeps the ratio
and locates the crossover.
"""

from __future__ import annotations

from typing import Any

from ..hashing import TAG_RLOG
from ..merkle import MerkleTree
from ..netflow.records import NetFlowRecord
from ..serialization import decode, encode
from ..zkvm import ExecutorEnvBuilder, Receipt
from ..zkvm.guest import GuestEnv, guest_program
from ..zkvm.recursion import resolve
from .aggregation import (
    AggregationResult,
    Aggregator,
    RouterWindowInput,
    decode_records,
    make_receipt_binding,
    order_windows,
    write_window_frames,
)
from .clog import CLogEntry, CLogState
from .guest_programs import (
    DECODE_CYCLES_PER_BYTE,
    MERGE_CYCLES,
    RECORD_TAG_BYTES,
    read_entries,
    register_guest,
    verify_previous_round,
    verify_window_commitments,
)
from .policy import AggregationPolicy


@guest_program("telemetry-aggregation-rebuild-v1")
def rebuild_aggregation_guest(env: GuestEnv) -> None:
    """Algorithm 1 with Step 3 done by full tree reconstruction.

    Input frames: header; (round > 0) previous-receipt binding; every
    previous CLog entry in slot order; one frame per router window.
    The journal layout is identical to the update-path guest, so rounds
    of either strategy chain interchangeably.
    """
    header = env.read()
    round_index = header["round"]
    policy = AggregationPolicy.from_wire(header["policy"])
    prev_root = header["prev_root"]
    prev_size: int = header["prev_size"]
    hasher = env.merkle_hasher()
    verify_previous_round(env, round_index, prev_root, prev_size)

    # -- Reconstruct and check the previous CLog -------------------------------
    prev_leaves, wires = read_entries(env, hasher, prev_size)
    slot_keys: list[bytes] = [wire["key"] for wire in wires]
    entries: dict[bytes, dict[str, Any]] = dict(zip(slot_keys, wires))
    if MerkleTree(prev_leaves, hasher=hasher).root != prev_root:
        env.abort("previous entries do not reproduce the committed "
                  "root")

    # -- Step 2 + 3: verify windows, aggregate into the dict --------------------
    windows, blobs = verify_window_commitments(env, header["num_routers"])
    record_tags: list[tuple[bytes, bytes]] = []  # (key, tag)
    for blob in blobs:
        env.tick(len(blob) * DECODE_CYCLES_PER_BYTE + MERGE_CYCLES,
                 "aggregate")
        record = NetFlowRecord.from_wire(decode(blob))
        key_bytes = record.key.pack()
        existing_wire = entries.get(key_bytes)
        if existing_wire is None:
            entry = CLogEntry.fresh(record)
            slot_keys.append(key_bytes)
        else:
            entry = CLogEntry.from_wire(existing_wire) \
                .merge(record, policy)
        entries[key_bytes] = entry.to_wire()
        tag = env.tagged_hash(
            TAG_RLOG, blob,
            category="commitment").raw[:RECORD_TAG_BYTES]
        record_tags.append((key_bytes, tag))

    # -- Rebuild the new tree ----------------------------------------------------
    slot_of = {key: slot for slot, key in enumerate(slot_keys)}
    new_leaves = [
        hasher.leaf(key_bytes + _encode_wire(env, entries[key_bytes]))
        for key_bytes in slot_keys]
    new_tree = MerkleTree(new_leaves, hasher=hasher)

    env.commit({
        "round": round_index,
        "prev_root": prev_root,
        "new_root": new_tree.root,
        "size": len(slot_keys),
        "depth": new_tree.depth,
        "windows": windows,
        "policy": policy.digest(),
        "entries": len(record_tags),
    })
    env.commit_many([
        {"s": slot_of[key_bytes], "l": new_leaves[slot_of[key_bytes]],
         "t": tag}
        for key_bytes, tag in record_tags
    ])


def _encode_wire(env: GuestEnv, wire: dict[str, Any]) -> bytes:
    payload = encode(wire)
    env.tick(len(payload) * DECODE_CYCLES_PER_BYTE, "decode")
    return payload


register_guest(rebuild_aggregation_guest)


class RebuildAggregator(Aggregator):
    """Drop-in alternative to :class:`~repro.core.aggregation.Aggregator`
    proving rounds by full reconstruction."""

    strategy = "rebuild"

    def _prove(self, state: CLogState,
               windows: list[RouterWindowInput],
               prev_receipt: Receipt | None) -> AggregationResult:
        ordered = order_windows(windows)
        builder = ExecutorEnvBuilder()
        builder.write({
            "round": state.round,
            "policy": self.policy.to_wire(),
            "prev_root": state.root,
            "prev_size": len(state),
            "num_routers": len(ordered),
        })
        if state.round > 0:
            builder.write(make_receipt_binding(prev_receipt))
        for frame in state.entry_frames():
            builder.write(frame)
        write_window_frames(builder, ordered)
        info = self._prover.prove(rebuild_aggregation_guest,
                                  builder.build())
        receipt = info.receipt
        if state.round > 0:
            receipt = resolve(receipt, prev_receipt)

        # Advance the host state the same way the guest did.
        new_state = state.clone()
        records = decode_records(ordered)
        for record in records:
            existing = new_state.get(record.key)
            new_state.set_entry(
                existing.merge(record, self.policy) if existing
                else CLogEntry.fresh(record))
        new_state.round = state.round + 1
        return AggregationResult(
            round=state.round,
            receipt=receipt,
            info=info,
            new_state=new_state,
            record_count=len(records),
            new_root=new_state.root,
        )
