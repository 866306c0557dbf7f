"""The zkVM guest programs (what would be the Rust guest crate).

The circuits:

* :data:`aggregation_guest` — Algorithm 1: verify the previous round's
  claim (via ``env.verify`` recursion), recompute every router window's
  hash against its published commitment, then fold each record into the
  CLog under verified Merkle updates, producing the new root.
* :data:`batched_aggregation_guest` — the same round, journal byte for
  byte, with step 3 done over one multiproof: each touched Merkle node
  is hashed once per root instead of twice per record.  The service's
  default round guest; Alg. 1 stays the Fig. 4 path.
* :data:`query_guest` — §4.2: bind to an aggregation claim, re-derive
  the committed root from the full entry set, evaluate the SQL query,
  and commit (query, root, result) to the journal.
* :data:`partition_guest` / :data:`merge_guest` — §7 "Proof
  parallelization": per-partition partial aggregation proofs merged by a
  guest that verifies each partition claim.
* :data:`query_partition_guest` / :data:`query_merge_guest` — the same
  decomposition applied to queries: each partition proves partial
  aggregates for a list of queries over an aligned slot range of the
  committed tree (bound to the aggregation root through a subtree
  sibling path) and one merge per query folds that query's partials
  into a journal byte-identical to :data:`query_guest`'s.

Everything the guests hash or verify is charged to the cycle meter; the
constants below set the generic-compute costs (decode, merge, predicate
evaluation) that the RISC-V instruction stream would incur.

The module also hosts the **guest registry**: proof jobs cross process
boundaries as data (:mod:`repro.engine`), so a worker needs to map a
guest *name* back to the in-process :class:`GuestProgram` object.  All
guests defined here register themselves.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Mapping

from ..hashing import (
    TAG_ASSUMPTION,
    TAG_CLAIM,
    TAG_COMMITMENT,
    TAG_JOURNAL,
    TAG_RLOG,
    Digest,
)
from ..errors import ConfigurationError
from ..merkle import MerkleTree
from ..merkle.memo import DigestMemo
from ..merkle.tree import EMPTY_ROOTS
from ..netflow.records import NetFlowRecord
from ..query import evaluate, evaluate_partial, merge_partials, parse_query
from ..serialization import decode, decode_stream
from ..zkvm.guest import GuestEnv, GuestProgram, guest_program
from .clog import CLogEntry, entry_view_from_wire
from .policy import AggregationPolicy
from .witness import OP_GROW, OP_INSERT, OP_UPDATE

# Generic-compute cycle charges (RISC-V work outside the sha accelerator).
DECODE_CYCLES_PER_BYTE = 2
MERGE_CYCLES = 120
QUERY_VIEW_CYCLES = 400
QUERY_NODE_CYCLES = 20
PARSE_CYCLES_PER_BYTE = 8
RECORD_TAG_BYTES = 16

#: Distinct committed payloads whose query views one process keeps
#: (~1.3 KiB each, so ~10.5 MiB when full).  A state larger than this
#: scans with no hits: every entry is evicted before it is read again.
ENTRY_VIEW_MEMO_CAPACITY = 1 << 13

# Payload bytes -> (packed key, read-only query view).  Both are a pure
# function of the payload, and a round changes at most its delta's
# payloads, so the scanning query guests decode each distinct committed
# payload once per process rather than once per query.  Like the Merkle
# digest memo it saves host CPU, never modeled cycles: the decode and
# view ticks are charged on a hit as on a miss.  Views are shared by
# every query that scans the payload, hence read-only.
ENTRY_VIEWS: DigestMemo[tuple[bytes, Mapping[str, Any]]] = \
    DigestMemo(ENTRY_VIEW_MEMO_CAPACITY)


def _guest_claim_digest(env: GuestEnv, binding: dict[str, Any]) -> Digest:
    """Recompute another receipt's claim digest from its components.

    Byte-for-byte the same construction as
    :meth:`repro.zkvm.receipt.ReceiptClaim.digest` (with no assumptions —
    chained receipts must be resolved/unconditional).  The caller then
    passes the digest to ``env.verify``, so assumption resolution forces
    the actual previous receipt to carry exactly these components —
    including the journal bytes provided here, which is how journal
    contents (e.g. the previous root) become trusted inside this guest.
    """
    journal_digest = env.tagged_hash(TAG_JOURNAL, binding["journal"],
                                     category="verify")
    assumptions_digest = env.hash_many(TAG_ASSUMPTION, [],
                                       category="verify")
    return env.tagged_hash(
        TAG_CLAIM,
        binding["image_id"].raw,
        binding["input_digest"].raw,
        journal_digest.raw,
        int(binding["exit_code"]).to_bytes(4, "big"),
        binding["total_cycles"].to_bytes(8, "big"),
        binding["segment_count"].to_bytes(4, "big"),
        assumptions_digest.raw,
        category="verify",
    )


def assume_receipt(env: GuestEnv) -> dict[str, Any]:
    """Read a receipt binding frame and assume its claim.

    The claim digest is recomputed from the binding's own components,
    so what the caller reads out of ``binding["journal"]`` is trusted
    once the host resolves the assumption.  Pinning
    ``binding["image_id"]`` stays with the caller.
    """
    binding = env.read()
    env.tick(len(binding["journal"]) * DECODE_CYCLES_PER_BYTE, "verify")
    env.verify(binding["image_id"], _guest_claim_digest(env, binding))
    return binding


def read_entries(
        env: GuestEnv, hasher: Any, count: int,
) -> tuple[list[Digest], list[dict[str, Any]]]:
    """Read ``count`` (key, payload) entry frames: leaf digests and
    decoded wire entries, in slot order.

    Buffered: the frames come through one ``read_batch`` syscall and the
    decode tick is one batch charge with the same total as a per-entry
    loop (``len(payload) * DECODE_CYCLES_PER_BYTE`` to "decode").
    """
    leaves: list[Digest] = []
    wires: list[dict[str, Any]] = []
    payload_bytes = 0
    for frame in env.read_batch(count):
        key_bytes: bytes = frame["key"]
        payload: bytes = frame["payload"]
        leaves.append(hasher.leaf(key_bytes + payload))
        payload_bytes += len(payload)
        wire = decode(payload)
        if wire["key"] != key_bytes:
            env.abort("entry payload key does not match frame key")
        wires.append(wire)
    env.tick(payload_bytes * DECODE_CYCLES_PER_BYTE, "decode")
    return leaves, wires


def _read_entry_views(
        env: GuestEnv, hasher: Any, count: int,
) -> tuple[list[Digest], list[Mapping[str, Any]]]:
    """:func:`read_entries`, with each entry lowered to a query view
    (``QUERY_VIEW_CYCLES`` per entry, to "decode").

    A payload an earlier scan decoded comes out of :data:`ENTRY_VIEWS`;
    every leaf is still hashed and every payload key still checked
    against its frame key, in slot order, before any view is built.
    """
    leaves: list[Digest] = []
    views: list[Any] = []
    fresh: list[tuple[int, bytes, dict[str, Any]]] = []
    payload_bytes = 0
    for frame in env.read_batch(count):
        key_bytes: bytes = frame["key"]
        payload: bytes = frame["payload"]
        leaves.append(hasher.leaf(key_bytes + payload))
        payload_bytes += len(payload)
        known = ENTRY_VIEWS.get(payload)
        if known is None:
            wire = decode(payload)
            packed, view = wire["key"], None
            fresh.append((len(views), payload, wire))
        else:
            packed, view = known
        if packed != key_bytes:
            env.abort("entry payload key does not match frame key")
        views.append(view)
    env.tick(payload_bytes * DECODE_CYCLES_PER_BYTE, "decode")
    env.tick(len(views) * QUERY_VIEW_CYCLES, "decode")
    for index, payload, wire in fresh:
        view = MappingProxyType(entry_view_from_wire(wire))
        ENTRY_VIEWS.put(payload, (wire["key"], view))
        views[index] = view
    return leaves, views


def _path_root(hasher: Any, leaf: Digest, index: int,
               siblings: list[Digest]) -> Digest:
    """Recompute the root implied by a sibling path (metered)."""
    digest = leaf
    pos = index
    for sibling in siblings:
        if pos & 1:
            digest = hasher.node(sibling, digest)
        else:
            digest = hasher.node(digest, sibling)
        pos >>= 1
    return digest


# -- Algorithm 1, one step each ------------------------------------------------
#
# Every round guest calls these; none restates them.  A verifier check
# that lives in N copies is sound only while all N stay in step.

def verify_previous_round(env: GuestEnv, round_index: int, root: Digest,
                          size: int, depth: int | None = None) -> None:
    """Step 1 — Verify Previous Aggregation (lines 1-4).

    Round ``n > 0`` assumes the previous receipt, whose journal header
    must name exactly the claimed starting state; round 0 must start
    from the empty CLog.  ``depth`` is ``None`` for a strategy that
    claims none (the rebuild guest recomputes the whole tree instead).
    """
    if round_index > 0:
        binding = assume_receipt(env)
        prev_header = next(decode_stream(binding["journal"]), None)
        if not isinstance(prev_header, dict):
            env.abort("previous journal has no header")
        if prev_header.get("new_root") != root \
                or prev_header.get("size") != size \
                or (depth is not None
                    and prev_header.get("depth") != depth) \
                or prev_header.get("round") != round_index - 1:
            env.abort("previous journal does not match claimed prev state")
    elif size != 0 or root != EMPTY_ROOTS[0] or depth not in (None, 0):
        env.abort("genesis round must start from an empty CLog")


def verify_window_commitments(
        env: GuestEnv, num_routers: int,
) -> tuple[list[dict[str, Any]], list[bytes]]:
    """Step 2 — Verify Authenticity of Raw Logs (lines 5-11).

    Recomputes every router window's hash against its published
    commitment.  Returns the journal's public ``windows`` list and the
    round's record blobs in processing order (the caller prices their
    decode).
    """
    windows: list[dict[str, Any]] = []
    blobs: list[bytes] = []
    for _ in range(num_routers):
        router_input = env.read()
        recomputed = env.hash_many(TAG_COMMITMENT, router_input["blobs"],
                                   category="commitment")
        if recomputed != router_input["commitment"]:
            env.abort(
                f"integrity check failed for router "
                f"{router_input['router_id']!r} window "
                f"{router_input['window_index']}: commitment mismatch")
        windows.append({
            "r": router_input["router_id"],
            "w": router_input["window_index"],
            "c": recomputed,
        })
        blobs.extend(router_input["blobs"])
    return windows, blobs


def apply_witness_ops(
        env: GuestEnv, policy: AggregationPolicy, blobs: list[bytes],
        num_ops: int, root: Digest, size: int, depth: int,
) -> tuple[Digest, int, int, list[dict[str, Any]]]:
    """Step 3 — Verify, Aggregate, and Update Merkle Tree (lines 12-23).

    Pairs each record with its witness op (grow/update/insert), checks
    the op against the running root and folds the record in along the
    same sibling path.  Returns the ending ``(root, size, depth)`` and
    one compact journal item per record.
    """
    hasher = env.merkle_hasher()
    items: list[dict[str, Any]] = []
    ops_remaining = num_ops
    for blob in blobs:
        env.tick(len(blob) * DECODE_CYCLES_PER_BYTE, "decode")
        record_wire = decode(blob)
        if ops_remaining <= 0:
            env.abort("witness exhausted before all records aggregated")
        op = env.read()
        ops_remaining -= 1
        if op["op"] == OP_GROW:
            root = hasher.node(root, EMPTY_ROOTS[depth])
            depth += 1
            if ops_remaining <= 0:
                env.abort("grow op not followed by an insert")
            op = env.read()
            ops_remaining -= 1
        siblings: list[Digest] = op["siblings"]
        if len(siblings) != depth:
            env.abort("witness path length does not match tree depth")
        slot: int = op["slot"]
        key_bytes: bytes = record_wire["key"]
        env.tick(MERGE_CYCLES, "aggregate")
        record = NetFlowRecord.from_wire(record_wire)
        if op["op"] == OP_UPDATE:
            old_payload: bytes = op["old_payload"]
            old_leaf = hasher.leaf(key_bytes + old_payload)
            if _path_root(hasher, old_leaf, slot, siblings) != root:
                env.abort("integrity check for existing CLog entry "
                          "failed (line 17)")
            env.tick(len(old_payload) * DECODE_CYCLES_PER_BYTE, "decode")
            entry = CLogEntry.from_payload(old_payload)
            if entry.key != record.key:
                env.abort("witness entry key does not match record key")
            new_entry = entry.merge(record, policy)
        elif op["op"] == OP_INSERT:
            if slot != size:
                env.abort("insert must target the append slot")
            if _path_root(hasher, EMPTY_ROOTS[0], slot, siblings) != root:
                env.abort("vacant-slot proof failed")
            new_entry = CLogEntry.fresh(record)
            size += 1
        else:
            env.abort(f"unknown witness op {op['op']!r}")
        new_payload = new_entry.to_payload()
        new_leaf = hasher.leaf(key_bytes + new_payload)
        root = _path_root(hasher, new_leaf, slot, siblings)
        record_tag = env.tagged_hash(
            TAG_RLOG, blob, category="commitment").raw[:RECORD_TAG_BYTES]
        items.append({"s": slot, "l": new_leaf, "t": record_tag})
    if ops_remaining != 0:
        env.abort("witness has more ops than records")
    return root, size, depth, items


@guest_program("telemetry-aggregation-v1")
def aggregation_guest(env: GuestEnv) -> None:
    """Algorithm 1, exactly as the paper lays it out.

    Input frames, in order:

    1. header: round, policy, prev root/size/depth, router and op counts;
    2. (round > 0 only) previous-receipt binding for Step 1;
    3. one frame per router: id, window, published commitment, raw blobs;
    4. one frame per witness op (grow/update/insert).

    Journal: a round header (public roots, sizes, window commitments)
    followed by one compact item per aggregated record.
    """
    header = env.read()
    policy = AggregationPolicy.from_wire(header["policy"])
    verify_previous_round(env, header["round"], header["prev_root"],
                          header["prev_size"], header["prev_depth"])
    windows, blobs = verify_window_commitments(env, header["num_routers"])
    root, size, depth, items = apply_witness_ops(
        env, policy, blobs, header["num_ops"], header["prev_root"],
        header["prev_size"], header["prev_depth"])
    env.commit({
        "round": header["round"],
        "prev_root": header["prev_root"],
        "new_root": root,
        "size": size,
        "depth": depth,
        "windows": windows,
        "policy": policy.digest(),
        "entries": len(items),
    })
    env.commit_many(items)


def _union_root(env: GuestEnv, hasher: Any,
                level: list[tuple[int, Digest]], size: int, depth: int,
                siblings: Any, prev_root: Digest,
                prev_depth: int) -> Digest:
    """The root at height ``depth`` of a padded tree of which ``level``
    gives some leaves, as ascending ``(slot, digest)`` pairs.

    Each node above a given leaf is hashed once.  A node past ``size``
    is its ``EMPTY_ROOTS`` constant, unhashed.  Any other node the walk
    needs is a sibling: past ``size`` the empty constant, at height
    ``prev_depth`` the previous root (a grown tree's left half), else
    the next digest of ``siblings`` — bottom-up, left to right.  With
    no leaf given, the tree is untouched: ``prev_root``.
    """
    for height in range(depth):
        above: list[tuple[int, Digest]] = []
        i = 0
        while i < len(level):
            pos, digest = level[i]
            if not pos & 1 and i + 1 < len(level) \
                    and level[i + 1][0] == pos + 1:
                left, right = digest, level[i + 1][1]
                i += 2
            else:
                if (pos ^ 1) << height >= size:
                    sibling = EMPTY_ROOTS[height]
                elif height == prev_depth:
                    sibling = prev_root
                else:
                    sibling = next(siblings, None)
                    if sibling is None:
                        env.abort("multiproof is missing a sibling")
                left, right = (sibling, digest) if pos & 1 \
                    else (digest, sibling)
                i += 1
            parent = pos >> 1
            above.append((parent, EMPTY_ROOTS[height + 1]
                          if parent << (height + 1) >= size
                          else hasher.node(left, right)))
        level = above
    return level[0][1] if level else prev_root


def apply_batched_update(
        env: GuestEnv, policy: AggregationPolicy, blobs: list[bytes],
        root: Digest, size: int, depth: int,
) -> tuple[Digest, int, int, list[dict[str, Any]]]:
    """Step 3 over one multiproof (lines 12-23, batched).

    Reads the touched pre-existing slots (ascending, each once) with
    their entries, and the siblings of the union of their paths and the
    round's append slots.  Folds every record into its entry in order —
    a new flow takes the next append slot at its first record — with
    one journal item per record, as :func:`apply_witness_ops` does.
    Then checks the old root over the union and computes the new one
    over the same union, hashing each touched node once per walk.
    """
    hasher = env.merkle_hasher()
    if size > 1 << depth:
        env.abort("previous size exceeds its tree's capacity")
    proof = env.read()
    slots: list[int] = proof["slots"]
    for index, slot in enumerate(slots):
        if not 0 <= slot < size:
            env.abort("witness slot is outside the previous state")
        if index and slot <= slots[index - 1]:
            env.abort("witness slots must be distinct and ascending")
    old_leaves, wires = read_entries(env, hasher, len(slots))
    entries: dict[bytes, list[Any]] = {}
    for slot, wire in zip(slots, wires):
        if wire["key"] in entries:
            env.abort("witness names one flow at two slots")
        entries[wire["key"]] = [slot, CLogEntry.from_wire(wire)]

    items: list[dict[str, Any]] = []
    new_leaves: dict[int, Digest] = {}
    new_size = size
    for blob in blobs:
        env.tick(len(blob) * DECODE_CYCLES_PER_BYTE, "decode")
        record_wire = decode(blob)
        env.tick(MERGE_CYCLES, "aggregate")
        record = NetFlowRecord.from_wire(record_wire)
        key_bytes: bytes = record_wire["key"]
        known = entries.get(key_bytes)
        if known is None:
            known = entries[key_bytes] = [new_size, CLogEntry.fresh(record)]
            new_size += 1
        else:
            known[1] = known[1].merge(record, policy)
        slot, entry = known
        leaf = hasher.leaf(key_bytes + entry.to_payload())
        new_leaves[slot] = leaf
        record_tag = env.tagged_hash(
            TAG_RLOG, blob, category="commitment").raw[:RECORD_TAG_BYTES]
        items.append({"s": slot, "l": leaf, "t": record_tag})
    if len(new_leaves) != len(slots) + new_size - size:
        env.abort("witness names a slot no record touches")

    vacant = range(size, min(new_size, 1 << depth))
    old_level = [*zip(slots, old_leaves),
                 *((slot, EMPTY_ROOTS[0]) for slot in vacant)]
    siblings = iter(proof["siblings"])
    if _union_root(env, hasher, old_level, size, depth, siblings, root,
                   depth) != root:
        env.abort("multiproof does not reproduce the previous root")
    if next(siblings, None) is not None:
        env.abort("multiproof has more siblings than the paths need")
    new_depth = depth
    while new_size > 1 << new_depth:
        new_depth += 1
    new_root = _union_root(env, hasher, sorted(new_leaves.items()),
                           new_size, new_depth, iter(proof["siblings"]),
                           root, depth)
    return new_root, new_size, new_depth, items


@guest_program("telemetry-aggregation-batched-v1")
def batched_aggregation_guest(env: GuestEnv) -> None:
    """Algorithm 1 with step 3 batched (:func:`apply_batched_update`).

    Input frames, in order:

    1. header: round, policy, prev root/size/depth, router count;
    2. (round > 0 only) previous-receipt binding for Step 1;
    3. one frame per router: id, window, published commitment, raw blobs;
    4. the multiproof: touched pre-existing ``slots``, union ``siblings``;
    5. one ``{key, payload}`` frame per touched slot, in slot order.

    Journal: byte-identical to :data:`aggregation_guest`'s over the same
    round — the final root depends only on the final leaves, and slots
    are assigned the same way.
    """
    header = env.read()
    policy = AggregationPolicy.from_wire(header["policy"])
    verify_previous_round(env, header["round"], header["prev_root"],
                          header["prev_size"], header["prev_depth"])
    windows, blobs = verify_window_commitments(env, header["num_routers"])
    root, size, depth, items = apply_batched_update(
        env, policy, blobs, header["prev_root"], header["prev_size"],
        header["prev_depth"])
    env.commit({
        "round": header["round"],
        "prev_root": header["prev_root"],
        "new_root": root,
        "size": size,
        "depth": depth,
        "windows": windows,
        "policy": policy.digest(),
        "entries": len(items),
    })
    env.commit_many(items)


def _commit_query_result(env: GuestEnv, sql: str, root: Digest,
                         round_index: int, result: Any) -> None:
    """The §4.2 query journal — one layout, whether the result came
    from a full scan or from merged partition partials."""
    env.commit({
        "query": sql,
        "root": root,
        "round": round_index,
        "labels": list(result.labels),
        "values": list(result.values),
        "matched": result.matched,
        "scanned": result.scanned,
        "group_by": result.group_by,
        "groups": [[key, list(values)]
                   for key, values in result.groups],
    })


@guest_program("telemetry-query-v1")
def query_guest(env: GuestEnv) -> None:
    """§4.2: prove a query result over the committed aggregation state.

    Input frames: query header; aggregation-receipt binding; then every
    CLog entry (key, payload) in slot order.  The guest re-derives the
    Merkle root from the full entry set and aborts unless it matches the
    root the bound aggregation claim committed to — so the query
    provably ran over exactly the attested dataset.
    """
    header = env.read()
    binding = assume_receipt(env)
    agg_header = next(decode_stream(binding["journal"]), None)
    if not isinstance(agg_header, dict):
        env.abort("aggregation journal has no header")
    root: Digest = agg_header["new_root"]
    size: int = agg_header["size"]
    if header["num_entries"] != size:
        env.abort(
            f"prover supplied {header['num_entries']} entries, "
            f"aggregation state holds {size}")

    hasher = env.merkle_hasher()
    leaves, views = _read_entry_views(env, hasher, size)
    tree = MerkleTree(leaves, hasher=hasher)
    if tree.root != root:
        env.abort("CLog entries do not reproduce the committed root")

    sql: str = header["query"]
    env.tick(len(sql) * PARSE_CYCLES_PER_BYTE, "parse")
    query = parse_query(sql)
    result = evaluate(
        query, views,
        cost_hook=lambda nodes: env.tick(nodes * QUERY_NODE_CYCLES,
                                         "evaluate"))
    _commit_query_result(env, sql, root, agg_header["round"], result)


@guest_program("telemetry-partition-v1")
def partition_guest(env: GuestEnv) -> None:
    """§7 parallelization: partial aggregation over one partition.

    Verifies the partition's window commitments and folds its records
    into *partial* per-flow aggregates (no Merkle state — partials are
    public journal outputs merged downstream).
    """
    header = env.read()
    policy = AggregationPolicy.from_wire(header["policy"])
    windows, blobs = verify_window_commitments(env, header["num_routers"])
    # Insertion-ordered: a flow keeps the slot of its first record.
    partials: dict[bytes, CLogEntry] = {}
    for blob in blobs:
        env.tick(len(blob) * DECODE_CYCLES_PER_BYTE, "decode")
        env.tick(MERGE_CYCLES, "aggregate")
        record = NetFlowRecord.from_wire(decode(blob))
        key_bytes = record.key.pack()
        existing = partials.get(key_bytes)
        if existing is None:
            partials[key_bytes] = CLogEntry.fresh(record)
        else:
            partials[key_bytes] = existing.merge(record, policy)
    env.commit({
        "partition": header["partition"],
        "windows": windows,
        "policy": policy.digest(),
        "entries": len(partials),
    })
    env.commit_many([{"k": key_bytes, "p": entry.to_payload()}
                     for key_bytes, entry in partials.items()])


@guest_program("telemetry-merge-v1")
def merge_guest(env: GuestEnv) -> None:
    """§7 parallelization: merge partition proofs into one final proof.

    Verifies each partition claim via ``env.verify``, combines the
    partial aggregates (associative policies only), builds the full
    Merkle tree in-guest, and commits the combined root — a single
    receipt standing for the whole round.
    """
    header = env.read()
    policy = AggregationPolicy.from_wire(header["policy"])
    # Insertion-ordered: a flow keeps the slot of its first partial.
    combined: dict[bytes, CLogEntry] = {}
    windows: list[dict[str, Any]] = []
    for _ in range(header["num_partitions"]):
        binding = assume_receipt(env)
        values = list(decode_stream(binding["journal"]))
        part_header = values[0] if values else None
        if not isinstance(part_header, dict):
            env.abort("partition journal has no header")
        if part_header["policy"] != policy.digest():
            env.abort("partition used a different aggregation policy")
        if binding["image_id"] != partition_guest.image_id:
            env.abort("partition receipt was not produced by the "
                      "partition guest")
        windows.extend(part_header["windows"])
        for item in values[1:]:
            env.tick(len(item["p"]) * DECODE_CYCLES_PER_BYTE, "decode")
            env.tick(MERGE_CYCLES, "aggregate")
            partial = CLogEntry.from_payload(item["p"])
            existing = combined.get(item["k"])
            if existing is None:
                combined[item["k"]] = partial
            else:
                combined[item["k"]] = existing.combine(partial, policy)
    hasher = env.merkle_hasher()
    leaves = [hasher.leaf(key_bytes + entry.to_payload())
              for key_bytes, entry in combined.items()]
    tree = MerkleTree(leaves, hasher=hasher)
    env.commit({
        "round": header["round"],
        "new_root": tree.root,
        "size": len(combined),
        "depth": tree.depth,
        "windows": windows,
        "policy": policy.digest(),
        "entries": len(combined),
    })


@guest_program("telemetry-query-partition-v2")
def query_partition_guest(env: GuestEnv) -> None:
    """Partitioned §4.2 query proving: partial aggregates for one or
    more queries over one aligned slot range of the committed CLog.

    Input frames: partition header (a ``queries`` list, partition
    geometry, subtree sibling path); aggregation-receipt binding; then
    the partition's entries (key, payload) in slot order.  The guest
    rebuilds the partition's aligned-subtree node from its entries
    (padding with empty-subtree roots, mirroring the main tree's
    right-padding rule) and folds it up the sibling path to the
    aggregation root — proving the entries are exactly slots
    ``[start, start + count)`` of the attested dataset, so partitions
    that each verify and together tile ``[0, size)`` give the same
    completeness guarantee as a full scan.  That work (decoding every
    entry, hashing the subtree against the committed root) is paid once
    however many queries ride the scan; each query is then evaluated
    over the shared entry views, so per-query marginal cost is
    evaluation only.

    Journal: one header frame (partition geometry, the shared
    root/round/size, ``num_queries`` and the scanned count), then one
    frame per query in header order carrying that query's text and
    mergeable accumulator states — not final values.
    """
    header = env.read()
    binding = assume_receipt(env)
    agg_header = next(decode_stream(binding["journal"]), None)
    if not isinstance(agg_header, dict):
        env.abort("aggregation journal has no header")
    root: Digest = agg_header["new_root"]
    size: int = agg_header["size"]
    if size <= 0:
        env.abort("cannot partition an empty CLog")

    queries: list[str] = header["queries"]
    if not queries:
        env.abort("partition needs at least one query")
    partition: int = header["partition"]
    num_partitions: int = header["num_partitions"]
    chunk_po2: int = header["chunk_po2"]
    start: int = header["start"]
    count: int = header["count"]
    siblings: list[Digest] = header["siblings"]

    depth = 0
    while (1 << depth) < size:
        depth += 1
    if not 0 <= chunk_po2 <= depth:
        env.abort("chunk size out of range for the committed tree")
    chunk = 1 << chunk_po2
    if num_partitions != (size + chunk - 1) // chunk:
        env.abort("partition count does not tile the committed tree")
    if not 0 <= partition < num_partitions:
        env.abort("partition index out of range")
    if start != partition << chunk_po2 \
            or count != min(size - start, chunk) or count <= 0:
        env.abort("partition range does not match its slot alignment")
    if len(siblings) != depth - chunk_po2:
        env.abort("sibling path length does not match partition depth")

    hasher = env.merkle_hasher()
    leaves, views = _read_entry_views(env, hasher, count)
    subtree = MerkleTree(leaves, hasher=hasher)
    sub_root = subtree.root
    for height in range(subtree.depth, chunk_po2):
        sub_root = hasher.node(sub_root, EMPTY_ROOTS[height])
    if _path_root(hasher, sub_root, partition, siblings) != root:
        env.abort("partition entries do not reproduce the committed root")

    env.commit({
        "root": root,
        "round": agg_header["round"],
        "size": size,
        "partition": partition,
        "num_partitions": num_partitions,
        "chunk_po2": chunk_po2,
        "start": start,
        "num_queries": len(queries),
        "scanned": count,
    })
    for sql in queries:
        env.tick(len(sql) * PARSE_CYCLES_PER_BYTE, "parse")
        query = parse_query(sql)
        partial = evaluate_partial(
            query, views,
            cost_hook=lambda nodes: env.tick(nodes * QUERY_NODE_CYCLES,
                                             "evaluate"))
        frame = {"query": sql, "group_by": partial.group_by}
        frame.update(partial.to_wire())
        env.commit(frame)


@guest_program("telemetry-query-merge-v2")
def query_merge_guest(env: GuestEnv) -> None:
    """Fold *one query's* partials out of the partition receipts into
    the final §4.2 query journal.

    A fan-out emits one merge receipt per query, so every client gets a
    standalone proof: this guest verifies one resolved partition
    receipt per partition — pinning :data:`query_partition_guest`'s
    image id, so a journal of the right shape from any *other* guest
    cannot be folded in — checks the partitions tile the committed
    entry set exactly (same root/round/size/chunk, every partition
    index exactly once, scanned counts summing to the size), selects
    frame ``1 + query_index`` from each journal (cross-checking the
    frame's query text), and commits a journal byte-identical to the
    single-pass :data:`query_guest`'s for that query.
    """
    header = env.read()
    sql: str = header["query"]
    query_index: int = header["query_index"]
    num_partitions: int = header["num_partitions"]
    if num_partitions < 1:
        env.abort("merge needs at least one partition")
    if query_index < 0:
        env.abort("query index must be non-negative")
    root: Digest | None = None
    round_index = None
    size = None
    chunk_po2 = None
    seen: set[int] = set()
    scanned_total = 0
    partials: list[dict[str, Any]] = []
    for _ in range(num_partitions):
        binding = assume_receipt(env)
        if binding["image_id"] != query_partition_guest.image_id:
            env.abort("partition receipt was not produced by the "
                      "query partition guest")
        values = list(decode_stream(binding["journal"]))
        part = values[0] if values else None
        if not isinstance(part, dict) or "num_queries" not in part:
            env.abort("partition journal has no header frame")
        if len(values) != 1 + part["num_queries"]:
            env.abort("partition journal frame count does not match "
                      "its header")
        if query_index >= part["num_queries"]:
            env.abort("query index out of range for the partition")
        if part["num_partitions"] != num_partitions:
            env.abort("partition disagrees on the partition count")
        if root is None:
            root = part["root"]
            round_index = part["round"]
            size = part["size"]
            chunk_po2 = part["chunk_po2"]
        elif part["root"] != root or part["round"] != round_index \
                or part["size"] != size \
                or part["chunk_po2"] != chunk_po2:
            env.abort("partitions bind different aggregation states")
        index = part["partition"]
        if index in seen:
            env.abort(f"partition {index} appears twice")
        seen.add(index)
        if part["start"] != index << chunk_po2:
            env.abort("partition start does not match its index")
        scanned_total += part["scanned"]
        frame = values[1 + query_index]
        if not isinstance(frame, dict) or frame.get("query") != sql:
            env.abort("selected frame proves a different query")
        partials.append(frame)
    if len(seen) != num_partitions or scanned_total != size:
        env.abort("partitions do not cover the committed entry set")

    env.tick(len(sql) * PARSE_CYCLES_PER_BYTE, "parse")
    query = parse_query(sql)
    result = merge_partials(
        query, partials,
        cost_hook=lambda states: env.tick(states * MERGE_CYCLES,
                                          "merge"))
    _commit_query_result(env, sql, root, round_index, result)


# The one query every provider proves for a federation round: total
# traffic, total loss, flow count.  The join guest pins the exact SQL so
# no provider can substitute a filtered view of its own round.
FEDERATION_TOTALS_SQL = \
    "SELECT SUM(packets), SUM(lost_packets), COUNT(*) FROM clogs"
JOIN_CYCLES_PER_PROVIDER = 150
PPM = 1_000_000


@guest_program("telemetry-federation-join-v1")
def federation_join_guest(env: GuestEnv) -> None:
    """ROADMAP item 4: prove a cross-provider join from K verified
    query receipts — the auditor checks one receipt instead of trusting
    its own arithmetic over K query responses.

    Input frames: a federation header (provider names in delivery-chain
    order, their published round roots, join thresholds); then one
    *resolved* query-receipt binding per provider, each proving the
    canonical :data:`FEDERATION_TOTALS_SQL` over that provider's
    committed round.  The guest verifies every binding (image id pinned
    to the query guests), checks each proven root against the published
    root in the header — a provider whose published root does not match
    its proven round deterministically aborts the join — and computes
    end-to-end path loss, the inter-domain traffic matrix and an SLA
    attestation over the proven totals.

    Traffic model (the shape ``build_federation_scenario`` constructs):
    providers hand traffic down the chain in header order; per provider
    ``SUM(packets)`` is what arrived at its ingress and ``SUM(packets)
    − SUM(lost_packets)`` what it delivered downstream (each egress
    link's loss is charged to the upstream domain, as in the two-party
    peering model).  All arithmetic is exact-integer in parts-per-
    million, so the attestation is deterministic across hosts.
    """
    header = env.read()
    num_providers: int = header["num_providers"]
    providers: list[str] = list(header["providers"])
    roots: list[Digest] = list(header["roots"])
    tolerance_ppm: int = header["tolerance_ppm"]
    sla_loss_ppm: int = header["sla_loss_ppm"]
    if num_providers < 2:
        env.abort("a federation join needs at least two providers")
    if len(providers) != num_providers \
            or len(roots) != num_providers:
        env.abort("provider names/roots do not match num_providers")
    if tolerance_ppm < 0 or sla_loss_ppm < 0:
        env.abort("federation thresholds must be non-negative")

    rounds: list[int] = []
    packets: list[int] = []
    lost: list[int] = []
    flows: list[int] = []
    for index in range(num_providers):
        binding = assume_receipt(env)
        if binding["image_id"] not in (query_guest.image_id,
                                       query_merge_guest.image_id):
            env.abort("federation join input was not produced by a "
                      "query guest")
        values = list(decode_stream(binding["journal"]))
        journal = values[0] if len(values) == 1 else None
        if not isinstance(journal, dict):
            env.abort("provider journal is not a single query header")
        if journal["query"] != FEDERATION_TOTALS_SQL:
            env.abort(f"provider {providers[index]!r} proved a "
                      "different query than the federation totals")
        if journal["root"] != roots[index]:
            env.abort(f"provider {providers[index]!r} published a "
                      "root that does not match its proven round")
        prov_packets, prov_lost, prov_flows = journal["values"]
        prov_packets = int(prov_packets or 0)
        prov_lost = int(prov_lost or 0)
        prov_flows = int(prov_flows or 0)
        if prov_lost < 0 or prov_packets < prov_lost:
            env.abort(f"provider {providers[index]!r} proved more "
                      "loss than traffic")
        rounds.append(int(journal["round"]))
        packets.append(prov_packets)
        lost.append(prov_lost)
        flows.append(prov_flows)
    env.tick(num_providers * JOIN_CYCLES_PER_PROVIDER, "merge")

    delivered = [packets[i] - lost[i] for i in range(num_providers)]
    boundaries: list[list[Any]] = []
    matrix: list[list[Any]] = []
    boundaries_ok = True
    for i in range(num_providers - 1):
        sent = delivered[i]
        received = packets[i + 1]
        gap = sent - received
        larger = max(sent, received)
        within = larger == 0 \
            or abs(gap) * PPM <= tolerance_ppm * larger
        ok = within and flows[i] == flows[i + 1]
        boundaries_ok = boundaries_ok and ok
        boundaries.append([providers[i], providers[i + 1], sent,
                           received, gap, ok])
        matrix.append([providers[i], providers[i + 1], sent])

    offered = packets[0]
    end_delivered = delivered[-1]
    path_lost = offered - end_delivered
    loss_ppm = path_lost * PPM // offered if offered else 0
    provider_ok: list[bool] = []
    for i in range(num_providers):
        internal_ppm = lost[i] * PPM // packets[i] if packets[i] else 0
        provider_ok.append(internal_ppm <= sla_loss_ppm)
    sla_ok = boundaries_ok and all(provider_ok)

    env.commit({
        "providers": providers,
        "roots": roots,
        "rounds": rounds,
        "totals": [[packets[i], lost[i], flows[i]]
                   for i in range(num_providers)],
        "boundaries": boundaries,
        "matrix": matrix,
        "path": {
            "offered": offered,
            "delivered": end_delivered,
            "lost": path_lost,
            "loss_ppm": loss_ppm,
        },
        "sla": {
            "tolerance_ppm": tolerance_ppm,
            "loss_ppm_limit": sla_loss_ppm,
            "providers": provider_ok,
            "ok": sla_ok,
        },
    })


# -- guest registry ----------------------------------------------------------

GUEST_REGISTRY: dict[str, GuestProgram] = {}


def register_guest(program: GuestProgram) -> GuestProgram:
    """Make ``program`` resolvable by name (idempotent for the same
    object; re-registering a *different* program under a taken name is a
    configuration error — silent shadowing would break the receipt↔code
    binding)."""
    existing = GUEST_REGISTRY.get(program.name)
    if existing is not None and existing is not program:
        raise ConfigurationError(
            f"guest name {program.name!r} already registered with image "
            f"{existing.image_id.short()}…")
    GUEST_REGISTRY[program.name] = program
    return program


def resolve_guest(name: str) -> GuestProgram:
    """Look up a registered guest by name.

    Importing any ``repro.core`` module runs the package, which loads
    this module and so registers every guest it defines before a job
    runs.
    """
    program = GUEST_REGISTRY.get(name)
    if program is None:
        raise ConfigurationError(
            f"unknown guest program {name!r}; registered: "
            f"{sorted(GUEST_REGISTRY)}")
    return program


for _program in (aggregation_guest, batched_aggregation_guest,
                 query_guest, partition_guest, merge_guest,
                 query_partition_guest, query_merge_guest,
                 federation_join_guest):
    register_guest(_program)


# -- what each guest executes --------------------------------------------------
#
# The ``repro`` modules each registered guest runs, recorded cold on the
# pinned fixtures of ``tests/unit/test_guest_programs.py``, which fails
# when a guest starts or stops executing one.  ``VM_MODULES`` are the
# guest API and its cycle meter, which every guest runs; the rest are
# each guest's semantics.  The image id hashes none of this yet; the
# table is declared here, outside every guest function, because the
# image id hashes a guest's source, decorator included.

VM_MODULES = frozenset({"repro.zkvm.guest", "repro.zkvm.cycles"})

_ROUND = ("repro.core.clog", "repro.core.policy", "repro.netflow.records")
_TREE = ("repro.merkle.memo", "repro.merkle.tree")
_SQL = ("repro.query.ast", "repro.query.evaluator", "repro.query.lexer",
        "repro.query.parser")
_SCAN = ("repro.core.clog", "repro.netflow.records", *_TREE, *_SQL,
         "repro.query.vectorized")

GUEST_MODULES: dict[str, frozenset[str]] = {
    name: frozenset(("repro.core.guest_programs", "repro.hashing",
                     "repro.serialization", *semantics))
    for name, semantics in {
        "telemetry-aggregation-v1": (*_ROUND, "repro.merkle.memo"),
        "telemetry-aggregation-batched-v1": (*_ROUND, "repro.merkle.memo"),
        "telemetry-partition-v1": _ROUND,
        "telemetry-merge-v1": (*_ROUND, *_TREE),
        "telemetry-query-v1": _SCAN,
        "telemetry-query-partition-v2": _SCAN,
        "telemetry-query-merge-v2": _SQL,
        "telemetry-federation-join-v1": (),
    }.items()
}
