"""The zkVM guest programs (what would be the Rust guest crate).

The circuits:

* :data:`aggregation_guest` — Algorithm 1: verify the previous round's
  claim (via ``env.verify`` recursion), recompute every router window's
  hash against its published commitment, then fold each record into the
  CLog under verified Merkle updates, producing the new root.
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
guests defined here register themselves, as does the rebuild strategy's
in :mod:`repro.core.rebuild`.
"""

from __future__ import annotations

from typing import Any

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
) -> tuple[list[Digest], list[dict[str, Any]]]:
    """:func:`read_entries`, with each entry lowered to a query view
    (``QUERY_VIEW_CYCLES`` per entry, to "decode")."""
    leaves, wires = read_entries(env, hasher, count)
    env.tick(len(wires) * QUERY_VIEW_CYCLES, "decode")
    return leaves, [entry_view_from_wire(wire) for wire in wires]


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
# Every round strategy calls these; none restates them.  A verifier check
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


@guest_program("telemetry-delta-aggregation-v1")
def delta_aggregation_guest(env: GuestEnv) -> None:
    """Algorithm 1 over one *batch* of freshly committed RLogs.

    Identical to :data:`aggregation_guest` steps 2-3, but starting from
    an intermediate (root, size, depth) rather than the round boundary:
    a round's records are split across several deltas, proven as their
    windows commit, and folded by :data:`fold_guest` into one receipt
    whose journal is byte-identical to the monolithic guest's.

    The header carries ``seq`` — this delta's position in the round.
    Only delta 0 binds the previous round's receipt (step 1); every
    later delta trusts nothing about its starting root by itself, and
    becomes sound only once a fold chains it to delta 0 through the
    intermediate-root continuity checks.  The journal is a *streamed*
    header (the monolithic fields plus ``prev_size`` / ``prev_depth`` /
    ``seq``) followed by the same per-record items.
    """
    header = env.read()
    seq: int = header["seq"]
    policy = AggregationPolicy.from_wire(header["policy"])
    if seq < 0:
        env.abort("delta sequence number must be non-negative")
    if seq == 0:
        verify_previous_round(env, header["round"], header["prev_root"],
                              header["prev_size"], header["prev_depth"])
    windows, blobs = verify_window_commitments(env, header["num_routers"])
    root, size, depth, items = apply_witness_ops(
        env, policy, blobs, header["num_ops"], header["prev_root"],
        header["prev_size"], header["prev_depth"])
    env.commit({
        "round": header["round"],
        "prev_root": header["prev_root"],
        "prev_size": header["prev_size"],
        "prev_depth": header["prev_depth"],
        "new_root": root,
        "size": size,
        "depth": depth,
        "windows": windows,
        "policy": policy.digest(),
        "entries": len(items),
        "seq": [seq, seq],
    })
    env.commit_many(items)


@guest_program("telemetry-fold-v1")
def fold_guest(env: GuestEnv) -> None:
    """Recursive fold: merge one or two streamed child receipts.

    Each child is a :data:`delta_aggregation_guest` or :data:`fold_guest`
    receipt over a contiguous run of the round's deltas — its image id
    is pinned, so a journal of the right shape from any other guest
    cannot enter the tree.  Two children must be *adjacent*: the right
    child's starting (root, size, depth) is the left child's ending
    state and their sequence ranges abut, which by induction chains
    every item back to delta 0's verification of the previous round.

    A non-final fold re-commits the merged streamed journal.  The
    ``final`` fold additionally requires the merged run to start at
    delta 0 and commits exactly the monolithic :data:`aggregation_guest`
    journal — byte-identical, so clients and caches cannot tell a
    streamed round from a monolithic one.
    """
    header = env.read()
    round_index = header["round"]
    policy = AggregationPolicy.from_wire(header["policy"])
    policy_digest = policy.digest()
    num_children: int = header["num_children"]
    final: bool = header["final"]
    if num_children not in (1, 2):
        env.abort("fold takes one or two children")
    children: list[tuple[dict[str, Any], list[Any]]] = []
    for _ in range(num_children):
        binding = assume_receipt(env)
        if binding["image_id"] != delta_aggregation_guest.image_id \
                and binding["image_id"] != fold_guest.image_id:
            env.abort("fold child receipt was not produced by the "
                      "delta or fold guest")
        values = list(decode_stream(binding["journal"]))
        child = values[0] if values else None
        if not isinstance(child, dict) or "seq" not in child:
            env.abort("fold child journal is not a streamed header")
        if child["round"] != round_index:
            env.abort("fold child proves a different round")
        if child["policy"] != policy_digest:
            env.abort("fold child used a different aggregation policy")
        if child["entries"] != len(values) - 1:
            env.abort("fold child item count does not match its header")
        children.append((child, values[1:]))

    left = children[0][0]
    last = children[-1][0]
    if num_children == 2:
        right = children[1][0]
        if right["prev_root"] != left["new_root"] \
                or right["prev_size"] != left["size"] \
                or right["prev_depth"] != left["depth"]:
            env.abort("fold children are not contiguous: the right "
                      "child does not start where the left child ended")
        if right["seq"][0] != left["seq"][1] + 1:
            env.abort("fold children sequence ranges do not abut")
    env.tick(MERGE_CYCLES, "merge")

    journal = {
        "round": round_index,
        "prev_root": left["prev_root"],
        "new_root": last["new_root"],
        "size": last["size"],
        "depth": last["depth"],
        "windows": [window for child, _ in children
                    for window in child["windows"]],
        "policy": policy_digest,
        "entries": sum(child["entries"] for child, _ in children),
    }
    if final:
        if left["seq"][0] != 0:
            env.abort("final fold must cover the round from delta 0")
    else:
        journal.update(prev_size=left["prev_size"],
                       prev_depth=left["prev_depth"],
                       seq=[left["seq"][0], last["seq"][1]])
    env.commit(journal)
    for _, items in children:
        env.commit_many(items)


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
    every guest-defining module of the chain (``repro.core.chain`` names
    the rebuild guest), so the registry is complete before a job runs.
    """
    program = GUEST_REGISTRY.get(name)
    if program is None:
        raise ConfigurationError(
            f"unknown guest program {name!r}; registered: "
            f"{sorted(GUEST_REGISTRY)}")
    return program


for _program in (aggregation_guest, query_guest, partition_guest,
                 merge_guest, query_partition_guest, query_merge_guest,
                 delta_aggregation_guest, fold_guest,
                 federation_join_guest):
    register_guest(_program)
