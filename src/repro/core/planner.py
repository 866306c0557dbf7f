"""Query cost planning (paper §7, "Query complexity").

"While our ZKP framework is general-purpose and in principle supports
arbitrary queries, the cost of proof generation increases with query
complexity."  A provider therefore wants to *predict* a query's proving
cost before running the prover — for admission control, pricing, or
picking a backend.

The planner mirrors the query guest's metering analytically: it walks
the same cost constants (`repro.core.guest_programs`,
`repro.zkvm.cycles`) over the current CLog statistics, predicting the
two counts the guest meter keeps — cycles and sha-256 compressions.  A
prediction carries the same fields as a metered run, segmented by the
executor's own walk, so the cost model prices both with one formula.
Accuracy is checked in the tests (within a few percent of the metered
execution).

It also prices the *partitioned* strategy (`estimate_partitioned`) for
one query — the length-1 case of the fan-out, which is what the
crossover compares against the full scan: per-partition partial-query
proofs plus the merge guest, with the end-to-end latency the cost
model's fan-out critical path (``max(partition) + merge``) — which is
how ``choose_strategy`` decides whether splitting a query across the
proving engine pays for a given entry count.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError
from ..query import parse_query
from ..query.ast import AggFunc, Aggregate, Query
from ..query.fields import QUERYABLE_FIELDS, FieldKind
from ..serialization import encode
from ..zkvm import cycles as cy
from ..zkvm.costmodel import CostModel, ProverBackend
from .clog import CLogState
from .guest_programs import (
    DECODE_CYCLES_PER_BYTE,
    MERGE_CYCLES,
    PARSE_CYCLES_PER_BYTE,
    QUERY_NODE_CYCLES,
    QUERY_VIEW_CYCLES,
)

# Bytes of a leaf-hash preimage beyond the payload (the packed key).
_KEY_BYTES = 13
# Encoded entry-frame overhead beyond key+payload ({'key':…,'payload':…}).
_FRAME_OVERHEAD = 24
# Encoded size of a Digest (tag + 32 raw bytes).
_DIGEST_BYTES = 33
# Per-row structural overhead of a journal group row ([key, [values]]).
_GROUP_ROW_OVERHEAD = 4
# Encoded per-term result values: small ints (COUNT), wider ints
# (SUM/MIN/MAX over int columns), tag + 8-byte doubles.
_COUNT_VALUE_BYTES = 4
_INT_VALUE_BYTES = 7
_FLOAT_VALUE_BYTES = 9
# Encoded per-term *partial accumulator state* ({"c","t","mn","mx"}):
# int totals stay ints; float totals are exact [numerator, denominator]
# fraction pairs, which dominate the row.
_COUNT_STATE_BYTES = 23
_INT_STATE_BYTES = 30
_FLOAT_STATE_BYTES = 57
# A partition journal's header frame (root digest + eight small ints)
# and the fixed part of each per-query frame around its SQL text and
# accumulator states.
_PARTITION_HEADER_BYTES = 140
_QUERY_FRAME_OVERHEAD = 66

# Recomputing a receipt's claim digest in-guest: the (empty)
# assumptions list, then the 144-byte claim preimage.
_CLAIM_DIGEST_BLOCKS = cy.sha256_blocks(0) + cy.sha256_blocks(144)


@dataclass(frozen=True)
class QueryCostEstimate:
    """Predicted proving cost for one query (or one partition of one).

    Carries the counts :meth:`CostModel.estimate` prices a metered run
    from; the segment figures come from :func:`repro.zkvm.cycles.segments`,
    the walk the executor splits a real run with.
    """

    sql: str
    entries: int
    total_cycles: int
    sha_compressions: int

    @property
    def segment_count(self) -> int:
        return len(cy.segments(self.total_cycles))

    @property
    def padded_cycles(self) -> int:
        return sum(1 << po2 for _count, po2 in cy.segments(self.total_cycles))

    def seconds(
        self, model: CostModel | None = None, backend: ProverBackend = ProverBackend.CPU_ZKVM
    ) -> float:
        return (model or CostModel()).prove_seconds(self, backend)

    def minutes(self, model: CostModel | None = None) -> float:
        return self.seconds(model) / 60.0


@dataclass(frozen=True)
class PartitionedQueryCostEstimate:
    """Predicted cost of proving one query as partitions + merge."""

    sql: str
    entries: int
    num_partitions: int
    chunk_po2: int
    partition_estimates: tuple[QueryCostEstimate, ...]
    merge_estimate: QueryCostEstimate

    @property
    def total_cycles(self) -> int:
        return (
            sum(p.total_cycles for p in self.partition_estimates) + self.merge_estimate.total_cycles
        )


class _Tally:
    """A predicted execution, tallied the way the guest meter counts:
    generic cycles and sha-256 compressions."""

    def __init__(self) -> None:
        self.cycles = cy.EXECUTION_BASE_CYCLES
        self.sha = 0

    def commit(self, num_bytes: int) -> None:
        """One journal commit: word-rounded I/O plus its own padded hash."""
        self.cycles += cy.io_cycles(num_bytes)
        self.sha += cy.sha256_blocks(num_bytes)

    def priced(self, sql: str, entries: int) -> QueryCostEstimate:
        return QueryCostEstimate(
            sql=sql,
            entries=entries,
            total_cycles=self.cycles + self.sha * cy.SHA256_COMPRESS_CYCLES,
            sha_compressions=self.sha,
        )


def partition_layout(size: int, num_partitions: int) -> tuple[int, int]:
    """Aligned-chunk geometry for partitioned query proving.

    Picks the smallest power-of-two chunk that covers ``size`` leaves
    in at most ``num_partitions`` chunks; returns ``(chunk_po2,
    actual_partitions)``.  Chunks are subtree-aligned so each partition
    binds to the committed root through a single sibling path, and only
    the last chunk may be partial.
    """
    if size < 1:
        raise ConfigurationError("cannot partition an empty entry set")
    if num_partitions < 1:
        raise ConfigurationError("num_partitions must be >= 1")
    chunk_po2 = 0
    while _chunk_count(size, chunk_po2) > num_partitions:
        chunk_po2 += 1
    return chunk_po2, _chunk_count(size, chunk_po2)


def _chunk_count(size: int, chunk_po2: int) -> int:
    return (size + (1 << chunk_po2) - 1) >> chunk_po2


def _tree_depth(size: int) -> int:
    depth = 0
    while (1 << depth) < max(size, 1):
        depth += 1
    return depth


def _subtree_hashes(count: int) -> int:
    """Internal node hashes to rebuild a tree over ``count`` leaves."""
    hashes = 0
    width = count
    while width > 1:
        width = (width + 1) // 2
        hashes += width
    return hashes


class QueryPlanner:
    """Predicts query-guest cycles and sha-256 compressions from CLog
    statistics."""

    def __init__(self, state: CLogState, agg_journal_bytes: int) -> None:
        self.entries = len(state)
        self.agg_journal_bytes = agg_journal_bytes
        self._state = state
        payload_bytes = sum(len(payload) for _key, payload in state.merkle_map.slot_items())
        self.avg_payload = payload_bytes / self.entries if self.entries else 0.0
        self._views: list[dict] | None = None
        self._group_profiles: dict[str, tuple[int, float]] = {}

    def estimate(self, sql: str) -> QueryCostEstimate:
        query = parse_query(sql)
        return self._estimate(sql, query)

    def estimate_partitioned(self, sql: str, num_partitions: int) -> PartitionedQueryCostEstimate:
        """Price the partitioned strategy at ``num_partitions``."""
        query = parse_query(sql)
        chunk_po2, count = partition_layout(max(self.entries, 1), num_partitions)
        chunk = 1 << chunk_po2
        partition_estimates = []
        partial_bytes = []
        ranges = []
        for index in range(count):
            lo = index << chunk_po2
            hi = min(self.entries, lo + chunk)
            ranges.append((lo, hi))
            frame_bytes = self._partial_frame_bytes(sql, query, lo, hi)
            partial_bytes.append(frame_bytes)
            partition_estimates.append(
                self._estimate_partition(sql, query, hi - lo, chunk_po2, frame_bytes)
            )
        return PartitionedQueryCostEstimate(
            sql=sql,
            entries=self.entries,
            num_partitions=count,
            chunk_po2=chunk_po2,
            partition_estimates=tuple(partition_estimates),
            merge_estimate=self._estimate_merge(sql, query, partial_bytes, ranges),
        )

    def choose_strategy(
        self, sql: str, num_partitions: int | None, model: CostModel | None = None
    ) -> str:
        """``"partitioned"`` when splitting at ``num_partitions`` is
        modeled faster end-to-end than the full scan, else
        ``"full-scan"``.  Per-proof base overhead means partitioning
        only pays once the scan dominates — small states full-scan.
        """
        if num_partitions is None or num_partitions < 2 or self.entries < 2:
            return "full-scan"
        model = model or CostModel()
        serial = self.estimate(sql).seconds(model)
        fanout = self.estimate_partitioned(sql, num_partitions)
        partitioned = model.fanout_seconds(fanout.partition_estimates, fanout.merge_estimate)
        return "partitioned" if partitioned < serial else "full-scan"

    # -- per-strategy estimates ---------------------------------------------

    def _estimate(self, sql: str, query: Query) -> QueryCostEstimate:
        n = self.entries
        tally = _Tally()
        self._bind(tally)

        # Per-entry work: frame I/O, leaf hash, payload decode, view.
        self._scan(tally, n)

        # Tree reconstruction: n-1 node hashes (64-byte inputs) padded
        # to the power-of-two tree shape; approximate with n nodes.
        tally.sha += max(n, 1) * cy.sha256_blocks(64)

        # Parse + evaluate.
        tally.cycles += len(sql) * PARSE_CYCLES_PER_BYTE
        tally.cycles += n * query.node_count * QUERY_NODE_CYCLES

        # Journal commit: fixed header/labels plus — the part that
        # grows with group cardinality — one encoded row per distinct
        # group key.
        tally.commit(200 + 40 * len(query.labels) + self._group_rows_bytes(query, 0, n))
        return tally.priced(sql, n)

    def _estimate_partition(
        self, sql: str, query: Query, count: int, chunk_po2: int, frame_bytes: int
    ) -> QueryCostEstimate:
        """Mirror `query_partition_guest` for one ``count``-entry chunk
        proving one query (``frame_bytes``: its journal frame)."""
        depth = _tree_depth(self.entries)
        path_len = depth - chunk_po2
        tally = _Tally()
        # Partition header frame (queries + geometry + sibling path).
        tally.cycles += cy.io_cycles(95 + len(sql) + _DIGEST_BYTES * path_len)
        self._bind(tally)
        self._scan(tally, count)
        # Subtree rebuild, fold-up to chunk height, then sibling path.
        sub_depth = _tree_depth(max(count, 1))
        node_hashes = _subtree_hashes(count) + (chunk_po2 - sub_depth) + path_len
        tally.sha += node_hashes * cy.sha256_blocks(64)
        tally.cycles += len(sql) * PARSE_CYCLES_PER_BYTE
        tally.cycles += count * query.node_count * QUERY_NODE_CYCLES
        # Journal: the header frame, then the query's frame — each its
        # own commit (word-rounded I/O, separately padded hash).
        tally.commit(_PARTITION_HEADER_BYTES)
        tally.commit(frame_bytes)
        return tally.priced(sql, count)

    def _estimate_merge(
        self,
        sql: str,
        query: Query,
        partial_bytes: list[int],
        lo_hi_pairs: list[tuple[int, int]],
    ) -> QueryCostEstimate:
        """Mirror `query_merge_guest` over the partition journals
        (``partial_bytes``: each partition's frame for this query)."""
        tally = _Tally()
        tally.cycles += cy.io_cycles(55 + len(sql))  # merge header frame
        terms = len(query.aggregates)
        for frame_bytes, (lo, hi) in zip(partial_bytes, lo_hi_pairs):
            journal_bytes = _PARTITION_HEADER_BYTES + frame_bytes
            # Binding frame I/O + journal hash/decode + claim recompute
            # + the recorded assumption.
            tally.cycles += cy.io_cycles(journal_bytes + 160)
            tally.sha += cy.sha256_blocks(journal_bytes) + _CLAIM_DIGEST_BLOCKS
            tally.cycles += journal_bytes * DECODE_CYCLES_PER_BYTE
            tally.cycles += cy.ASSUMPTION_CYCLES
            rows = self._group_cardinality(query, lo, hi) if query.group_by is not None else 1
            tally.cycles += rows * terms * MERGE_CYCLES
        tally.cycles += len(sql) * PARSE_CYCLES_PER_BYTE
        tally.commit(200 + 40 * len(query.labels) + self._group_rows_bytes(query, 0, self.entries))
        return tally.priced(sql, self.entries)

    # -- shared terms --------------------------------------------------------

    def _bind(self, tally: _Tally) -> None:
        """Verify the aggregation binding: hash + decode the journal,
        recompute the claim digest, record the assumption."""
        tally.sha += cy.sha256_blocks(self.agg_journal_bytes) + _CLAIM_DIGEST_BLOCKS
        tally.cycles += (
            self.agg_journal_bytes * DECODE_CYCLES_PER_BYTE
            + cy.ASSUMPTION_CYCLES
            + cy.io_cycles(self.agg_journal_bytes + 200)
        )

    def _scan(self, tally: _Tally, entries: int) -> None:
        """Read ``entries`` entry frames: I/O, leaf hash, payload decode
        and query view, each at the state's average payload size."""
        frame_bytes = _KEY_BYTES + self.avg_payload + _FRAME_OVERHEAD
        tally.sha += entries * cy.sha256_blocks(int(_KEY_BYTES + self.avg_payload))
        tally.cycles += entries * (
            cy.io_cycles(int(frame_bytes))
            + int(self.avg_payload) * DECODE_CYCLES_PER_BYTE
            + QUERY_VIEW_CYCLES
        )

    # -- group statistics ----------------------------------------------------

    def _slot_views(self) -> list[dict]:
        if self._views is None:
            self._views = self._state.entry_views()
        return self._views

    def _group_profile(self, field: str, lo: int, hi: int) -> tuple[int, float]:
        """(distinct keys, average encoded key bytes) over a slot range."""
        cache_key = f"{field}:{lo}:{hi}"
        cached = self._group_profiles.get(cache_key)
        if cached is None:
            keys = {view[field] for view in self._slot_views()[lo:hi]}
            if keys:
                avg = sum(len(encode(key)) for key in keys) / len(keys)
            else:
                avg = 0.0
            cached = (len(keys), avg)
            self._group_profiles[cache_key] = cached
        return cached

    def _group_cardinality(self, query: Query, lo: int, hi: int) -> int:
        if query.group_by is None:
            return 0
        cardinality, _ = self._group_profile(query.group_by.name, lo, hi)
        return cardinality

    def _group_rows_bytes(self, query: Query, lo: int, hi: int) -> int:
        """Encoded bytes of the final journal's group rows."""
        if query.group_by is None:
            return 0
        cardinality, key_bytes = self._group_profile(query.group_by.name, lo, hi)
        per_row = _GROUP_ROW_OVERHEAD + key_bytes + sum(_value_bytes(a) for a in query.aggregates)
        return int(cardinality * per_row)

    def _partial_frame_bytes(self, sql: str, query: Query, lo: int, hi: int) -> int:
        """Encoded bytes of one query's partial-state frame in one
        partition's journal."""
        base = _QUERY_FRAME_OVERHEAD + len(sql)
        if query.group_by is None:
            return base + sum(_state_bytes(a) for a in query.aggregates)
        cardinality, key_bytes = self._group_profile(query.group_by.name, lo, hi)
        per_row = _GROUP_ROW_OVERHEAD + key_bytes + sum(_state_bytes(a) for a in query.aggregates)
        return int(base + len(query.group_by.name) + cardinality * per_row)


def _term_kind(aggregate: Aggregate) -> FieldKind | None:
    if aggregate.field is None:
        return None
    return QUERYABLE_FIELDS[aggregate.field.name]


def _value_bytes(aggregate: Aggregate) -> int:
    if aggregate.func is AggFunc.COUNT:
        return _COUNT_VALUE_BYTES
    if aggregate.func is AggFunc.AVG:
        return _FLOAT_VALUE_BYTES
    if _term_kind(aggregate) is FieldKind.FLOAT:
        return _FLOAT_VALUE_BYTES
    return _INT_VALUE_BYTES


def _state_bytes(aggregate: Aggregate) -> int:
    if aggregate.func is AggFunc.COUNT:
        return _COUNT_STATE_BYTES
    if _term_kind(aggregate) is FieldKind.FLOAT:
        return _FLOAT_STATE_BYTES
    return _INT_STATE_BYTES


def estimate_query_cost(service, sql: str) -> QueryCostEstimate:
    """Convenience: plan a query against a prover service's state."""
    journal_bytes = service.chain.latest.receipt.journal_size if len(service.chain) else 0
    return QueryPlanner(service.state, journal_bytes).estimate(sql)
