"""Query cost planning (paper §7, "Query complexity").

"While our ZKP framework is general-purpose and in principle supports
arbitrary queries, the cost of proof generation increases with query
complexity."  A provider therefore wants to *predict* a query's proving
cost before running the prover — for admission control, pricing, or
picking a backend.

The planner mirrors the query guest's metering analytically: it walks
the same cost constants (`repro.core.guest_programs`,
`repro.zkvm.cycles`) over the current CLog statistics, yielding a cycle
estimate the cost model converts to seconds per backend.  Accuracy is
checked in the tests (within a few percent of the metered execution).

It also prices the *partitioned* strategy (`estimate_partitioned`) for
one query — the length-1 case of the fan-out, which is what the
crossover compares against the full scan: per-partition partial-query
proofs plus the merge guest, with the
end-to-end latency modeled as ``max(partition) + merge`` — which is how
``choose_strategy`` decides whether splitting a query across the
proving engine pays for a given entry count.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError, ProofError
from ..query import parse_query
from ..query.ast import AggFunc, Aggregate, Query
from ..query.fields import QUERYABLE_FIELDS, FieldKind
from ..serialization import encode
from ..zkvm import Executor
from ..zkvm import cycles as cy
from ..zkvm.costmodel import CostModel, ProverBackend
from ..zkvm.receipt import ExitCode
from .aggregation import build_round_input, decode_records, order_windows
from .clog import CLogState
from .guest_programs import (
    DECODE_CYCLES_PER_BYTE,
    MERGE_CYCLES,
    PARSE_CYCLES_PER_BYTE,
    QUERY_NODE_CYCLES,
    QUERY_VIEW_CYCLES,
    aggregation_guest,
    delta_aggregation_guest,
    fold_guest,
)
from .policy import DEFAULT_POLICY
from .witness import build_witness

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


@dataclass(frozen=True)
class QueryCostEstimate:
    """Predicted proving cost for one query (or one partition of one)."""

    sql: str
    entries: int
    predicted_cycles: int
    predicted_segments: int

    def seconds(self, model: CostModel | None = None,
                backend: ProverBackend = ProverBackend.CPU_ZKVM
                ) -> float:
        model = model or CostModel()
        if backend is ProverBackend.SPECIALIZED_HASH:
            # Rough: compressions ≈ hash cycles / cost-per-block.
            compressions = self.predicted_cycles \
                // cy.SHA256_COMPRESS_CYCLES
            return compressions / model.specialized_hashes_per_second \
                + model.base_overhead
        return _zkvm_seconds(self.predicted_cycles, model, backend)

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
    def predicted_cycles(self) -> int:
        return sum(p.predicted_cycles for p in self.partition_estimates) \
            + self.merge_estimate.predicted_cycles

    def modeled_seconds(self, model: CostModel | None = None,
                        backend: ProverBackend =
                        ProverBackend.CPU_ZKVM) -> float:
        """End-to-end latency with partitions proven concurrently."""
        model = model or CostModel()
        slowest = max(p.seconds(model, backend)
                      for p in self.partition_estimates)
        return slowest + self.merge_estimate.seconds(model, backend)

    def sequential_seconds(self, model: CostModel | None = None,
                           backend: ProverBackend =
                           ProverBackend.CPU_ZKVM) -> float:
        """The same proofs generated one at a time."""
        model = model or CostModel()
        total = sum(p.seconds(model, backend)
                    for p in self.partition_estimates)
        return total + self.merge_estimate.seconds(model, backend)


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


def _segment_sizes(total: int) -> list[int]:
    sizes = []
    remaining = max(total, 1)
    while remaining > 0:
        chunk = min(remaining, cy.SEGMENT_CYCLE_LIMIT)
        sizes.append(chunk)
        remaining -= chunk
    return sizes


def _po2(count: int) -> int:
    po2 = cy.SEGMENT_MIN_PO2
    while (1 << po2) < count:
        po2 += 1
    return po2


def _zkvm_seconds(cycles: int, model: CostModel,
                  backend: ProverBackend) -> float:
    """Modeled CPU/GPU zkVM latency for ``cycles`` predicted cycles.

    One segmentation drives both the padded-cycle sum and the
    per-segment overhead count — the same `_segment_sizes` walk that
    produces ``predicted_segments`` at estimate time, so the two can
    never disagree.
    """
    segments = _segment_sizes(cycles)
    padded = sum(1 << _po2(size) for size in segments)
    seconds = padded / model.cpu_cycles_per_second \
        + len(segments) * model.segment_overhead \
        + model.base_overhead
    if backend is ProverBackend.GPU_ZKVM:
        seconds /= model.gpu_speedup
    return seconds


def _tagged_hash_cycles(payload_bytes: int) -> int:
    return ((payload_bytes + 9 + 63) // 64) * cy.SHA256_COMPRESS_CYCLES


# Recomputing a receipt's claim digest in-guest: the (empty)
# assumptions list, then the 144-byte claim preimage.
_CLAIM_DIGEST_CYCLES = _tagged_hash_cycles(0) + _tagged_hash_cycles(144)


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


def _priced(sql: str, entries: int, cycles: float) -> QueryCostEstimate:
    total = int(cycles)
    return QueryCostEstimate(
        sql=sql,
        entries=entries,
        predicted_cycles=total,
        predicted_segments=len(_segment_sizes(total)),
    )


class QueryPlanner:
    """Predicts query-guest cycles from CLog statistics."""

    def __init__(self, state: CLogState,
                 agg_journal_bytes: int) -> None:
        self.entries = len(state)
        self.agg_journal_bytes = agg_journal_bytes
        self._state = state
        payload_bytes = sum(len(payload) for _key, payload
                            in state.merkle_map.slot_items())
        self.avg_payload = (payload_bytes / self.entries
                            if self.entries else 0.0)
        self._views: list[dict] | None = None
        self._group_profiles: dict[str, tuple[int, float]] = {}

    def estimate(self, sql: str) -> QueryCostEstimate:
        query = parse_query(sql)
        return self._estimate(sql, query)

    def estimate_partitioned(self, sql: str, num_partitions: int
                             ) -> PartitionedQueryCostEstimate:
        """Price the partitioned strategy at ``num_partitions``."""
        query = parse_query(sql)
        chunk_po2, count = partition_layout(max(self.entries, 1),
                                            num_partitions)
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
            partition_estimates.append(self._estimate_partition(
                sql, query, hi - lo, chunk_po2, frame_bytes))
        return PartitionedQueryCostEstimate(
            sql=sql,
            entries=self.entries,
            num_partitions=count,
            chunk_po2=chunk_po2,
            partition_estimates=tuple(partition_estimates),
            merge_estimate=self._estimate_merge(sql, query,
                                                partial_bytes, ranges),
        )

    def choose_strategy(self, sql: str, num_partitions: int | None,
                        model: CostModel | None = None) -> str:
        """``"partitioned"`` when splitting at ``num_partitions`` is
        modeled faster end-to-end than the full scan, else
        ``"full-scan"``.  Per-proof base overhead means partitioning
        only pays once the scan dominates — small states full-scan.
        """
        if num_partitions is None or num_partitions < 2 \
                or self.entries < 2:
            return "full-scan"
        model = model or CostModel()
        serial = self.estimate(sql).seconds(model)
        partitioned = self.estimate_partitioned(
            sql, num_partitions).modeled_seconds(model)
        return "partitioned" if partitioned < serial else "full-scan"

    # -- per-strategy estimates ---------------------------------------------

    def _estimate(self, sql: str, query: Query) -> QueryCostEstimate:
        n = self.entries
        cycles = cy.EXECUTION_BASE_CYCLES
        cycles += self._binding_cycles()

        # Per-entry work: frame I/O, leaf hash, payload decode, view.
        cycles += n * self._per_entry_cycles()

        # Tree reconstruction: n-1 node hashes (64-byte inputs) padded
        # to the power-of-two tree shape; approximate with n nodes.
        cycles += max(n, 1) * _tagged_hash_cycles(64)

        # Parse + evaluate.
        cycles += len(sql) * PARSE_CYCLES_PER_BYTE
        cycles += n * query.node_count * QUERY_NODE_CYCLES

        # Journal commit: fixed header/labels plus — the part that
        # grows with group cardinality — one encoded row per distinct
        # group key.
        result_bytes = 200 + 40 * len(query.labels) \
            + self._group_rows_bytes(query, 0, n)
        cycles += cy.io_cycles(result_bytes) \
            + _tagged_hash_cycles(result_bytes)

        return _priced(sql, n, cycles)

    def _estimate_partition(self, sql: str, query: Query, count: int,
                            chunk_po2: int,
                            frame_bytes: int) -> QueryCostEstimate:
        """Mirror `query_partition_guest` for one ``count``-entry chunk
        proving one query (``frame_bytes``: its journal frame)."""
        depth = _tree_depth(self.entries)
        path_len = depth - chunk_po2
        cycles = cy.EXECUTION_BASE_CYCLES
        # Partition header frame (queries + geometry + sibling path).
        cycles += cy.io_cycles(95 + len(sql)
                               + _DIGEST_BYTES * path_len)
        cycles += self._binding_cycles()
        cycles += count * self._per_entry_cycles()
        # Subtree rebuild, fold-up to chunk height, then sibling path.
        sub_depth = _tree_depth(max(count, 1))
        node_hashes = _subtree_hashes(count) \
            + (chunk_po2 - sub_depth) + path_len
        cycles += node_hashes * _tagged_hash_cycles(64)
        cycles += len(sql) * PARSE_CYCLES_PER_BYTE
        cycles += count * query.node_count * QUERY_NODE_CYCLES
        # Journal: the header frame, then the query's frame — each its
        # own commit (word-rounded I/O, separately padded hash).
        for committed in (_PARTITION_HEADER_BYTES, frame_bytes):
            cycles += cy.io_cycles(committed) \
                + _tagged_hash_cycles(committed)
        return _priced(sql, count, cycles)

    def _estimate_merge(self, sql: str, query: Query,
                        partial_bytes: list[int],
                        lo_hi_pairs: list[tuple[int, int]]
                        ) -> QueryCostEstimate:
        """Mirror `query_merge_guest` over the partition journals
        (``partial_bytes``: each partition's frame for this query)."""
        cycles = cy.EXECUTION_BASE_CYCLES
        cycles += cy.io_cycles(55 + len(sql))  # merge header frame
        terms = len(query.aggregates)
        for frame_bytes, (lo, hi) in zip(partial_bytes, lo_hi_pairs):
            journal_bytes = _PARTITION_HEADER_BYTES + frame_bytes
            # Binding frame I/O + journal hash/decode + claim recompute
            # + the recorded assumption.
            cycles += cy.io_cycles(journal_bytes + 160)
            cycles += _tagged_hash_cycles(journal_bytes)
            cycles += journal_bytes * DECODE_CYCLES_PER_BYTE
            cycles += _CLAIM_DIGEST_CYCLES
            cycles += cy.ASSUMPTION_CYCLES
            rows = self._group_cardinality(query, lo, hi) \
                if query.group_by is not None else 1
            cycles += rows * terms * MERGE_CYCLES
        cycles += len(sql) * PARSE_CYCLES_PER_BYTE
        result_bytes = 200 + 40 * len(query.labels) \
            + self._group_rows_bytes(query, 0, self.entries)
        cycles += cy.io_cycles(result_bytes) \
            + _tagged_hash_cycles(result_bytes)
        return _priced(sql, self.entries, cycles)

    # -- shared terms --------------------------------------------------------

    def _binding_cycles(self) -> int:
        """Verify the aggregation binding: hash + decode the journal,
        recompute the claim digest, record the assumption."""
        return (_tagged_hash_cycles(self.agg_journal_bytes)
                + self.agg_journal_bytes * DECODE_CYCLES_PER_BYTE
                + _CLAIM_DIGEST_CYCLES
                + cy.ASSUMPTION_CYCLES
                + cy.io_cycles(self.agg_journal_bytes + 200))

    def _per_entry_cycles(self) -> int:
        frame_bytes = _KEY_BYTES + self.avg_payload + _FRAME_OVERHEAD
        return (cy.io_cycles(int(frame_bytes))
                + _tagged_hash_cycles(int(_KEY_BYTES + self.avg_payload))
                + int(self.avg_payload) * DECODE_CYCLES_PER_BYTE
                + QUERY_VIEW_CYCLES)

    # -- group statistics ----------------------------------------------------

    def _slot_views(self) -> list[dict]:
        if self._views is None:
            self._views = self._state.entry_views()
        return self._views

    def _group_profile(self, field: str, lo: int,
                       hi: int) -> tuple[int, float]:
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
        cardinality, key_bytes = self._group_profile(
            query.group_by.name, lo, hi)
        per_row = _GROUP_ROW_OVERHEAD + key_bytes \
            + sum(_value_bytes(a) for a in query.aggregates)
        return int(cardinality * per_row)

    def _partial_frame_bytes(self, sql: str, query: Query, lo: int,
                             hi: int) -> int:
        """Encoded bytes of one query's partial-state frame in one
        partition's journal."""
        base = _QUERY_FRAME_OVERHEAD + len(sql)
        if query.group_by is None:
            return base + sum(_state_bytes(a) for a in query.aggregates)
        cardinality, key_bytes = self._group_profile(
            query.group_by.name, lo, hi)
        per_row = _GROUP_ROW_OVERHEAD + key_bytes \
            + sum(_state_bytes(a) for a in query.aggregates)
        return int(base + len(query.group_by.name)
                   + cardinality * per_row)


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
    journal_bytes = service.chain.latest.receipt.journal_size \
        if len(service.chain) else 0
    return QueryPlanner(service.state, journal_bytes).estimate(sql)


# -- round planning: monolithic vs streamed composition ----------------------

@dataclass(frozen=True)
class RoundCostEstimate:
    """Predicted proving cost for one aggregation proof (a monolithic
    round, one delta, or one fold)."""

    records: int
    predicted_cycles: int
    predicted_segments: int

    @classmethod
    def of_session(cls, records: int, session) -> "RoundCostEstimate":
        return cls(records=records,
                   predicted_cycles=session.total_cycles,
                   predicted_segments=session.segment_count)

    def seconds(self, model: CostModel | None = None,
                backend: ProverBackend = ProverBackend.CPU_ZKVM
                ) -> float:
        return _zkvm_seconds(self.predicted_cycles, model or CostModel(),
                             backend)


@dataclass(frozen=True)
class StreamedRoundCostEstimate:
    """Predicted cost of proving one round as deltas + a fold tree.

    ``close_path`` marks the proofs that cannot overlap the stream: the
    last delta (its batch only exists at the round boundary) and every
    fold triggered by that final push or by closing the frontier.  All
    earlier deltas and carries prove while the window is still filling,
    so the *boundary latency* a streamed round adds is the close path,
    not the total.
    """

    delta_estimates: tuple[RoundCostEstimate, ...]
    fold_estimates: tuple[RoundCostEstimate, ...]
    close_fold_start: int

    @property
    def records(self) -> int:
        return sum(d.records for d in self.delta_estimates)

    @property
    def predicted_cycles(self) -> int:
        return sum(d.predicted_cycles for d in self.delta_estimates) \
            + sum(f.predicted_cycles for f in self.fold_estimates)

    def close_path_seconds(self, model: CostModel | None = None,
                           backend: ProverBackend =
                           ProverBackend.CPU_ZKVM) -> float:
        """Modeled latency from the round boundary to the final receipt."""
        model = model or CostModel()
        seconds = self.delta_estimates[-1].seconds(model, backend)
        for estimate in self.fold_estimates[self.close_fold_start:]:
            seconds += estimate.seconds(model, backend)
        return seconds

    def total_seconds(self, model: CostModel | None = None,
                      backend: ProverBackend = ProverBackend.CPU_ZKVM
                      ) -> float:
        """Every delta and fold priced sequentially (total prover work)."""
        model = model or CostModel()
        return sum(e.seconds(model, backend)
                   for e in self.delta_estimates + self.fold_estimates)


class RoundPlanner:
    """Prices a round's two proving strategies before proving it.

    Unlike the query planner (whose analytic walk avoids touching the
    entries), round shapes vary too much for a closed form to stay
    honest — so the round planner *executes* the guests (milliseconds
    of host work, metered cycles, no proving) on exactly the frames the
    aggregators would build, then prices the metered cycles through the
    cost model.  The estimate is exact by construction, which is what
    keeps it inside the planner's ±10% accuracy contract.
    """

    def __init__(self, policy=None) -> None:
        self.policy = policy or DEFAULT_POLICY

    def estimate_monolithic(self, state: CLogState, windows,
                            prev_receipt=None) -> RoundCostEstimate:
        """Price the round as one ``aggregation_guest`` proof."""
        ordered = order_windows(windows)
        records = decode_records(ordered)
        witness = build_witness(state, records, self.policy)
        env_input = build_round_input(self.policy, state.round, witness,
                                      ordered, prev_receipt)
        session = self._execute(Executor(), aggregation_guest, env_input)
        return RoundCostEstimate.of_session(len(records), session)

    def estimate_streamed(self, state: CLogState, batches,
                          prev_receipt=None) -> StreamedRoundCostEstimate:
        """Price the round as per-batch deltas folded over a frontier.

        Replays the exact delta/fold schedule the
        :class:`~repro.stream.pipeline.StreamingAggregator` would run —
        fold children bind the *executed* child sessions, so journal
        sizes (the part that grows) are exact.
        """
        from ..stream.pipeline import build_fold_input
        executor = Executor()
        batches = list(batches) or [[]]
        work = state.clone()
        round_index = state.round
        delta_estimates: list[RoundCostEstimate] = []
        fold_estimates: list[RoundCostEstimate] = []
        fold_push_indices: list[int] = []
        # (height, synthetic child binding) — the executed analogue of
        # the pipeline's FoldFrontier.
        frontier: list[tuple[int, dict]] = []

        def fold(children: list[dict], final: bool,
                 push_index: int) -> dict:
            env_input = build_fold_input(self.policy, round_index,
                                         children, final)
            session = self._execute(executor, fold_guest, env_input)
            fold_estimates.append(RoundCostEstimate.of_session(0, session))
            fold_push_indices.append(push_index)
            return self._session_binding(fold_guest, env_input, session)

        for seq, batch in enumerate(batches):
            ordered = order_windows(batch)
            records = decode_records(ordered)
            witness = build_witness(work, records, self.policy)
            env_input = build_round_input(self.policy, round_index,
                                          witness, ordered, prev_receipt,
                                          seq=seq)
            session = self._execute(executor, delta_aggregation_guest,
                                    env_input)
            delta_estimates.append(
                RoundCostEstimate.of_session(len(records), session))
            frontier.append((0, self._session_binding(
                delta_aggregation_guest, env_input, session)))
            while len(frontier) >= 2 \
                    and frontier[-1][0] == frontier[-2][0]:
                right_height, right = frontier.pop()
                _, left = frontier.pop()
                frontier.append((right_height + 1,
                                 fold([left, right], False, seq)))
            witness.new_state.round = round_index
            work = witness.new_state

        close_fold_start = len(fold_estimates)
        last_push = len(batches) - 1
        while fold_push_indices and close_fold_start > 0 \
                and fold_push_indices[close_fold_start - 1] == last_push:
            close_fold_start -= 1
        if len(frontier) == 1:
            fold([frontier[0][1]], True, last_push)
        else:
            height, acc = frontier[0]
            for next_height, nxt in frontier[1:-1]:
                acc = fold([acc, nxt], False, last_push)
                height = max(height, next_height) + 1
            fold([acc, frontier[-1][1]], True, last_push)
        return StreamedRoundCostEstimate(
            delta_estimates=tuple(delta_estimates),
            fold_estimates=tuple(fold_estimates),
            close_fold_start=close_fold_start,
        )

    def choose(self, state: CLogState, batches, prev_receipt=None,
               model: CostModel | None = None,
               backend: ProverBackend = ProverBackend.CPU_ZKVM) -> str:
        """``"streamed"`` when the close path beats the monolithic
        proof, else ``"monolithic"``.  Per-proof base overhead means a
        round with few batches (or a tiny window) proves faster as one
        monolithic guest run; streaming wins once the round's full
        window dwarfs its final batch.
        """
        batches = [list(batch) for batch in batches]
        if len(batches) < 2:
            return "monolithic"
        model = model or CostModel()
        windows = [window for batch in batches for window in batch]
        monolithic = self.estimate_monolithic(
            state, windows, prev_receipt).seconds(model, backend)
        streamed = self.estimate_streamed(
            state, batches, prev_receipt).close_path_seconds(
            model, backend)
        return "streamed" if streamed < monolithic else "monolithic"

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _execute(executor, program, env_input):
        session = executor.execute(program, env_input)
        if session.exit_code is not ExitCode.HALTED:
            raise ProofError(
                f"round estimate aborted in {program.name}: "
                f"{session.abort_reason}")
        return session

    @staticmethod
    def _session_binding(program, env_input, session) -> dict:
        """A receipt binding for a child that was executed, not proven
        — claim fields come from the metered session, so fold frames
        (and their journal-size-driven cycle counts) match the real
        pipeline's."""
        return {
            "image_id": program.image_id,
            "input_digest": env_input.digest,
            "exit_code": int(session.exit_code),
            "total_cycles": session.total_cycles,
            "segment_count": session.segment_count,
            "journal": session.journal.data,
        }


def choose_round_strategy(state: CLogState, batches, policy=None,
                          prev_receipt=None,
                          model: CostModel | None = None,
                          backend: ProverBackend =
                          ProverBackend.CPU_ZKVM) -> str:
    """Convenience wrapper over :meth:`RoundPlanner.choose`."""
    return RoundPlanner(policy).choose(state, batches, prev_receipt,
                                       model, backend)
