"""The stream scheduler: prove deltas as windows commit, fold eagerly.

:class:`StreamingAggregator` is the incremental counterpart of
:class:`~repro.core.aggregation.Aggregator`.  Instead of waiting for the
round boundary and proving the whole window monolithically, it

1. proves each committed batch as a ``delta_aggregation_guest`` receipt
   the moment it arrives (``ingest``), pricing O(batch) guest work;
2. pushes the delta onto the :class:`~repro.stream.frontier.FoldFrontier`,
   which folds equal-height subtrees eagerly (``fold_guest``), so fold
   work overlaps the stream instead of stacking up at the boundary;
3. closes the round (``close``) by folding the remaining frontier into
   one receipt whose journal is **byte-identical** to the monolithic
   guest's — verifiers and downstream caches cannot tell the difference.

Every delta and fold is routed through the engine's
:class:`~repro.engine.pool.PooledProver`, so a replayed delta (same
windows, same starting state) is a receipt-cache hit rather than a
re-prove — the property the chaos suite exercises.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import groupby
from typing import Any

from ..core.aggregation import (
    AggregationResult,
    RouterWindowInput,
    build_round_input,
    check_guest_root,
    decode_records,
    make_receipt_binding,
    order_windows,
    prove_round,
    require_prev_receipt,
)
from ..core.clog import CLogState
from ..core.guest_programs import delta_aggregation_guest, fold_guest
from ..core.policy import DEFAULT_POLICY, AggregationPolicy
from ..core.witness import build_witness
from ..errors import ChainError, ProofError
from ..obs import names as obs_names
from ..obs import runtime as obs
from ..zkvm import ExecutorEnvBuilder, ProverOpts, Receipt
from ..zkvm.executor import ExecutorInput
from ..zkvm.prover import ProveStats
from ..zkvm.recursion import resolve, resolve_all
from .frontier import FoldFrontier, FrontierNode


def batch_windows(windows: list[RouterWindowInput]
                  ) -> list[list[RouterWindowInput]]:
    """Split a round's windows into per-window-index delta batches.

    This is the natural streaming grain: all routers of window *i*
    commit, then window *i + 1* starts.  An empty round still yields one
    empty batch so the round can be proven (as a zero-window delta plus
    a promotion fold).
    """
    batches = groupby(order_windows(windows), key=lambda w: w.window_index)
    return [list(batch) for _, batch in batches] or [[]]


def build_fold_input(policy: AggregationPolicy, round_index: int,
                     bindings: list[dict[str, Any]],
                     final: bool) -> ExecutorInput:
    """Frames for one ``fold_guest`` execution over 1-2 child bindings."""
    builder = ExecutorEnvBuilder()
    builder.write({
        "round": round_index,
        "policy": policy.to_wire(),
        "num_children": len(bindings),
        "final": final,
    })
    for binding in bindings:
        builder.write(binding)
    return builder.build()


@dataclass(frozen=True)
class StreamedRoundInfo:
    """Aggregate prove info for a streamed round (duck-``ProveInfo``).

    ``stats`` sums every delta and fold executed this round; the
    per-job results keep their individual stats and ``cached`` flags so
    callers (and the chaos suite) can see which legs were replayed from
    the receipt cache.
    """

    receipt: Receipt
    stats: ProveStats
    delta_results: tuple[Any, ...]
    fold_results: tuple[Any, ...]


class StreamingAggregator:
    """Incremental round proving over a fold frontier.

    Two usage styles:

    * **streaming** — ``ingest(state, batch, prev_receipt)`` per
      committed batch while the round is open, then ``close()`` at the
      round boundary;
    * **drop-in** — ``aggregate(state, windows, prev_receipt)`` with the
      monolithic :class:`~repro.core.aggregation.Aggregator` signature,
      which batches per window index and streams them through.

    ``engine`` is the caller's
    :class:`~repro.engine.scheduler.ProvingEngine` (the caller closes
    it); all proving goes through its pool and receipt cache.
    """

    def __init__(self, policy: AggregationPolicy = DEFAULT_POLICY,
                 prover_opts: ProverOpts | None = None, *,
                 engine: Any) -> None:
        self.policy = policy
        self.engine = engine
        self._prover = engine.prover(prover_opts or ProverOpts.groth16())
        self._reset()

    def _reset(self) -> None:
        self._frontier = FoldFrontier()
        self._open_round: int | None = None
        self._work: CLogState | None = None
        self._delta_results: list[Any] = []
        self._fold_results: list[Any] = []

    # -- introspection -------------------------------------------------------

    @property
    def open_round(self) -> int | None:
        """The round currently being streamed, or ``None``."""
        return self._open_round

    @property
    def frontier(self) -> FoldFrontier:
        return self._frontier

    @property
    def pending_deltas(self) -> int:
        """Deltas ingested into the open round so far."""
        return self._frontier.next_seq

    @property
    def open_windows(self) -> set[tuple[str, int]]:
        """The ``(router, window)`` pairs the open round has consumed,
        read off the frontier's proven journals (so a resume needs none)."""
        return {(window["r"], window["w"])
                for node in self._frontier.nodes
                for window in node.header["windows"]}

    @property
    def work_state(self) -> CLogState | None:
        """The open round's evolving CLog state (ingested-so-far)."""
        return self._work

    # -- streaming API -------------------------------------------------------

    def ingest(self, state: CLogState,
               windows: list[RouterWindowInput],
               prev_receipt: Receipt | None = None) -> FrontierNode:
        """Prove one delta batch and push it onto the frontier.

        ``state`` opens the round on the first call; later calls only
        check it still names the same round.  ``prev_receipt`` is
        consumed by delta 0 (step-1 binding) and ignored afterwards.
        """
        repeated = self.open_windows.intersection(
            (window.router_id, window.window_index) for window in windows)
        if repeated:
            router_id, window_index = min(repeated)
            raise ProofError(
                f"window {window_index} (router {router_id!r}) was "
                f"already ingested into the open round")
        if self._open_round is None:
            require_prev_receipt(state.round, prev_receipt)
            self._open_round = state.round
            # build_witness copies before it replays, so the caller's
            # state is only ever read through this reference.
            self._work = state
        elif state.round != self._open_round:
            raise ChainError(
                f"round {state.round} windows ingested while round "
                f"{self._open_round} is still open")
        seq = self._frontier.next_seq
        ordered = order_windows(windows)
        records = decode_records(ordered)
        witness = build_witness(self._work, records, self.policy)
        env_input = build_round_input(self.policy, self._open_round,
                                      witness, ordered, prev_receipt,
                                      seq=seq)
        with obs.tracer().span(obs_names.SPAN_STREAM_DELTA,
                               round=self._open_round, seq=seq,
                               windows=len(ordered),
                               records=len(records)) as span:
            result = self._prover.prove(delta_aggregation_guest,
                                        env_input)
            span.add_cycles(result.stats.total_cycles)
            span.set("cached", result.cached)
        receipt = result.receipt
        if seq == 0 and self._open_round > 0:
            receipt = resolve(receipt, prev_receipt)
        header = check_guest_root(receipt, witness.new_root)
        node = FrontierNode(receipt=receipt, header=header, height=0,
                            seq_lo=seq, seq_hi=seq)
        # Push (which may fire carry folds) before recording anything:
        # a faulted fold aborts the whole ingest with the frontier and
        # bookkeeping untouched, so the retry replays this delta from
        # the receipt cache and re-proves only the faulted fold.
        self._frontier.push(node, self._fold_nodes)
        self._delta_results.append(result)
        obs.registry().counter(obs_names.STREAM_DELTAS, ("cached",)).inc(
            cached=str(result.cached).lower())
        obs.registry().gauge(obs_names.STREAM_FRONTIER).set(
            len(self._frontier))
        # The witness bumped the round on its result state; the round is
        # still open, so pin it back until close().
        witness.new_state.round = self._open_round
        self._work = witness.new_state
        return node

    def close(self) -> AggregationResult:
        """Fold the frontier down and emit the round's final receipt.

        The final fold's journal is byte-identical to the monolithic
        aggregation guest's, so the result chains like any other round.
        """
        if self._open_round is None or self._work is None:
            raise ChainError("no streaming round is open")
        final_node = self._frontier.close(self._fold_nodes)
        check_guest_root(final_node.receipt, self._work.root)
        new_state = self._work
        new_state.round = self._open_round + 1
        stats = ProveStats.combined(
            r.stats for r in self._delta_results + self._fold_results)
        info = StreamedRoundInfo(
            receipt=final_node.receipt,
            stats=stats,
            delta_results=tuple(self._delta_results),
            fold_results=tuple(self._fold_results),
        )
        result = AggregationResult(
            round=self._open_round,
            receipt=final_node.receipt,
            info=info,
            new_state=new_state,
            record_count=final_node.header["entries"],
            new_root=new_state.root,
        )
        registry = obs.registry()
        registry.counter(obs_names.STREAM_ROUNDS, ("strategy",)).inc(
            strategy="streamed")
        registry.gauge(obs_names.STREAM_FRONTIER).set(0)
        self._reset()
        return result

    @contextmanager
    def guarded(self):
        """Roll the streamer back to its entry state if the body fails.

        Failed proofs must leave the round exactly as it was (the
        service's ``prove_round`` contract): deltas proven before the
        fault stay in the receipt cache, so a retry replays them for
        free and re-proves only what actually died — but nothing
        half-ingested may survive in the frontier or the bookkeeping.
        """
        snapshot = (FoldFrontier(self._frontier.nodes),
                    self._open_round, self._work,
                    len(self._delta_results), len(self._fold_results))
        try:
            yield
        except Exception:
            (self._frontier, self._open_round, self._work,
             num_deltas, num_folds) = snapshot
            del self._delta_results[num_deltas:]
            del self._fold_results[num_folds:]
            obs.registry().gauge(obs_names.STREAM_FRONTIER).set(
                len(self._frontier))
            raise

    # -- drop-in API ---------------------------------------------------------

    def aggregate(self, state: CLogState,
                  windows: list[RouterWindowInput],
                  prev_receipt: Receipt | None) -> AggregationResult:
        """Prove one round with the monolithic aggregator's signature.

        Windows are batched per window index and streamed; an already
        open round absorbs the windows as further deltas (none, when
        the caller only wants it closed) before closing, and the result
        covers every window ingested since it opened.
        """
        batches = batch_windows(windows) \
            if windows or self._open_round is None else []

        def stream() -> AggregationResult:
            # Guarded: a faulted delta or fold must not leave windows
            # half-ingested; a retry replays deltas from the receipt cache.
            with self.guarded():
                for batch in batches:
                    self.ingest(state, batch, prev_receipt)
                return self.close()

        return prove_round("streamed", state, windows, prev_receipt,
                           stream)

    # -- checkpoint / restore ------------------------------------------------

    def resume(self, round_index: int, work_state: CLogState,
               nodes: list[FrontierNode]) -> None:
        """Adopt a persisted frontier mid-round (crash recovery).

        ``work_state`` must be the CLog state *after* every delta in
        ``nodes`` was applied; the caller (the prover service) verifies
        the receipts and continuity before handing them over.
        """
        if self._open_round is not None:
            raise ChainError(
                f"cannot resume: round {self._open_round} is open")
        if nodes and nodes[0].seq_lo != 0:
            raise ChainError(
                "cannot resume a frontier that does not start at delta 0")
        self._frontier = FoldFrontier(nodes)
        self._open_round = round_index
        self._work = work_state.clone()
        self._work.round = round_index
        obs.registry().gauge(obs_names.STREAM_FRONTIER).set(
            len(self._frontier))

    # -- fold plumbing -------------------------------------------------------

    def _fold_nodes(self, left: FrontierNode,
                    right: FrontierNode | None,
                    final: bool) -> FrontierNode:
        children = [left] if right is None else [left, right]
        bindings = [make_receipt_binding(node.receipt)
                    for node in children]
        env_input = build_fold_input(self.policy, self._open_round,
                                     bindings, final)
        with obs.tracer().span(obs_names.SPAN_STREAM_FOLD,
                               round=self._open_round,
                               children=len(children),
                               final=final) as span:
            result = self._prover.prove(fold_guest, env_input)
            span.add_cycles(result.stats.total_cycles)
            span.set("cached", result.cached)
        receipt = resolve_all(result.receipt,
                              [node.receipt for node in children])
        header = next(receipt.journal.values(), None)
        if not isinstance(header, dict):
            raise ProofError("fold journal missing header")
        self._fold_results.append(result)
        obs.registry().counter(obs_names.STREAM_FOLDS, ("cached", "kind")).inc(
            cached=str(result.cached).lower(),
            kind="final" if final else "merge")
        return FrontierNode(
            receipt=receipt,
            header=header,
            height=max(node.height for node in children) + 1,
            seq_lo=left.seq_lo,
            seq_hi=children[-1].seq_hi,
        )
