"""Host-side orchestration of one aggregation round (§4.1).

The :class:`Aggregator` gathers committed router windows, builds the
Merkle witness, runs the aggregation guest in the zkVM, and resolves the
recursion assumption against the previous round's receipt — producing an
*unconditional* receipt whose journal publicly binds the old root, the
new root, and the window commitments consumed.

The module also holds the host half of the round pipeline — window
order, record decoding, frame writing and the round-input builder —
which :class:`BatchedAggregator` shares with Alg. 1, and the sketch and
partitioned rounds reuse.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..errors import ChainError, ProofError
from ..hashing import Digest
from ..netflow.records import NetFlowRecord
from ..obs import names as obs_names
from ..obs import runtime as obs
from ..serialization import decode
from ..zkvm import ExecutorEnvBuilder, ProveInfo, Prover, ProverOpts, Receipt
from ..zkvm.executor import ExecutorInput
from ..zkvm.recursion import resolve
from .clog import CLogState
from .guest_programs import aggregation_guest, batched_aggregation_guest
from .journals import RoundHeader
from .policy import DEFAULT_POLICY, AggregationPolicy
from .witness import (
    AggregationWitness,
    BatchedWitness,
    build_batched_witness,
    build_witness,
)


@dataclass(frozen=True)
class RouterWindowInput:
    """One committed router window handed to the aggregator."""

    router_id: str
    window_index: int
    commitment: Digest
    blobs: tuple[bytes, ...]


def make_receipt_binding(receipt: Receipt) -> dict[str, Any]:
    """The claim components a guest needs to recompute a claim digest.

    Must correspond field-for-field to
    :func:`repro.core.guest_programs._guest_claim_digest`.
    """
    if receipt.claim.assumptions:
        raise ChainError("cannot bind a conditional receipt; resolve its assumptions first")
    return {
        "image_id": receipt.claim.image_id,
        "input_digest": receipt.claim.input_digest,
        "exit_code": int(receipt.claim.exit_code),
        "total_cycles": receipt.claim.total_cycles,
        "segment_count": receipt.claim.segment_count,
        "journal": receipt.journal.data,
    }


@dataclass(frozen=True)
class AggregationResult:
    """Outcome of one proven aggregation round, whichever round guest
    proved it.

    ``new_root`` is the root the *host* computed for the round's
    records; :meth:`Aggregator.aggregate` checks the guest's journal
    agrees.
    """

    round: int
    receipt: Receipt
    info: ProveInfo
    new_state: CLogState
    record_count: int
    new_root: Digest
    header: RoundHeader = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "header", RoundHeader.parse(self.receipt))

    @property
    def windows(self) -> set[int]:
        """Window indices the round consumed, read off its journal."""
        return {w for _, w, _ in self.header.windows}


def order_windows(windows: Iterable[RouterWindowInput]) -> list[RouterWindowInput]:
    """The canonical guest processing order: by window, then router.

    Both round guests walk records in it — byte-identity of their
    journals depends on that.
    """
    return sorted(windows, key=lambda w: (w.window_index, w.router_id))


def decode_records(windows: Iterable[RouterWindowInput]) -> list[NetFlowRecord]:
    """Every record of ``windows``, in the order the guest meets them."""
    return [NetFlowRecord.from_wire(decode(blob)) for window in windows for blob in window.blobs]


def write_window_frames(builder: ExecutorEnvBuilder, windows: Iterable[RouterWindowInput]) -> None:
    """One frame per router window, as Algorithm 1's step 2 reads them
    (:func:`repro.core.guest_programs.verify_window_commitments`)."""
    for window in windows:
        frame = {
            "router_id": window.router_id,
            "window_index": window.window_index,
            "commitment": window.commitment,
            "blobs": list(window.blobs),
        }
        builder.write(frame)


def build_round_input(
    policy: AggregationPolicy,
    round_index: int,
    witness: AggregationWitness | BatchedWitness,
    ordered: list[RouterWindowInput],
    prev_receipt: Receipt | None,
) -> ExecutorInput:
    """Frames for one execution of a witnessed round guest (Alg. 1 or
    its batched step 3); round ``n > 0`` binds ``prev_receipt``."""
    header = {
        "round": round_index,
        "policy": policy.to_wire(),
        "prev_root": witness.prev_root,
        "prev_size": witness.prev_size,
        "prev_depth": witness.prev_depth,
        "num_routers": len(ordered),
        **witness.header_fields(),
    }
    builder = ExecutorEnvBuilder()
    builder.write(header)
    if round_index > 0:
        builder.write(make_receipt_binding(prev_receipt))
    write_window_frames(builder, ordered)
    for frame in witness.frames():
        builder.write(frame)
    return builder.build()


class Aggregator:
    """Runs Algorithm 1 rounds through the zkVM prover.

    ``prover`` accepts any object with the ``prove(program, env_input)``
    contract — in particular :class:`repro.engine.pool.PooledProver`,
    which routes the round through the engine's worker pool and receipt
    cache.  Unset, a direct in-process :class:`Prover` is used.

    :class:`BatchedAggregator` proves the same round with another
    witnessed guest by overriding ``strategy`` (the metrics label),
    ``guest`` and ``witness_builder``.
    """

    strategy = "update"
    guest = aggregation_guest
    witness_builder = staticmethod(build_witness)

    def __init__(
        self,
        policy: AggregationPolicy = DEFAULT_POLICY,
        prover_opts: ProverOpts | None = None,
        prover: Any | None = None,
    ) -> None:
        self.policy = policy
        self._prover = prover if prover is not None else Prover(prover_opts or ProverOpts.groth16())

    def aggregate(
        self,
        state: CLogState,
        windows: list[RouterWindowInput],
        prev_receipt: Receipt | None,
    ) -> AggregationResult:
        """Prove one round over ``windows`` starting from ``state``.

        Round ``n`` needs receipt ``n - 1``.  The round runs inside the
        ``agg.round`` span, feeds the three ``strategy``-labelled
        metrics, and is checked to land the guest's journal on the root
        the host computed (``result.new_root``).

        Raises :class:`~repro.errors.GuestAbort` if any integrity check
        fails inside the guest (tampered logs, broken chain, bad
        witness) — an aborted round produces no receipt and leaves
        ``state`` untouched.
        """
        if state.round > 0 and prev_receipt is None:
            raise ChainError(f"round {state.round} requires the round {state.round - 1} receipt")
        start = time.perf_counter()
        with obs.tracer().span(
            obs_names.SPAN_AGG_ROUND,
            round=state.round,
            windows=len(windows),
            strategy=self.strategy,
        ) as span:
            ordered = order_windows(windows)
            records = decode_records(ordered)
            with obs.tracer().span(
                obs_names.SPAN_AGG_WITNESS, records=len(records)
            ) as witness_span:
                witness = self.witness_builder(state, records, self.policy)
                witness_span.set("ops", witness.op_count)
            env_input = build_round_input(self.policy, state.round, witness, ordered, prev_receipt)
            info = self._prover.prove(self.guest, env_input)
            receipt = info.receipt
            if state.round > 0:
                receipt = resolve(receipt, prev_receipt)
            result = AggregationResult(
                round=state.round,
                receipt=receipt,
                info=info,
                new_state=witness.new_state,
                record_count=len(records),
                new_root=witness.new_root,
            )
            if result.header.new_root != result.new_root:
                raise ProofError(
                    "guest-computed root diverged from the host state — "
                    "host/guest aggregation logic is out of sync"
                )
            span.add_cycles(result.info.stats.total_cycles)
            span.set("records", result.record_count)
        elapsed = time.perf_counter() - start
        registry = obs.registry()
        labels = {"strategy": self.strategy}
        registry.counter(obs_names.AGG_ROUNDS, ("strategy",)).inc(**labels)
        registry.counter(obs_names.AGG_RECORDS, ("strategy",)).inc(result.record_count, **labels)
        registry.histogram(obs_names.AGG_SECONDS, ("strategy",)).observe(elapsed, **labels)
        return result


class BatchedAggregator(Aggregator):
    """Proves rounds with :data:`batched_aggregation_guest`: step 3
    over one multiproof, so each touched Merkle node is hashed once per
    root rather than twice per record.  Its journals are byte-identical
    to :class:`Aggregator`'s, which stays Alg. 1 as the paper lays it
    out (the Fig. 4 path)."""

    strategy = "batched"
    guest = batched_aggregation_guest
    witness_builder = staticmethod(build_batched_witness)
