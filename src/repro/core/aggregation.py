"""Host-side orchestration of one aggregation round (§4.1).

The :class:`Aggregator` gathers committed router windows, builds the
Merkle witness, runs the aggregation guest in the zkVM, and resolves the
recursion assumption against the previous round's receipt — producing an
*unconditional* receipt whose journal publicly binds the old root, the
new root, and the window commitments consumed.

The module also holds the host half of the one round pipeline — window
order, record decoding, frame writing, the round-input builder and the
:func:`prove_round` frame — which every strategy calls, not restates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

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
from .guest_programs import aggregation_guest
from .policy import DEFAULT_POLICY, AggregationPolicy
from .witness import AggregationWitness, build_witness


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
    """Outcome of one proven aggregation round, whatever the strategy.

    ``new_root`` is the root the *host* computed for the round's
    records; :func:`prove_round` checks the guest's journal agrees.
    """

    round: int
    receipt: Receipt
    info: ProveInfo
    new_state: CLogState
    record_count: int
    new_root: Digest

    @property
    def journal_header(self) -> dict[str, Any]:
        header = next(self.receipt.journal.values(), None)
        if not isinstance(header, dict):
            raise ProofError("aggregation journal missing header")
        return header


def order_windows(windows: Iterable[RouterWindowInput]) -> list[RouterWindowInput]:
    """The canonical guest processing order: by window, then router.

    Shared by every round strategy — byte-identity of the final journal
    depends on all of them walking records identically.
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


def require_prev_receipt(round_index: int, prev_receipt: Receipt | None) -> None:
    """Round ``n > 0`` can only be proven on top of receipt ``n - 1``."""
    if round_index > 0 and prev_receipt is None:
        raise ChainError(f"round {round_index} requires the round {round_index - 1} receipt")


def build_round_input(
    policy: AggregationPolicy,
    round_index: int,
    witness: AggregationWitness,
    ordered: list[RouterWindowInput],
    prev_receipt: Receipt | None,
    seq: int | None = None,
) -> ExecutorInput:
    """Frames for one update-path execution of Algorithm 1.

    ``seq`` is ``None`` for the monolithic ``aggregation_guest``; the
    ``delta_aggregation_guest`` takes the same frames plus its position
    in the round.  Only delta 0 performs step 1, so ``prev_receipt`` is
    bound (and required) when ``round_index > 0`` and ``seq`` is not > 0.
    """
    header = {
        "round": round_index,
        "policy": policy.to_wire(),
        "prev_root": witness.prev_root,
        "prev_size": witness.prev_size,
        "prev_depth": witness.prev_depth,
        "num_routers": len(ordered),
        "num_ops": witness.op_count,
    }
    if seq is not None:
        header["seq"] = seq
    builder = ExecutorEnvBuilder()
    builder.write(header)
    if round_index > 0 and not seq:
        require_prev_receipt(round_index, prev_receipt)
        builder.write(make_receipt_binding(prev_receipt))
    write_window_frames(builder, ordered)
    for op in witness.ops:
        builder.write(op)
    return builder.build()


def check_guest_root(receipt: Receipt, host_root: Digest) -> dict[str, Any]:
    """The journal header of ``receipt``, once its ``new_root`` is known
    to equal the root the host computed for the same records."""
    header = next(receipt.journal.values(), None)
    if not isinstance(header, dict) or header.get("new_root") != host_root:
        raise ProofError(
            "guest-computed root diverged from the host state — "
            "host/guest aggregation logic is out of sync"
        )
    return header


def prove_round(
    strategy: str,
    state: CLogState,
    windows: list[RouterWindowInput],
    prev_receipt: Receipt | None,
    prove: Callable[[], AggregationResult],
) -> AggregationResult:
    """The frame every round strategy proves inside.

    Owns what does not depend on *how* ``prove`` proves the round: round
    ``n`` needs receipt ``n - 1``, the ``agg.round`` span, the three
    ``strategy``-labelled metrics, and the check that the guest's
    journal lands on the root the host computed (``result.new_root``).
    """
    require_prev_receipt(state.round, prev_receipt)
    start = time.perf_counter()
    with obs.tracer().span(
        obs_names.SPAN_AGG_ROUND,
        round=state.round,
        windows=len(windows),
        strategy=strategy,
    ) as span:
        result = prove()
        check_guest_root(result.receipt, result.new_root)
        span.add_cycles(result.info.stats.total_cycles)
        span.set("records", result.record_count)
    elapsed = time.perf_counter() - start
    registry = obs.registry()
    labels = {"strategy": strategy}
    registry.counter(obs_names.AGG_ROUNDS, ("strategy",)).inc(**labels)
    registry.counter(obs_names.AGG_RECORDS, ("strategy",)).inc(result.record_count, **labels)
    registry.histogram(obs_names.AGG_SECONDS, ("strategy",)).observe(elapsed, **labels)
    return result


class Aggregator:
    """Runs Algorithm 1 rounds through the zkVM prover.

    ``prover`` accepts any object with the ``prove(program, env_input)``
    contract — in particular :class:`repro.engine.pool.PooledProver`,
    which routes the round through the engine's worker pool and receipt
    cache.  Unset, a direct in-process :class:`Prover` is used.

    A strategy that proves the same round differently (see
    :class:`repro.core.rebuild.RebuildAggregator`) overrides
    ``strategy`` and :meth:`_prove`.
    """

    strategy = "update"

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

        Raises :class:`~repro.errors.GuestAbort` if any integrity check
        fails inside the guest (tampered logs, broken chain, bad
        witness) — an aborted round produces no receipt and leaves
        ``state`` untouched.
        """
        return prove_round(
            self.strategy,
            state,
            windows,
            prev_receipt,
            lambda: self._prove(state, windows, prev_receipt),
        )

    def _prove(
        self,
        state: CLogState,
        windows: list[RouterWindowInput],
        prev_receipt: Receipt | None,
    ) -> AggregationResult:
        ordered = order_windows(windows)
        records = decode_records(ordered)
        with obs.tracer().span(obs_names.SPAN_AGG_WITNESS, records=len(records)) as witness_span:
            witness = build_witness(state, records, self.policy)
            witness_span.set("ops", witness.op_count)
        env_input = build_round_input(self.policy, state.round, witness, ordered, prev_receipt)
        info = self._prover.prove(aggregation_guest, env_input)
        receipt = info.receipt
        if state.round > 0:
            receipt = resolve(receipt, prev_receipt)
        return AggregationResult(
            round=state.round,
            receipt=receipt,
            info=info,
            new_state=witness.new_state,
            record_count=len(records),
            new_root=witness.new_root,
        )
