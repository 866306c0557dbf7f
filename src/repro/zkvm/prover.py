"""Prover: turn an execution session into a verifiable receipt.

The pipeline mirrors RISC Zero's: every segment gets a STARK-style seal,
the segment digests are committed under a Merkle root, a Fiat–Shamir
transcript selects which segments the composite receipt must open, and the
composite receipt can then be *compressed* — recursively lifted/joined
into a constant-size succinct receipt and finally wrapped into the
256-byte Groth16-style seal the paper's Table 1 reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from ..errors import GuestAbort, ProofError
from ..hashing import TAG_SEAL, Digest, tagged_hash
from ..merkle import MerkleTree
from ..obs import names as obs_names
from ..obs import runtime as obs
from .executor import ExecutionSession, Executor, ExecutorInput
from .fiatshamir import Transcript
from .guest import GuestProgram
from .receipt import (
    VERIFIER_PARAMETERS,
    CompositeReceipt,
    ExitCode,
    Groth16Receipt,
    GROTH16_SEAL_SIZE,
    Receipt,
    ReceiptClaim,
    ReceiptKind,
    SegmentReceipt,
    SuccinctReceipt,
    SUCCINCT_SEAL_SIZE,
    expand_seal,
    groth16_binding,
    succinct_binding,
)

TRANSCRIPT_PROTOCOL = "repro-zkvm-v1"
SEGMENT_SEAL_SIZE = 1024


@dataclass(frozen=True)
class ProverOpts:
    """Prover configuration (mirrors ``risc0_zkvm::ProverOpts``).

    ``kind`` and ``num_queries`` shape the *proof statement* and feed
    the engine's content-addressed cache key.  ``pool_backend`` and
    ``prove_workers`` are host-side scheduling knobs for
    :mod:`repro.engine` (where the proof runs, not what it says) — they
    are deliberately excluded from
    :attr:`repro.engine.jobs.ProofJob.opts_digest` so a receipt proven
    on one backend is a cache hit on any other.
    """

    kind: ReceiptKind = ReceiptKind.GROTH16
    num_queries: int = 16
    pool_backend: str | None = None
    prove_workers: int | None = None

    @classmethod
    def composite(cls) -> "ProverOpts":
        return cls(kind=ReceiptKind.COMPOSITE)

    @classmethod
    def succinct(cls) -> "ProverOpts":
        return cls(kind=ReceiptKind.SUCCINCT)

    @classmethod
    def groth16(cls) -> "ProverOpts":
        return cls(kind=ReceiptKind.GROTH16)


@dataclass(frozen=True)
class ProveStats:
    """Metering results for one proved execution."""

    total_cycles: int
    padded_cycles: int
    segment_count: int
    sha_compressions: int
    wall_seconds: float
    cycle_breakdown: dict[str, int]

    @classmethod
    def combined(cls, parts: Iterable["ProveStats"]) -> "ProveStats":
        """The total work of several proofs (a streamed round's deltas
        and folds, a fan-out's partitions and merge)."""
        parts = list(parts)
        breakdown: dict[str, int] = {}
        for part in parts:
            for category, cycles in part.cycle_breakdown.items():
                breakdown[category] = breakdown.get(category, 0) + cycles
        return cls(
            total_cycles=sum(p.total_cycles for p in parts),
            padded_cycles=sum(p.padded_cycles for p in parts),
            segment_count=sum(p.segment_count for p in parts),
            sha_compressions=sum(p.sha_compressions for p in parts),
            wall_seconds=sum(p.wall_seconds for p in parts),
            cycle_breakdown=breakdown,
        )


@dataclass(frozen=True)
class ProveInfo:
    """Receipt plus the session and stats it was derived from."""

    receipt: Receipt
    session: ExecutionSession
    stats: ProveStats


def segment_seal_binding(segment_digest: Digest) -> Digest:
    return tagged_hash(TAG_SEAL, b"segment", VERIFIER_PARAMETERS.raw,
                       segment_digest.raw)


def derive_query_indices(claim: ReceiptClaim, trace_root: Digest,
                         segment_count: int, num_queries: int) -> list[int]:
    """Fiat–Shamir: which segments the composite receipt must open.

    Both prover and verifier run this; absorbing the full claim means any
    tampering with the public statement re-randomises the openings.
    """
    transcript = Transcript(TRANSCRIPT_PROTOCOL)
    transcript.absorb("image_id", claim.image_id)
    transcript.absorb("input", claim.input_digest)
    transcript.absorb("journal", claim.journal_digest)
    transcript.absorb("assumptions", claim.assumptions_digest)
    transcript.absorb_int("exit_code", int(claim.exit_code))
    transcript.absorb("trace_root", trace_root)
    count = min(num_queries, segment_count)
    return transcript.challenge_indices("segment", segment_count, count)


class Prover:
    """Produces receipts for guest executions."""

    def __init__(self, opts: ProverOpts | None = None,
                 executor: Executor | None = None) -> None:
        self.opts = opts or ProverOpts()
        self._executor = executor or Executor()

    def prove(self, program: GuestProgram,
              env_input: ExecutorInput) -> ProveInfo:
        """Execute and prove; raises :class:`GuestAbort` on guest abort.

        An aborted guest has no receipt — this is the enforcement point
        for Algorithm 1's integrity aborts: tampered data makes proof
        generation *fail*, it does not produce a "proof of tampering".
        """
        session = self._executor.execute(program, env_input)
        if session.exit_code is ExitCode.ABORTED:
            raise GuestAbort(session.abort_reason or "unknown abort")
        return self.prove_session(session)

    def prove_session(self, session: ExecutionSession) -> ProveInfo:
        """Prove an already-executed (halted) session."""
        if session.exit_code is not ExitCode.HALTED:
            raise ProofError(
                f"cannot prove a session that exited with "
                f"{session.exit_code.name}"
            )
        with obs.tracer().span(
                obs_names.SPAN_PROVE,
                program=session.program.name,
                kind=self.opts.kind.name.lower()) as span:
            info = self._prove_session_inner(session, span)
        return info

    def _prove_session_inner(self, session: ExecutionSession,
                             span) -> ProveInfo:
        start = time.perf_counter()
        claim = ReceiptClaim(
            image_id=session.program.image_id,
            input_digest=session.input.digest,
            journal_digest=session.journal.digest,
            exit_code=session.exit_code,
            total_cycles=session.total_cycles,
            segment_count=session.segment_count,
            assumptions=session.assumptions,
        )
        composite = self._prove_composite(session, claim)
        inner: CompositeReceipt | SuccinctReceipt | Groth16Receipt
        if self.opts.kind is ReceiptKind.COMPOSITE:
            inner = composite
        else:
            succinct = SuccinctReceipt(
                seal=expand_seal(succinct_binding(claim.digest()),
                                 SUCCINCT_SEAL_SIZE))
            if self.opts.kind is ReceiptKind.SUCCINCT:
                inner = succinct
            else:
                inner = Groth16Receipt(
                    seal=expand_seal(groth16_binding(claim.digest()),
                                     GROTH16_SEAL_SIZE))
        wall = time.perf_counter() - start
        receipt = Receipt(inner=inner, journal=session.journal, claim=claim)
        stats = ProveStats(
            total_cycles=session.total_cycles,
            padded_cycles=session.padded_cycles,
            segment_count=session.segment_count,
            sha_compressions=session.sha_compressions,
            wall_seconds=wall,
            cycle_breakdown=dict(session.cycle_breakdown),
        )
        span.add_cycles(stats.total_cycles)
        span.set("segments", stats.segment_count)
        program = session.program.name
        registry = obs.registry()
        registry.counter(obs_names.PROVER_PROOFS,
                         ("program", "kind")).inc(
            program=program, kind=self.opts.kind.name.lower())
        registry.counter(obs_names.PROVER_CYCLES, ("program",)).inc(
            stats.total_cycles, program=program)
        registry.counter(obs_names.PROVER_SEGMENTS, ("program",)).inc(
            stats.segment_count, program=program)
        registry.histogram(obs_names.PROVER_SECONDS,
                           ("program",)).observe(wall, program=program)
        return ProveInfo(receipt=receipt, session=session, stats=stats)

    def _prove_composite(self, session: ExecutionSession,
                         claim: ReceiptClaim) -> CompositeReceipt:
        segment_receipts = tuple(
            SegmentReceipt(
                index=segment.index,
                cycle_count=segment.cycle_count,
                po2=segment.po2,
                segment_digest=segment.digest,
                seal=expand_seal(segment_seal_binding(segment.digest),
                                 SEGMENT_SEAL_SIZE),
            )
            for segment in session.segments
        )
        tree = MerkleTree(s.digest for s in session.segments)
        indices = derive_query_indices(claim, tree.root,
                                       len(session.segments),
                                       self.opts.num_queries)
        openings = tree.prove_many(indices)
        return CompositeReceipt(segments=segment_receipts,
                                trace_root=tree.root, openings=openings)


def prove(program: GuestProgram, env_input: ExecutorInput,
          opts: ProverOpts | None = None) -> ProveInfo:
    """Module-level convenience mirroring ``default_prover().prove()``."""
    return Prover(opts).prove(program, env_input)
