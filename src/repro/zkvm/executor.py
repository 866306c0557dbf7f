"""Executor: run a guest program and capture its execution session.

Execution is the *non-proving* half of the pipeline (like
``risc0_zkvm::Executor``): it runs the guest against prepared inputs,
meters cycles, splits the run into power-of-two padded segments, and
derives the segment digest chain that the prover later commits to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from ..hashing import TAG_INPUT, TAG_SEGMENT, Digest, hash_many, tagged_hash
from ..obs import names as obs_names
from ..obs import runtime as obs
from ..serialization import encode
from . import cycles as cy
from .guest import GuestAbortSignal, GuestEnv, GuestProgram
from .receipt import Assumption, ExitCode, Journal


@dataclass(frozen=True)
class ExecutorInput:
    """Prepared host→guest input: encoded frames plus their digest."""

    frames: tuple[bytes, ...]

    @property
    def digest(self) -> Digest:
        return hash_many(TAG_INPUT, self.frames)

    @property
    def total_bytes(self) -> int:
        return sum(len(f) for f in self.frames)


class ExecutorEnvBuilder:
    """Builds an :class:`ExecutorInput` value by value.

    Mirrors ``ExecutorEnv::builder().write(&x)...build()``.
    """

    def __init__(self) -> None:
        self._frames: list[bytes] = []

    def write(self, value: Any) -> "ExecutorEnvBuilder":
        self._frames.append(encode(value))
        return self

    def write_frames(self, frames: Iterable[bytes]
                     ) -> "ExecutorEnvBuilder":
        """Append each of ``frames``, already encoded, in order."""
        self._frames.extend(map(bytes, frames))
        return self

    def build(self) -> ExecutorInput:
        return ExecutorInput(frames=tuple(self._frames))


@dataclass(frozen=True)
class Segment:
    """One power-of-two padded chunk of the execution trace."""

    index: int
    cycle_count: int
    po2: int
    digest: Digest

    @property
    def padded_cycles(self) -> int:
        return 1 << self.po2


@dataclass
class ExecutionSession:
    """Everything the prover needs about one guest run."""

    program: GuestProgram
    input: ExecutorInput
    journal: Journal
    exit_code: ExitCode
    total_cycles: int
    cycle_breakdown: dict[str, int]
    sha_compressions: int
    segments: tuple[Segment, ...]
    assumptions: tuple[Assumption, ...]
    abort_reason: str | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def segment_count(self) -> int:
        return len(self.segments)

    @property
    def padded_cycles(self) -> int:
        return sum(s.padded_cycles for s in self.segments)


def _build_segments(image_id: Digest, total_cycles: int) -> tuple[Segment, ...]:
    """Chain the metered cycle count's segment walk into digests."""
    segments: list[Segment] = []
    prev = Digest.zero()
    for index, (count, po2) in enumerate(cy.segments(total_cycles)):
        digest = tagged_hash(
            TAG_SEGMENT,
            image_id.raw,
            index.to_bytes(4, "big"),
            count.to_bytes(8, "big"),
            po2.to_bytes(1, "big"),
            prev.raw,
        )
        segments.append(Segment(index=index, cycle_count=count,
                                po2=po2, digest=digest))
        prev = digest
    return tuple(segments)


def segment_chain(image_id: Digest,
                  segments: tuple[Segment, ...]) -> tuple[Digest, ...]:
    """Recompute the expected digest chain (verifier side)."""
    prev = Digest.zero()
    chain: list[Digest] = []
    for index, segment in enumerate(segments):
        digest = tagged_hash(
            TAG_SEGMENT,
            image_id.raw,
            index.to_bytes(4, "big"),
            segment.cycle_count.to_bytes(8, "big"),
            segment.po2.to_bytes(1, "big"),
            prev.raw,
        )
        chain.append(digest)
        prev = digest
    return tuple(chain)


class Executor:
    """Runs guest programs to completion (or abort) and meters them."""

    def execute(self, program: GuestProgram,
                env_input: ExecutorInput) -> ExecutionSession:
        """Run ``program`` over ``env_input``.

        Returns a session in ``HALTED`` or ``ABORTED`` state; any other
        guest exception propagates (it is a bug in the guest, not a
        telemetry integrity failure).
        """
        with obs.tracer().span(obs_names.SPAN_EXECUTE,
                               program=program.name) as span:
            env = GuestEnv(env_input.frames)
            exit_code = ExitCode.HALTED
            abort_reason: str | None = None
            try:
                program(env)
            except GuestAbortSignal as signal:
                exit_code = ExitCode.ABORTED
                abort_reason = signal.reason
            meter = env.meter
            session = ExecutionSession(
                program=program,
                input=env_input,
                journal=Journal(env.journal_data),
                exit_code=exit_code,
                total_cycles=meter.total,
                cycle_breakdown=dict(meter.by_category),
                sha_compressions=meter.sha_compressions,
                segments=_build_segments(program.image_id, meter.total),
                assumptions=env.assumptions,
                abort_reason=abort_reason,
            )
            span.add_cycles(session.total_cycles)
            span.set("segments", session.segment_count)
            span.set("exit_code", exit_code.name.lower())
            registry = obs.registry()
            registry.counter(
                obs_names.EXECUTOR_SESSIONS, ("program", "exit_code"),
            ).inc(program=program.name,
                  exit_code=exit_code.name.lower())
            registry.counter(
                obs_names.EXECUTOR_CYCLES, ("program",),
            ).inc(session.total_cycles, program=program.name)
        return session
