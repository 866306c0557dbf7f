"""Proof jobs: the unit of work the proving engine ships to workers.

A :class:`ProofJob` is pure data — a guest *name*, the serialized
executor input frames, and the statement-shaping prover options.  It
crosses process boundaries as a canonical wire blob (not a pickle of
live objects: :class:`~repro.zkvm.guest.GuestProgram` instances do not
pickle by reference), and the worker resolves the name back to code
through the guest registry in :mod:`repro.core.guest_programs`.
Workers start from a clean interpreter (spawn/forkserver — never a
fork of a threaded parent), so the registry there only holds the
guests :mod:`repro.core` registers at import; :attr:`ProofJob.
guest_module` records the defining module of any *other* guest and the
worker imports it on a resolve miss — registration is an import-time
side effect, so the import completes the registry.

Content addressing: ``cache_key(image_id)`` digests the resolved guest
image id, the executor-input commitment, and the opts digest.  Using
the *image id* rather than the name means a guest-code change silently
invalidates every cached receipt for it — a stale receipt can never be
replayed against new code.  Host-side scheduling knobs on
:class:`~repro.zkvm.prover.ProverOpts` (``pool_backend``,
``prove_workers``) are excluded from :attr:`ProofJob.opts_digest`: they
change where a proof runs, not what it claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import (
    ConfigurationError,
    SerializationError,
    VerificationError,
)
from ..hashing import TAG_ENGINE_KEY, TAG_ENGINE_OPTS, Digest, tagged_hash
from ..serialization import decode, encode
from ..zkvm.executor import ExecutorInput
from ..zkvm.guest import GuestProgram
from ..zkvm.prover import ProveStats, ProverOpts, Prover
from ..zkvm.receipt import Receipt, ReceiptKind
from ..zkvm.verifier import Verifier


@dataclass(frozen=True)
class ProofJob:
    """One prove request, fully described by value."""

    guest_id: str
    frames: tuple[bytes, ...]
    kind: str = ReceiptKind.GROTH16.value
    num_queries: int = 16
    #: Defining module of the guest — a *resolution hint* for spawned
    #: workers, never part of the content address (the image id binds
    #: the code; where it was imported from does not change the claim).
    guest_module: str | None = None

    @classmethod
    def from_parts(cls, program: GuestProgram | str,
                   env_input: ExecutorInput,
                   opts: ProverOpts | None = None) -> "ProofJob":
        opts = opts or ProverOpts()
        if isinstance(program, str):
            name, module = program, None
        else:
            name = program.name
            module = getattr(program.fn, "__module__", None)
        return cls(guest_id=name, frames=tuple(env_input.frames),
                   kind=opts.kind.value, num_queries=opts.num_queries,
                   guest_module=module)

    def env_input(self) -> ExecutorInput:
        return ExecutorInput(frames=self.frames)

    def prover_opts(self) -> ProverOpts:
        return ProverOpts(kind=ReceiptKind(self.kind),
                          num_queries=self.num_queries)

    @property
    def env_commitment(self) -> Digest:
        return self.env_input().digest

    @property
    def opts_digest(self) -> Digest:
        """Digest over the statement-shaping options only."""
        return tagged_hash(TAG_ENGINE_OPTS, self.kind.encode("utf-8"),
                           self.num_queries.to_bytes(4, "big"))

    def cache_key(self, image_id: Digest) -> Digest:
        """The content address of this job's receipt."""
        return tagged_hash(TAG_ENGINE_KEY, image_id.raw,
                           self.env_commitment.raw, self.opts_digest.raw)

    # -- wire form -----------------------------------------------------------

    def to_wire(self) -> dict[str, Any]:
        return {"guest_id": self.guest_id, "frames": list(self.frames),
                "kind": self.kind, "num_queries": self.num_queries,
                "guest_module": self.guest_module}

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "ProofJob":
        try:
            return cls(guest_id=wire["guest_id"],
                       frames=tuple(wire["frames"]),
                       kind=wire["kind"],
                       num_queries=wire["num_queries"],
                       guest_module=wire.get("guest_module"))
        except (KeyError, TypeError) as exc:
            raise SerializationError(
                f"malformed proof job wire: {exc}") from exc


@dataclass(frozen=True)
class JobResult:
    """What comes back from a worker (or the cache).

    Attribute-compatible with :class:`~repro.zkvm.prover.ProveInfo`
    for every consumer in :mod:`repro.core` (``.receipt``, ``.stats``);
    it additionally records whether the receipt was replayed from the
    :class:`~repro.engine.cache.ReceiptCache` and, for process workers,
    the worker-side metrics snapshot to merge into the host registry.
    """

    receipt: Receipt
    stats: ProveStats
    cached: bool = False
    obs_snapshot: dict[str, Any] | None = None

    def replace_cached(self, cached: bool) -> "JobResult":
        return JobResult(receipt=self.receipt, stats=self.stats,
                         cached=cached, obs_snapshot=self.obs_snapshot)

    # -- wire form -----------------------------------------------------------

    def to_wire(self) -> dict[str, Any]:
        return {
            "receipt": self.receipt.to_wire(),
            "stats": {
                "total_cycles": self.stats.total_cycles,
                "padded_cycles": self.stats.padded_cycles,
                "segment_count": self.stats.segment_count,
                "sha_compressions": self.stats.sha_compressions,
                "wall_seconds": self.stats.wall_seconds,
                "cycle_breakdown": dict(self.stats.cycle_breakdown),
            },
            "cached": self.cached,
            "obs_snapshot": self.obs_snapshot,
        }

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "JobResult":
        try:
            stats = wire["stats"]
            return cls(
                receipt=Receipt.from_wire(wire["receipt"]),
                stats=ProveStats(
                    total_cycles=stats["total_cycles"],
                    padded_cycles=stats["padded_cycles"],
                    segment_count=stats["segment_count"],
                    sha_compressions=stats["sha_compressions"],
                    wall_seconds=stats["wall_seconds"],
                    cycle_breakdown=dict(stats["cycle_breakdown"]),
                ),
                cached=wire["cached"],
                obs_snapshot=wire["obs_snapshot"],
            )
        except (KeyError, TypeError) as exc:
            raise SerializationError(
                f"malformed job result wire: {exc}") from exc


def resolve_job_guest(job: ProofJob) -> GuestProgram:
    """The job's guest program, wherever the job landed.

    Spawned workers only import repro.core; a guest registered by
    another module (tests, plugins) registers itself when its defining
    module is imported, so on a registry miss the job's hint completes
    the registry — then resolve again, raising the real error if the
    guest still is not there.
    """
    from ..core.guest_programs import resolve_guest
    try:
        return resolve_guest(job.guest_id)
    except ConfigurationError:
        if not job.guest_module:
            raise
        import importlib
        importlib.import_module(job.guest_module)
        return resolve_guest(job.guest_id)


def verify_job_receipt(receipt: Receipt, image_id: Digest,
                       input_digest: Digest) -> None:
    """Raise unless ``receipt`` proves the job that commits
    ``input_digest`` under guest ``image_id`` — the gate for receipts
    this process did not prove itself (a remote worker's result, a
    persistent cache entry on a store shared with untrusted nodes).

    ``verify_conditional``, not ``verify``: such a receipt may
    legitimately carry unresolved assumptions (the update strategy
    resolves them downstream).  Seal, image id, exit code and journal
    digest are still checked, and the input binding stops a valid
    receipt for *other* inputs being passed off as this job's.
    """
    Verifier().verify_conditional(receipt, image_id)
    claimed = receipt.claim.input_digest
    if claimed != input_digest:
        raise VerificationError(
            f"receipt binds input {claimed.hex()[:16]}…, "
            f"job committed {input_digest.hex()[:16]}…")


def execute_job(job: ProofJob, capture_obs: bool = False) -> JobResult:
    """Resolve the guest and prove the job (any process, any thread).

    Raises the prover's real exceptions (:class:`~repro.errors.
    GuestAbort`, :class:`~repro.errors.ProofError`) — all picklable, so
    they propagate intact through a ``ProcessPoolExecutor`` future.
    """
    program = resolve_job_guest(job)
    if capture_obs:
        from ..obs import runtime as obs
        with obs.capture() as handle:
            info = Prover(job.prover_opts()).prove(program,
                                                   job.env_input())
            snapshot = handle.registry.snapshot()
    else:
        info = Prover(job.prover_opts()).prove(program, job.env_input())
        snapshot = None
    return JobResult(receipt=info.receipt, stats=info.stats,
                     obs_snapshot=snapshot)


def run_job_wire(payload: bytes) -> bytes:
    """Process-pool entry point: wire in, wire out.

    Module-level (picklable by reference) and defined next to the job
    codec so a spawned worker only imports this module.
    """
    wire = decode(payload)
    job = ProofJob.from_wire(wire["job"])
    result = execute_job(job, capture_obs=wire["capture_obs"])
    return encode(result.to_wire())


def encode_job(job: ProofJob, capture_obs: bool) -> bytes:
    return encode({"job": job.to_wire(), "capture_obs": capture_obs})
