"""Exception hierarchy for the verifiable-telemetry library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch the whole family with one clause.  The hierarchy mirrors
the system's trust boundaries:

* :class:`IntegrityError` and its children signal that *committed data* no
  longer matches its commitment — the situation the paper's Figure 3
  experiment exercises.
* :class:`ProofError` and its children signal problems in the zkVM proof
  pipeline itself (malformed receipts, failed verification, guest aborts).
* The remaining classes are conventional operational errors (bad queries,
  storage failures, misconfiguration).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was constructed or used with invalid parameters."""


class SerializationError(ReproError):
    """A value could not be canonically encoded or decoded."""


# ---------------------------------------------------------------------------
# Integrity failures (tamper evidence)
# ---------------------------------------------------------------------------

class IntegrityError(ReproError):
    """Committed data failed an integrity check."""


class MerkleError(IntegrityError):
    """Generic Merkle-tree failure (bad proof shape, unknown leaf...)."""


class MerkleInclusionError(MerkleError):
    """A Merkle inclusion proof failed to recompute the committed root."""


class MissingCommitment(IntegrityError):
    """No published commitment exists for the requested window."""


# ---------------------------------------------------------------------------
# Proof-pipeline failures
# ---------------------------------------------------------------------------

class ProofError(ReproError):
    """Base class for zkVM proving/verification failures."""


class GuestAbort(ProofError):
    """The guest program aborted; no proof can be produced.

    This is how Algorithm 1's ``abort`` lines surface: an integrity check
    failed *inside* the zkVM, so proof generation stops (the honest prover
    cannot produce a receipt for a failed execution).
    """

    def __init__(self, reason: str, cause: Exception | None = None) -> None:
        self.reason = reason
        self.cause = cause
        super().__init__(f"guest aborted: {reason}")


class VerificationError(ProofError):
    """A receipt failed verification."""


class ImageIdMismatch(VerificationError):
    """Receipt was produced by a different guest program than expected."""


class JournalMismatch(VerificationError):
    """Receipt journal does not match the digest bound in the claim."""


class MalformedJournal(VerificationError):
    """A journal lacks a field its declared layout
    (:mod:`repro.core.journals`) requires, or holds one of the wrong type."""


class SealError(VerificationError):
    """The cryptographic seal failed to verify."""


class ChainError(ProofError):
    """The aggregation proof chain is broken (§4.1 step 1)."""


class PoolShutdown(ProofError):
    """A job was submitted to a :class:`~repro.engine.pool.ProverPool`
    after ``shutdown()``.

    Typed (rather than a bare :class:`ProofError`) so schedulers can
    tell "the pool is gone, stop submitting" apart from "this proof
    failed" — the former is a lifecycle bug at the call site, the
    latter a per-job outcome worth retrying or quarantining.
    """


class ClusterUnavailable(ProofError):
    """No cluster node could take a job and local fallback is disabled.

    Only raised when :class:`~repro.cluster.ClusterDispatcher` is
    configured with ``local_fallback=False``; the default
    configuration degrades to in-process proving instead.
    """


# ---------------------------------------------------------------------------
# Operational errors
# ---------------------------------------------------------------------------

class QueryError(ReproError):
    """A telemetry query is malformed or unsupported."""


class QuerySyntaxError(QueryError):
    """The SQL-subset parser rejected the query text."""

    def __init__(self, message: str, position: int | None = None) -> None:
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class StorageError(ReproError):
    """The shared log store failed an operation."""


class CheckpointError(ReproError):
    """A prover checkpoint could not be written, read, or trusted.

    Raised by :meth:`repro.core.prover_service.ProverService.restore`
    when a snapshot is malformed, its chain does not link, its entries
    do not recompute the committed root, or its latest receipt fails
    verification — a restore never silently accepts unproven state.
    """


class SimulationError(ReproError):
    """The NetFlow simulator was driven into an invalid state."""


# ---------------------------------------------------------------------------
# Network / wire-protocol errors (repro.net)
# ---------------------------------------------------------------------------

class NetworkError(ReproError):
    """Base class for wire-protocol and transport failures."""


class FrameError(NetworkError):
    """A wire frame is malformed."""


class TruncatedFrame(FrameError):
    """The connection ended (or data ran out) mid-frame."""


class FrameTooLarge(FrameError):
    """A frame's declared payload exceeds the configured maximum."""


class ProtocolError(NetworkError):
    """A well-framed message violates the message protocol
    (bad magic, unsupported version, malformed envelope...)."""


class ConnectionFailed(NetworkError):
    """Could not establish or keep a connection to the peer."""


class RequestTimeout(NetworkError):
    """A request did not complete within its deadline."""


class RemoteError(NetworkError):
    """The server processed a request and returned an error envelope.

    ``code`` is the wire error code (see ``repro.net.messages``); the
    original server-side exception class, when it maps to a code with a
    message-only constructor, is re-raised as that class instead.
    """

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(f"remote error [{code}]: {message}")


class AdmissionRejected(NetworkError):
    """The query service refused to admit a request (backpressure).

    Raised by :class:`repro.qserve.QueryService` when a tenant exceeds
    its token-bucket rate limit or the bounded admission queue is full.
    Carries a dedicated wire code (``admission-rejected``) so clients
    can tell "slow down and retry later" apart from every other
    failure; the server never queues such a request.
    """


class FrameFault(NetworkError):
    """An injected wire-frame *behaviour* (repro.faults ``net.frame``).

    Unlike every other injected error this is **control flow, not an
    outcome**: the fault site raises it to tell the transport wrapper
    *what to do to the frame* (``action`` is one of ``drop``/``delay``/
    ``corrupt``/``disconnect``), and the wrapper translates the action
    into real wire behaviour whose consequences (timeouts, resets,
    decode failures) are what the code under test must survive.  It
    must never escape :func:`repro.faults.wire.frame_action`.
    """

    def __init__(self, action: str, message: str = "") -> None:
        self.action = action
        super().__init__(message or f"injected frame fault: {action}")


class RetryExhausted(NetworkError):
    """All retry attempts failed; ``__cause__`` is the last error."""

    def __init__(self, attempts: int, last_error: Exception) -> None:
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"request failed after {attempts} attempt(s): {last_error}")
