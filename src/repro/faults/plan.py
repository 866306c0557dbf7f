"""Fault plans: *what* to inject, *where*, and *when*.

A :class:`FaultPlan` is a declarative, seedable description of faults to
raise at named **sites** — the chokepoints a long-running prover
deployment actually fails at (store reads, bulletin fetches, proving,
the wire transport).  Plans are pure data: the same plan and seed always
fire on exactly the same invocations, so every chaos test is replayable
bit-for-bit (CI runs the suite under several ``REPRO_FAULT_SEED``
values).

The injected exceptions are the *real* domain classes
(:class:`~repro.errors.StorageError`,
:class:`~repro.errors.MissingCommitment`, ...), not synthetic marker
types — the recovery code under test must classify and handle them with
exactly the logic it uses in production.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import (
    ConfigurationError,
    ConnectionFailed,
    FrameFault,
    GuestAbort,
    MissingCommitment,
    ProofError,
    RequestTimeout,
    StorageError,
)

# -- named sites -------------------------------------------------------------
#
# One constant per injection point wired into the wrappers
# (:mod:`repro.faults.wrappers`) and the net client.  Tests reference
# these instead of raw strings so a typo'd site fails loudly.

STORE_WINDOW_BLOBS = "store.window_blobs"
STORE_WINDOW_INDICES = "store.window_indices"
STORE_ROUTER_IDS = "store.router_ids"
BULLETIN_GET = "bulletin.get"
PROVER_PROVE = "prover.prove"
NET_TRANSPORT = "net.transport"
ENGINE_WORKER = "engine.worker"
NET_FRAME = "net.frame"

KNOWN_SITES = frozenset({
    STORE_WINDOW_BLOBS,
    STORE_WINDOW_INDICES,
    STORE_ROUTER_IDS,
    BULLETIN_GET,
    PROVER_PROVE,
    NET_TRANSPORT,
    ENGINE_WORKER,
    NET_FRAME,
})

# -- error kinds -------------------------------------------------------------
#
# kind name -> factory producing the exception to raise.  Using the real
# hierarchy means a "storage" fault fails a round exactly like a real
# backend outage (the failed round commits nothing, so a retry is
# safe), and a "guest-abort" fault is quarantined exactly like real
# tampered data.

ERROR_KINDS: dict[str, Callable[[str], Exception]] = {
    "storage": lambda msg: StorageError(msg),
    "missing-commitment": lambda msg: MissingCommitment(msg),
    "proof": lambda msg: ProofError(msg),
    "guest-abort": lambda msg: GuestAbort(msg),
    "connection": lambda msg: ConnectionFailed(msg),
    "timeout": lambda msg: RequestTimeout(msg),
    # Wire-frame *behaviours* for the net.frame site: the raised
    # FrameFault is control flow consumed by repro.faults.wire —
    # the transport turns the action into a real dropped/delayed/
    # corrupted frame or a hard disconnect, and the code under test
    # sees only the organic consequences (timeouts, resets, decode
    # failures), never the marker exception itself.
    "drop": lambda msg: FrameFault("drop", msg),
    "delay": lambda msg: FrameFault("delay", msg),
    "corrupt": lambda msg: FrameFault("corrupt", msg),
    "disconnect": lambda msg: FrameFault("disconnect", msg),
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule: fire ``error`` at ``site`` on chosen invocations.

    Invocations are numbered per site, from 1.  The spec fires on
    invocation ``start``, then on every ``every``-th invocation after
    it, at most ``count`` times in total (``count=None`` never stops —
    a *permanent* fault; any finite ``count`` makes it *transient*).
    ``probability`` gates each candidate firing through the plan's
    seeded RNG, so probabilistic chaos stays deterministic per seed.
    """

    site: str
    error: str = "storage"
    start: int = 1
    every: int = 1
    count: int | None = None
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ConfigurationError(
                f"unknown fault site {self.site!r}; known sites: "
                f"{sorted(KNOWN_SITES)}")
        if self.error not in ERROR_KINDS:
            raise ConfigurationError(
                f"unknown fault error kind {self.error!r}; known kinds: "
                f"{sorted(ERROR_KINDS)}")
        if self.start < 1 or self.every < 1:
            raise ConfigurationError("start and every must be >= 1")
        if self.count is not None and self.count < 1:
            raise ConfigurationError("count must be >= 1 or None")
        if not 0.0 < self.probability <= 1.0:
            raise ConfigurationError("probability must be in (0, 1]")

    @property
    def permanent(self) -> bool:
        """A fault that never stops firing once its schedule matches."""
        return self.count is None

    def matches(self, invocation: int) -> bool:
        """Does the schedule name this (1-based) invocation?"""
        if invocation < self.start:
            return False
        return (invocation - self.start) % self.every == 0

    def make_error(self, invocation: int) -> Exception:
        return ERROR_KINDS[self.error](
            f"injected {self.error} fault at {self.site} "
            f"(invocation {invocation})")

    # -- spec-string form ----------------------------------------------------

    def to_text(self) -> str:
        parts = [self.site, self.error]
        opts = []
        if self.start != 1:
            opts.append(f"start={self.start}")
        if self.every != 1:
            opts.append(f"every={self.every}")
        if self.count is not None:
            opts.append(f"count={self.count}")
        if self.probability != 1.0:
            opts.append(f"p={self.probability}")
        if opts:
            parts.append(",".join(opts))
        return ":".join(parts)

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``site[:error[:opt=val,...]]`` (the env-var grammar)."""
        pieces = text.strip().split(":")
        if not pieces or not pieces[0]:
            raise ConfigurationError(f"empty fault spec in {text!r}")
        site = pieces[0].strip()
        error = pieces[1].strip() if len(pieces) > 1 and pieces[1] \
            else "storage"
        kwargs: dict[str, int | float | None] = {}
        if len(pieces) > 2 and pieces[2]:
            for option in pieces[2].split(","):
                key, sep, value = option.partition("=")
                key = key.strip()
                if not sep:
                    raise ConfigurationError(
                        f"malformed fault option {option!r} in {text!r}")
                try:
                    if key in ("start", "every", "count"):
                        kwargs[key] = int(value)
                    elif key in ("p", "probability"):
                        kwargs["probability"] = float(value)
                    else:
                        raise ConfigurationError(
                            f"unknown fault option {key!r} in {text!r}")
                except ValueError as exc:
                    raise ConfigurationError(
                        f"bad value for fault option {key!r} in "
                        f"{text!r}") from exc
        return cls(site=site, error=error, **kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan:
    """A seeded collection of fault specs — one chaos scenario."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def for_site(self, site: str) -> tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if s.site == site)

    @property
    def sites(self) -> frozenset[str]:
        return frozenset(s.site for s in self.specs)

    def __bool__(self) -> bool:
        return bool(self.specs)

    def to_text(self) -> str:
        """The ``REPRO_FAULTS`` string form (``;``-separated specs)."""
        return ";".join(spec.to_text() for spec in self.specs)

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        specs = tuple(FaultSpec.parse(piece)
                      for piece in text.split(";") if piece.strip())
        return cls(specs=specs, seed=seed)
