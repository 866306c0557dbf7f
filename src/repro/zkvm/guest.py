"""Guest-side programming model (the analogue of ``risc0_zkvm::guest``).

A *guest program* is a deterministic Python callable ``fn(env)`` that may
only interact with the world through its :class:`GuestEnv`:

* ``env.read()`` — pop the next host-supplied input value;
* ``env.commit(value)`` — append a public output to the journal;
* ``env.sha256`` / ``env.tagged_hash`` / ``env.merkle_hasher()`` — hashing
  through the metered sha-256 accelerator;
* ``env.verify(image_id, claim_digest)`` — assume another receipt's claim
  (recursion / proof composition, used for the aggregation chain);
* ``env.tick(n)`` — charge generic compute cycles;
* ``env.abort(reason)`` — the ``abort`` of the paper's Algorithm 1.

Every operation is charged to the cycle meter, so executions have
deterministic cycle counts that the prover cost model converts into
modeled proving latency.

The program's *image id* is the digest of its name, its source code and
the source of every helper function it calls from its own package — the
binding between a receipt and "which program produced this", like the
RISC-V ELF image id in RISC Zero.
"""

from __future__ import annotations

import dis
import inspect
from functools import cached_property
from types import CodeType, FunctionType, MappingProxyType
from typing import Any, Callable, Iterator

from ..errors import ConfigurationError
from ..hashing import (
    TAG_EMPTY,
    TAG_IMAGE_ID,
    Digest,
    tagged_hash,
)
from ..merkle import memo as merkle_memo
from ..serialization import decode, encode
from . import cycles as cy
from .receipt import Assumption


#: Distinct input frames whose decoded values one process keeps (a kept
#: CLog entry frame costs ~0.65 KiB, so ~2.7 MiB when full): every cold
#: query at one committed root reads the same entry frames.
FRAME_MEMO_CAPACITY = 1 << 12

# Frame bytes -> the read-only dict they decode to.  Like the Merkle
# digest memo it saves host CPU, never modeled cycles: ``read_batch``
# charges the transfer before it looks a frame up.  Only dicts of
# immutable scalars are kept, so no caller can change what another
# one reads.
DECODED_FRAMES: merkle_memo.DigestMemo[Any] = \
    merkle_memo.DigestMemo(FRAME_MEMO_CAPACITY)

_SCALARS = frozenset((bytes, str, int, float, bool, type(None)))


def _decode_frame(frame: bytes) -> Any:
    """``decode(frame)``, a dict read-only and from the memo if seen."""
    value = DECODED_FRAMES.get(frame)
    if value is not None:
        return value
    value = decode(frame)
    if type(value) is not dict:
        return value
    view = MappingProxyType(value)
    if all(type(item) in _SCALARS for item in value.values()):
        DECODED_FRAMES.put(frame, view)
    return view


class GuestAbortSignal(Exception):
    """Internal control-flow signal raised by ``env.abort``.

    The executor converts this into an ``ABORTED`` session; the prover
    surfaces it as :class:`repro.errors.GuestAbort` — an honest prover
    cannot emit a receipt for an aborted execution.
    """

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


class GuestProgram:
    """A named, content-addressed guest program."""

    def __init__(self, fn: Callable[["GuestEnv"], None],
                 name: str | None = None) -> None:
        if not callable(fn):
            raise ConfigurationError("guest program must be callable")
        self.fn = fn
        self.name = name or getattr(fn, "__qualname__", "anonymous")

    @cached_property
    def image_id(self) -> Digest:
        # Lazy: a guest may call helpers (or pin guests) defined below
        # it, which exist only once its module has finished importing.
        return compute_image_id(self.fn, self.name)

    def __call__(self, env: "GuestEnv") -> None:
        self.fn(env)

    def __repr__(self) -> str:
        return f"GuestProgram({self.name!r}, image={self.image_id.short()}...)"


def compute_image_id(fn: Callable[..., Any], name: str) -> Digest:
    """Digest of the guest's source — the receipt↔code binding.

    Covers ``fn`` and, transitively, every module-level function it
    reaches by global name inside its own package — the guest "crate" —
    so a line changed in a shared Algorithm 1 step changes the image id
    of every guest calling it.  Code from other packages (serialization,
    hashing, the query evaluator) is the toolchain and stays outside.
    """
    helpers = sorted(f"{helper.__qualname__}\n{_source(helper)}"
                     for helper in _called_helpers(fn))
    return tagged_hash(TAG_IMAGE_ID, name.encode("utf-8"),
                       _source(fn).encode("utf-8"),
                       *(text.encode("utf-8") for text in helpers))


def _source(fn: Callable[..., Any]) -> str:
    try:
        return inspect.getsource(fn)
    except (OSError, TypeError):
        # Lambdas defined in a REPL etc.: fall back to the code object's
        # bytecode, which is still deterministic for a fixed interpreter.
        code = getattr(fn, "__code__", None)
        return code.co_code.hex() if code is not None else repr(fn)


def _package(fn: Callable[..., Any]) -> str:
    return (getattr(fn, "__module__", None) or "").rpartition(".")[0]


def _global_names(code: CodeType) -> Iterator[str]:
    for instruction in dis.get_instructions(code):
        if instruction.opname == "LOAD_GLOBAL":
            yield instruction.argval
    for const in code.co_consts:
        if isinstance(const, CodeType):  # lambdas, comprehensions
            yield from _global_names(const)


def _called_helpers(fn: Callable[..., Any]) -> list[FunctionType]:
    package = _package(fn)
    helpers: list[FunctionType] = []
    pending = [fn] if isinstance(fn, FunctionType) else []
    while pending:
        current = pending.pop()
        for global_name in _global_names(current.__code__):
            target = current.__globals__.get(global_name)
            if isinstance(target, FunctionType) and target is not fn \
                    and target not in helpers \
                    and _package(target) == package:
                helpers.append(target)
                pending.append(target)
    return helpers


def guest_program(name: str | None = None):
    """Decorator turning a function into a :class:`GuestProgram`."""
    def wrap(fn: Callable[["GuestEnv"], None]) -> GuestProgram:
        return GuestProgram(fn, name=name or fn.__name__)
    return wrap


class CycleMeter:
    """Tracks cycles by category plus the sha-compression count."""

    def __init__(self) -> None:
        self.total = cy.EXECUTION_BASE_CYCLES
        self.by_category: dict[str, int] = {"base": cy.EXECUTION_BASE_CYCLES}
        self.sha_compressions = 0

    def charge(self, amount: int, category: str) -> None:
        if amount < 0:
            raise ConfigurationError("cannot charge negative cycles")
        self.total += amount
        self.by_category[category] = \
            self.by_category.get(category, 0) + amount

    def charge_sha(self, num_bytes: int, category: str,
                   times: int = 1) -> None:
        """Price ``times`` messages of ``num_bytes`` each."""
        blocks = cy.sha256_blocks(num_bytes) * times
        self.sha_compressions += blocks
        self.charge(blocks * cy.SHA256_COMPRESS_CYCLES, category)

    def charge_sha_batch(self, lengths: list[int], category: str) -> None:
        """Price a whole buffer of messages in one accounting call.

        Each message still pays its own padding, so the total equals the
        sum of per-message :meth:`charge_sha` calls exactly.
        """
        blocks = cy.sha256_blocks_batch(lengths)
        self.sha_compressions += blocks
        self.charge(blocks * cy.SHA256_COMPRESS_CYCLES, category)


class GuestEnv:
    """Execution environment handed to guest programs."""

    def __init__(self, frames: tuple[bytes, ...]) -> None:
        self._frames = frames
        self._frame_pos = 0
        self._journal = bytearray()
        self._assumptions: list[Assumption] = []
        self._meter = CycleMeter()

    # -- I/O -------------------------------------------------------------------

    def read(self) -> Any:
        """Read the next input value from the host."""
        if self._frame_pos >= len(self._frames):
            self.abort("guest read past end of input")
        frame = self._frames[self._frame_pos]
        self._frame_pos += 1
        self._meter.charge(cy.io_cycles(len(frame)), "io")
        return decode(frame)

    def read_batch(self, count: int) -> list[Any]:
        """Read ``count`` input values through one buffered syscall.

        Slices the frame buffer once and prices the whole transfer with
        a single batched I/O charge; per-frame word rounding is
        preserved, so the metered cycle total is identical to ``count``
        individual :meth:`read` calls.  A batch reaching past the end of
        input aborts before charging anything or consuming any frame.
        A frame that decodes to a dict comes back read-only, from a
        memo keyed by the frame's bytes when an earlier batch read it.
        """
        if count < 0:
            raise ConfigurationError("read_batch count must be non-negative")
        if count == 0:
            # An empty batch must not touch the meter: a zero-amount
            # charge would still materialize an "io" category in the
            # breakdown, which per-value reads never do.
            return []
        end = self._frame_pos + count
        if end > len(self._frames):
            self.abort("guest read past end of input")
        frames = self._frames[self._frame_pos:end]
        self._frame_pos = end
        self._meter.charge(cy.io_cycles_batch([len(f) for f in frames]),
                           "io")
        return [_decode_frame(f) for f in frames]

    @property
    def frames_remaining(self) -> int:
        return len(self._frames) - self._frame_pos

    def commit(self, value: Any) -> None:
        """Append a public output to the journal."""
        frame = encode(value)
        self._meter.charge(cy.io_cycles(len(frame)), "io")
        # The journal is hashed into the claim; charge the accelerator.
        self._meter.charge_sha(len(frame), "io")
        self._journal.extend(frame)

    def commit_many(self, values: list[Any]) -> None:
        """Commit a batch of public outputs through one buffered syscall.

        Journal bytes are the exact concatenation of per-value
        :meth:`commit` frames, and the batched I/O + sha accounting sums
        the per-message charges, so both the journal and the cycle
        totals are byte-for-byte identical to the loop it replaces.
        """
        if not values:
            return  # keep the meter breakdown free of zero entries
        frames = [encode(value) for value in values]
        lengths = [len(frame) for frame in frames]
        self._meter.charge(cy.io_cycles_batch(lengths), "io")
        self._meter.charge_sha_batch(lengths, "io")
        self._journal.extend(b"".join(frames))

    # -- hashing ------------------------------------------------------------------

    def sha256(self, data: bytes, category: str = "hash") -> Digest:
        self._meter.charge_sha(len(data), category)
        from ..hashing import sha256 as _sha256
        return _sha256(data)

    def tagged_hash(self, tag: str, *parts: bytes,
                    category: str = "hash") -> Digest:
        total = sum(len(p) for p in parts)
        self._meter.charge_sha(total, category)
        return tagged_hash(tag, *parts)

    def hash_many(self, tag: str, items: list[bytes],
                  category: str = "hash") -> Digest:
        """Length-framed multi-item hash (window commitments use this)."""
        from ..hashing import hash_many as _hash_many
        total = sum(len(item) + 8 for item in items)
        self._meter.charge_sha(total, category)
        return _hash_many(tag, items)

    def merkle_hasher(self, category: str = "merkle") -> "MeteredMerkleHasher":
        """A Merkle hash strategy whose work is charged to the meter."""
        return MeteredMerkleHasher(self, category)

    # -- control ---------------------------------------------------------------------

    def tick(self, amount: int, category: str = "compute") -> None:
        """Charge generic compute cycles (loops, comparisons, arithmetic)."""
        self._meter.charge(amount, category)

    def abort(self, reason: str) -> None:
        """Terminate execution; no receipt can be produced (Algorithm 1)."""
        raise GuestAbortSignal(reason)

    def verify(self, image_id: Digest, claim_digest: Digest) -> None:
        """Assume another receipt's claim holds (``env::verify``).

        Adds an *assumption* to this execution; the resulting receipt is
        conditional until the host resolves the assumption against a real
        verified receipt (see :mod:`repro.zkvm.recursion`).  This is how
        Algorithm 1 step 1 — "Verify Previous Aggregation" — runs inside
        the zkVM without re-executing the previous round.
        """
        self._meter.charge(cy.ASSUMPTION_CYCLES, "verify")
        self._assumptions.append(
            Assumption(claim_digest=claim_digest, image_id=image_id)
        )

    # -- introspection (host side, after execution) ------------------------------------

    @property
    def journal_data(self) -> bytes:
        return bytes(self._journal)

    @property
    def assumptions(self) -> tuple[Assumption, ...]:
        return tuple(self._assumptions)

    @property
    def meter(self) -> CycleMeter:
        return self._meter


class MeteredMerkleHasher:
    """Merkle hash strategy charging the guest cycle meter.

    Implements the :class:`repro.merkle.hasher.MerkleHasher` protocol with
    identical digests to the host-side hasher — proofs generated on the
    host verify inside the guest and vice versa — while every compression
    is charged to the meter under the given category.
    """

    algorithm = "tagged-sha256"

    def __init__(self, env: GuestEnv, category: str = "merkle") -> None:
        self._env = env
        self._category = category

    # Two 32-byte child digests: every interior node hashes 64 bytes.
    _NODE_INPUT_BYTES = 2 * 32

    def leaf(self, data: bytes) -> Digest:
        # Cycles are charged unconditionally — the memo saves host CPU,
        # never modeled guest work — so cycle totals equal
        # ``env.tagged_hash(TAG_LEAF, data)``'s.
        self._env.meter.charge_sha(len(data), self._category)
        return merkle_memo.leaf_digest(data)

    def node(self, left: Digest, right: Digest) -> Digest:
        self._env.meter.charge_sha(self._NODE_INPUT_BYTES, self._category)
        return merkle_memo.node_digest(left, right)

    def charge_nodes(self, count: int) -> None:
        """Charge ``count`` :meth:`node` calls at once: the levels of a
        tree replayed from the memo cost what hashing them did."""
        self._env.meter.charge_sha(self._NODE_INPUT_BYTES, self._category,
                                   count)

    def empty(self) -> Digest:
        return tagged_hash(TAG_EMPTY, b"")
