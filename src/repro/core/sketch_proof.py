"""Verifiable sketch telemetry (paper §1: the commitment/proof pipeline
"can use any logging or sketching algorithm").

Two guests extend the system beyond raw-record CLogs:

* :data:`sketch_build_guest` — verifies router window commitments
  (exactly like Algorithm 1's Step 2) and folds the committed records
  into a Count-Min sketch plus a Space-Saving heavy-hitter summary.
  The journal publishes only the sketch *digest*, the stream total, and
  the requested top-k heavy hitters — not the sketch contents.
* :data:`sketch_estimate_guest` — given a build receipt (bound via
  ``env.verify``) and the full sketch state, re-derives the committed
  digest and proves a per-flow frequency estimate.

This is the TrustSketch use case — sketch-based telemetry with
integrity — re-based from enclaves onto proofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import ProofError
from ..netflow.records import FlowKey, NetFlowRecord
from ..serialization import decode, decode_stream, encode
from ..sketch import CountMinSketch, SpaceSaving
from ..zkvm import (
    ExecutorEnvBuilder,
    ProveInfo,
    Prover,
    ProverOpts,
    Receipt,
    Verifier,
)
from ..zkvm import cycles as cy
from ..zkvm.guest import GuestEnv, guest_program
from ..zkvm.recursion import resolve
from .aggregation import (
    RouterWindowInput,
    decode_records,
    make_receipt_binding,
    write_window_frames,
)
from .chain import require_distinct_windows
from .guest_programs import (
    DECODE_CYCLES_PER_BYTE,
    assume_receipt,
    verify_window_commitments,
)

# Per-update compute beyond the row hashing (bucket adds, comparisons).
SKETCH_UPDATE_CYCLES = 40


def _charge_sketch_update(env: GuestEnv, depth: int) -> None:
    """A Count-Min add costs one compression per hash row."""
    env.tick(depth * cy.SHA256_COMPRESS_CYCLES
             + SKETCH_UPDATE_CYCLES, "sketch")


@guest_program("sketch-build-v1")
def sketch_build_guest(env: GuestEnv) -> None:
    """Build committed sketches from committed raw logs."""
    header = env.read()
    cm = CountMinSketch(width=header["width"], depth=header["depth"],
                        seed=header["seed"])
    heavy = SpaceSaving(capacity=header["capacity"])
    windows, blobs = verify_window_commitments(env, header["num_routers"])
    for blob in blobs:
        env.tick(len(blob) * DECODE_CYCLES_PER_BYTE, "decode")
        record = NetFlowRecord.from_wire(decode(blob))
        key_bytes = record.key.pack()
        cm.add(key_bytes, record.packets)
        _charge_sketch_update(env, cm.depth)
        heavy.add(key_bytes, record.packets)
        env.tick(SKETCH_UPDATE_CYCLES, "sketch")
    # Committing the state digest costs hashing the serialized state.
    state_bytes = encode(cm.to_state())
    env.tick(len(state_bytes) * DECODE_CYCLES_PER_BYTE, "sketch")
    # Meter only: the canonical (tagged) digest below is what we publish.
    env.sha256(state_bytes, category="sketch")
    env.commit({
        "windows": windows,
        "cm_digest": cm.digest(),
        "cm_params": {"width": cm.width, "depth": cm.depth,
                      "seed": cm.seed},
        "total_packets": cm.total,
        "top": [{"k": key, "c": count}
                for key, count in heavy.top(header["top_k"])],
    })


@guest_program("sketch-estimate-v1")
def sketch_estimate_guest(env: GuestEnv) -> None:
    """Prove a point-frequency estimate against a committed sketch."""
    header = env.read()
    binding = assume_receipt(env)
    build_journal = next(decode_stream(binding["journal"]), None)
    if not isinstance(build_journal, dict):
        env.abort("build journal has no header")

    state = env.read()
    state_bytes = encode(state)
    env.tick(len(state_bytes) * DECODE_CYCLES_PER_BYTE, "decode")
    cm = CountMinSketch.from_state(state)
    if cm.digest() != build_journal["cm_digest"]:
        env.abort("sketch state does not match the committed digest")
    env.tick(len(state_bytes) // 32 * cy.SHA256_COMPRESS_CYCLES,
             "sketch")
    key_bytes: bytes = header["key"]
    estimate = cm.estimate(key_bytes)
    _charge_sketch_update(env, cm.depth)
    env.commit({
        "key": key_bytes,
        "estimate": estimate,
        "cm_digest": build_journal["cm_digest"],
        "total_packets": build_journal["total_packets"],
    })


@dataclass(frozen=True)
class SketchBuildResult:
    """A proven sketch build."""

    receipt: Receipt
    info: ProveInfo
    sketch: CountMinSketch  # provider-side state (private)
    heavy_hitters: tuple[tuple[bytes, int], ...]

    @property
    def journal(self) -> dict[str, Any]:
        return self.receipt.journal.decode_one()


@dataclass(frozen=True)
class SketchEstimate:
    """A proven point estimate."""

    key: FlowKey
    estimate: int
    receipt: Receipt


class SketchTelemetry:
    """Host-side orchestration of the sketch guests."""

    def __init__(self, width: int = 2048, depth: int = 4,
                 seed: int = 0, capacity: int = 64,
                 prover_opts: ProverOpts | None = None) -> None:
        self.width = width
        self.depth = depth
        self.seed = seed
        self.capacity = capacity
        self._prover = Prover(prover_opts or ProverOpts.groth16())

    def build(self, windows: list[RouterWindowInput],
              top_k: int = 10) -> SketchBuildResult:
        """Prove a sketch build over committed windows."""
        ordered = sorted(windows,
                         key=lambda w: (w.router_id, w.window_index))
        builder = ExecutorEnvBuilder()
        builder.write({
            "width": self.width, "depth": self.depth,
            "seed": self.seed, "capacity": self.capacity,
            "num_routers": len(ordered), "top_k": top_k,
        })
        write_window_frames(builder, ordered)
        info = self._prover.prove(sketch_build_guest, builder.build())
        # Reconstruct the provider-side sketch (same determinism the
        # guest used).
        sketch = CountMinSketch(self.width, self.depth, self.seed)
        heavy = SpaceSaving(self.capacity)
        for record in decode_records(ordered):
            sketch.add(record.key.pack(), record.packets)
            heavy.add(record.key.pack(), record.packets)
        journal = info.receipt.journal.decode_one()
        if journal["cm_digest"] != sketch.digest():
            raise ProofError("host sketch diverged from guest sketch")
        return SketchBuildResult(
            receipt=info.receipt,
            info=info,
            sketch=sketch,
            heavy_hitters=tuple(heavy.top(top_k)),
        )

    def prove_estimate(self, build: SketchBuildResult,
                       key: FlowKey) -> SketchEstimate:
        """Prove ``estimate(key)`` against the committed sketch."""
        builder = ExecutorEnvBuilder()
        builder.write({"key": key.pack()})
        builder.write(make_receipt_binding(build.receipt))
        builder.write(build.sketch.to_state())
        info = self._prover.prove(sketch_estimate_guest,
                                  builder.build())
        receipt = resolve(info.receipt, build.receipt)
        journal = receipt.journal.decode_one()
        return SketchEstimate(key=key, estimate=journal["estimate"],
                              receipt=receipt)


def verify_sketch_build(receipt: Receipt, bulletin) -> dict[str, Any]:
    """Client-side check of a sketch-build receipt.

    Verifies the proof against the public build image, refuses a
    journal that consumes a (router, window) pair twice, and
    cross-checks every consumed window commitment against the bulletin;
    returns the public journal (digest, total, heavy hitters).
    """
    Verifier().verify(receipt, sketch_build_guest.image_id)
    journal = receipt.journal.decode_one()
    require_distinct_windows(
        "sketch build", [(w["r"], w["w"]) for w in journal["windows"]])
    for window in journal["windows"]:
        published = bulletin.get(window["r"], window["w"])
        if published.digest != window["c"]:
            raise ProofError(
                "sketch build consumed a commitment that differs from "
                "the published one")
    return journal


def verify_sketch_estimate(estimate: SketchEstimate,
                           build_journal: dict[str, Any]) -> int:
    """Client-side check of an estimate receipt against a verified
    build journal; returns the proven estimate."""
    Verifier().verify(estimate.receipt, sketch_estimate_guest.image_id)
    journal = estimate.receipt.journal.decode_one()
    if journal["cm_digest"] != build_journal["cm_digest"]:
        raise ProofError("estimate was proven against a different "
                         "sketch")
    if journal["key"] != estimate.key.pack() \
            or journal["estimate"] != estimate.estimate:
        raise ProofError("estimate response does not match its proof")
    return journal["estimate"]
