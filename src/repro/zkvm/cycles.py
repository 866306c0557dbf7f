"""Cycle-cost constants for the simulated zkVM.

The meter charges guest-visible operations the way RISC Zero's circuit
does: the sha-256 accelerator costs a fixed number of cycles per 64-byte
compression block, I/O costs per word transferred, and generic compute is
charged explicitly by the guest through ``env.tick``.

The absolute values matter less than their *ratios* — the prover cost
model (:mod:`repro.zkvm.costmodel`) is calibrated end-to-end against the
paper's measured latencies, and the ratios determine the reproduced curve
shapes (Figure 4) and the Merkle-dominance profile (§6).
"""

from __future__ import annotations

# One sha-256 compression (64-byte block) in the accelerator circuit.
SHA256_COMPRESS_CYCLES = 68

# Guest/host I/O: cycles per 4-byte word moved through env.read/env.commit.
IO_CYCLES_PER_WORD = 2

# Generic RISC-V instruction (ALU op, branch, load/store).
ALU_CYCLES = 1

# env::verify of a prior receipt claim inside the guest (recursion
# assumption).  Constant: the claim digest is absorbed, resolution happens
# outside the segment circuit.
ASSUMPTION_CYCLES = 5_000

# Fixed per-execution overhead (setup, ECALLs, halt).
EXECUTION_BASE_CYCLES = 10_000

# Segments: RISC Zero proves execution in power-of-two chunks.
SEGMENT_CYCLE_LIMIT = 1 << 20

# Per-segment constant padding: a segment is proven as a full power-of-two
# trace, so partially filled segments still pay for their po2 size.
SEGMENT_MIN_PO2 = 13  # smallest segment size 2^13


def words_for_bytes(num_bytes: int) -> int:
    """4-byte words needed to transfer ``num_bytes`` (rounded up)."""
    if num_bytes < 0:
        raise ValueError("num_bytes must be non-negative")
    return (num_bytes + 3) // 4


def sha256_blocks(num_bytes: int) -> int:
    """64-byte compression blocks to hash ``num_bytes`` (midstate rule)."""
    if num_bytes < 0:
        raise ValueError("num_bytes must be non-negative")
    return (num_bytes + 9 + 63) // 64


def sha256_blocks_batch(lengths) -> int:
    """Total compression blocks for a batch of messages.

    Each message pays its own padding (``ceil((len + 9) / 64)``), so the
    batch total equals the sum of per-message charges — one accounting
    call prices a whole buffer of guest syscalls without changing the
    metered cycle count.
    """
    return sum(map(sha256_blocks, lengths))


def io_cycles_batch(lengths) -> int:
    """Total I/O cycles for a batch of frames (per-frame word rounding)."""
    total = 0
    for num_bytes in lengths:
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        total += (num_bytes + 3) // 4
    return total * IO_CYCLES_PER_WORD


def sha256_cycles(num_bytes: int, *, midstate: bool = True) -> int:
    """Cycles to hash ``num_bytes`` through the sha accelerator.

    ``midstate=True`` models tag-prefix midstate caching (the 64-byte
    domain-separation prefix is absorbed once, off the metered path), so a
    message costs ``ceil((len + 9) / 64)`` compressions.
    """
    blocks = sha256_blocks(num_bytes)
    if not midstate:
        blocks += 1
    return blocks * SHA256_COMPRESS_CYCLES


def io_cycles(num_bytes: int) -> int:
    """Cycles to move ``num_bytes`` across the guest/host boundary."""
    return words_for_bytes(num_bytes) * IO_CYCLES_PER_WORD


def segments(total_cycles: int) -> list[tuple[int, int]]:
    """The segment walk: ``(cycle_count, po2)`` for each segment of an
    execution metering ``total_cycles``.

    Segments fill to :data:`SEGMENT_CYCLE_LIMIT` in order; each is proven
    as a full ``2**po2`` trace, the smallest power of two (at least
    ``2**SEGMENT_MIN_PO2``) that holds its cycles.  An empty execution is
    still one segment.
    """
    walk = []
    remaining = max(total_cycles, 1)
    while remaining > 0:
        count = min(remaining, SEGMENT_CYCLE_LIMIT)
        remaining -= count
        walk.append((count, max(SEGMENT_MIN_PO2, (count - 1).bit_length())))
    return walk
