"""Prover latency model, calibrated to the paper's measurements.

Our simulated zkVM executes in milliseconds of real time; what the paper
measures is STARK proving on a 16-core Threadripper, where the 3,000-entry
aggregation takes ≈87 minutes.  The cost model converts *metered cycles*
(a deterministic property of the guest execution) into modeled prover
seconds per backend:

* ``CPU_ZKVM`` — RISC Zero 3.0 on the paper's testbed.  The throughput
  constant is calibrated once, against the paper's single 3,000-entry
  aggregation endpoint; every other point on every curve is then
  *predicted* from metered cycles, and EXPERIMENTS.md compares those
  predictions against the paper's other measurements.
* ``GPU_ZKVM`` — §7 "GPU acceleration": order-of-magnitude faster.
* ``SPECIALIZED_HASH`` — §7 "Specialization proof systems": a dedicated
  hash-proving system at 600,000 hashes/second (the StarkWare M3 figure
  the paper cites), charged per sha-256 compression instead of per cycle.

This module is the only seconds formula: metered runs (``ProveStats``,
``ExecutionSession``) and the query planner's predictions are priced by
the same :meth:`CostModel.estimate`, and a fan-out by
:meth:`CostModel.fanout_seconds`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Protocol

from .verifier import MODELED_VERIFY_SECONDS

# Calibrated so that the Figure-4 aggregation guest at 3,000 entries lands
# at the paper's ≈87 min (see tests/unit/test_costmodel.py and
# benchmarks/bench_fig4_proof_latency.py for the check).
CPU_CYCLES_PER_SECOND = 2_830.0

# §7: "preliminary benchmarks suggest that GPU-assisted hashing and
# modular arithmetic can yield order-of-magnitude improvements."
GPU_SPEEDUP = 10.0

# §7: "the work of [2] offers 600,000 hashes per second on an M3 MacBook".
SPECIALIZED_HASHES_PER_SECOND = 600_000.0

# Fixed per-proof overheads: setup, witness generation, SNARK wrap.
BASE_OVERHEAD_SECONDS = 12.0
SEGMENT_OVERHEAD_SECONDS = 1.5

# Constant client-side verification (paper §6: 3 ms at every scale); the
# verifier owns the figure and reports it per receipt.
VERIFY_SECONDS = MODELED_VERIFY_SECONDS


class ProverBackend(enum.Enum):
    CPU_ZKVM = "cpu-zkvm"
    GPU_ZKVM = "gpu-zkvm"
    SPECIALIZED_HASH = "specialized-hash"


class Metered(Protocol):
    """What a proof is priced from: the counts of one (metered or
    predicted) execution, segmented by :func:`repro.zkvm.cycles.segments`."""

    total_cycles: int
    padded_cycles: int
    segment_count: int
    sha_compressions: int


@dataclass(frozen=True)
class CostEstimate:
    """Modeled prover latency for one execution on one backend."""

    backend: ProverBackend
    seconds: float
    cycles: int
    sha_compressions: int

    @property
    def minutes(self) -> float:
        return self.seconds / 60.0


class CostModel:
    """Converts metered execution stats into modeled prover latency."""

    def __init__(
        self,
        cpu_cycles_per_second: float = CPU_CYCLES_PER_SECOND,
        gpu_speedup: float = GPU_SPEEDUP,
        specialized_hashes_per_second: float = SPECIALIZED_HASHES_PER_SECOND,
        base_overhead: float = BASE_OVERHEAD_SECONDS,
        segment_overhead: float = SEGMENT_OVERHEAD_SECONDS,
    ) -> None:
        if cpu_cycles_per_second <= 0:
            raise ValueError("cpu_cycles_per_second must be positive")
        self.cpu_cycles_per_second = cpu_cycles_per_second
        self.gpu_speedup = gpu_speedup
        self.specialized_hashes_per_second = specialized_hashes_per_second
        self.base_overhead = base_overhead
        self.segment_overhead = segment_overhead

    def prove_seconds(
        self, stats: Metered, backend: ProverBackend = ProverBackend.CPU_ZKVM
    ) -> float:
        return self.estimate(stats, backend).seconds

    def estimate(
        self, stats: Metered, backend: ProverBackend = ProverBackend.CPU_ZKVM
    ) -> CostEstimate:
        padded = stats.padded_cycles
        segments = stats.segment_count
        sha = stats.sha_compressions
        if backend is ProverBackend.SPECIALIZED_HASH:
            seconds = sha / self.specialized_hashes_per_second + self.base_overhead
        else:
            seconds = (
                padded / self.cpu_cycles_per_second
                + segments * self.segment_overhead
                + self.base_overhead
            )
            if backend is ProverBackend.GPU_ZKVM:
                seconds /= self.gpu_speedup
        total = stats.total_cycles
        return CostEstimate(backend=backend, seconds=seconds, cycles=total, sha_compressions=sha)

    def fanout_seconds(
        self,
        partitions: Iterable[Metered],
        merge: Metered,
        backend: ProverBackend = ProverBackend.CPU_ZKVM,
        *,
        concurrent: bool = True,
    ) -> float:
        """§7 "Proof parallelization": modeled latency of partition
        proofs folded by one merge proof.

        Partitions prove concurrently and the merge starts after the
        slowest, so the critical path is ``max(partitions) + merge``;
        ``concurrent=False`` prices the same proofs made one at a time,
        ``sum(partitions) + merge``.
        """
        times = [self.prove_seconds(p, backend) for p in partitions]
        if not times:
            raise ValueError("need at least one partition")
        slowest_or_all = max(times) if concurrent else sum(times)
        return slowest_or_all + self.prove_seconds(merge, backend)
