"""repro.engine: real multi-process proving with content-addressed reuse.

The paper's bottleneck is proof generation; §7's answer is partitioned
parallel proving.  This package makes that real rather than modeled:

* :mod:`~repro.engine.jobs` — picklable :class:`ProofJob` descriptions
  resolved through the guest registry, plus the worker entry point;
* :mod:`~repro.engine.pool` — :class:`ProverPool`, one submit API over
  serial / thread / process backends (``ProcessPoolExecutor`` for true
  multi-core wall-clock speedup);
* :mod:`~repro.engine.cache` — :class:`ReceiptCache`, a two-tier
  content-addressed receipt store keyed by
  ``(guest image, env commitment, opts digest)``;
* :mod:`~repro.engine.scheduler` — :class:`ProvingEngine`, the
  barrier-free work-queue scheduler: one partition-and-merge round per
  ``prove_round`` call, its merge submitted as the partitions land.

See ``docs/PERFORMANCE.md`` for the architecture and the benchmark /
CI-regression workflow built on top of it.
"""

from .cache import ReceiptCache
from .jobs import JobResult, ProofJob, execute_job, run_job_wire
from .pool import BACKENDS, PooledProver, ProverPool
from .scheduler import (
    ParallelAggregationResult,
    ProvingEngine,
    partition_windows,
)

__all__ = [
    "BACKENDS",
    "JobResult",
    "ParallelAggregationResult",
    "PooledProver",
    "ProofJob",
    "ProverPool",
    "ProvingEngine",
    "ReceiptCache",
    "execute_job",
    "partition_windows",
    "run_job_wire",
]
