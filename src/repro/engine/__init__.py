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
  barrier-free work-queue scheduler feeding merges as partitions land.

See ``docs/PERFORMANCE.md`` for the architecture and the benchmark /
CI-regression workflow built on top of it.
"""

from .cache import ReceiptCache
from .jobs import JobResult, ProofJob, execute_job, run_job_wire
from .pool import (
    BACKENDS,
    ENV_BACKEND,
    ENV_NODES,
    ENV_WORKERS,
    PooledProver,
    ProverPool,
    env_nodes,
    resolve_pool_config,
)
from .scheduler import (
    ParallelAggregationResult,
    ProvingEngine,
    RoundOutcome,
    partition_windows,
)

__all__ = [
    "BACKENDS",
    "ENV_BACKEND",
    "ENV_NODES",
    "ENV_WORKERS",
    "JobResult",
    "ParallelAggregationResult",
    "PooledProver",
    "ProofJob",
    "ProverPool",
    "ProvingEngine",
    "ReceiptCache",
    "RoundOutcome",
    "env_nodes",
    "execute_job",
    "partition_windows",
    "resolve_pool_config",
    "run_job_wire",
]
