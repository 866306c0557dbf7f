"""Multi-tenant query serving: admission, batching, result caching.

The in-process query path (``ProverService.answer_query``) and the wire
server treat every query as an independent, unmetered unit of work.
This package adds the serving layer a multi-tenant deployment needs:

* :mod:`.admission` — per-tenant token-bucket rate limits, a bounded
  in-flight count, and round-robin fairness across tenant FIFOs;
* :mod:`.cache` — the tiered (memory + checkpoint-KV) result cache,
  keyed by (sql, round, committed root);
* :mod:`.service` — :class:`QueryService`, the asyncio front-end that
  ties them together for :class:`repro.net.ProverServer`, and — on an
  engine-backed service — proves compatible queries through one shared
  partition fan-out (:mod:`repro.core.query_proof`) while each still
  gets its own standalone receipt.
"""

from .admission import (
    AdmissionController,
    FairQueue,
    TokenBucket,
)
from .cache import QueryResultCache, result_cache_key
from .service import (
    DEFAULT_BATCH_PARTITIONS,
    QueryService,
)

__all__ = [
    "AdmissionController",
    "DEFAULT_BATCH_PARTITIONS",
    "FairQueue",
    "QueryResultCache",
    "QueryService",
    "TokenBucket",
    "result_cache_key",
]
