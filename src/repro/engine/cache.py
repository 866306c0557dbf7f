"""Content-addressed receipt cache: the receipt codec over :class:`SealedCache`.

Identical (guest image, env commitment, opts digest) always yields a byte-identical receipt, so
receipts are cached under ``receipt-cache/<key hex>`` and survive process restarts.  A persistent
entry is served only after :func:`~repro.engine.jobs.verify_job_receipt` — seal, image id, exit
code, journal digest, input binding — the check a remote worker's result passes.
"""

from __future__ import annotations

from ..hashing import Digest
from ..obs import names as obs_names
from ..serialization import decode, encode
from ..storage.backend import LogStore
from ..storage.cache import SealedCache
from .jobs import JobResult, ProofJob, verify_job_receipt


def _encode_result(result: JobResult) -> bytes:
    # The worker-side metrics snapshot is per-execution telemetry, not proof content.
    return encode(JobResult(receipt=result.receipt, stats=result.stats).to_wire())


class ReceiptCache(SealedCache):
    """Receipts by cache key; every lookup lands one ``repro_engine_cache_total`` series."""

    def __init__(self, store: LogStore | None = None, memory_entries: int = 256) -> None:
        super().__init__(
            "receipt-cache", obs_names.ENGINE_CACHE, _encode_result, store, memory_entries
        )

    def get(self, key: Digest, job: ProofJob, image_id: Digest) -> JobResult | None:
        """The cached result for ``key``, or ``None``.

        ``job`` and its guest's ``image_id`` are what ``key`` was derived from: a persistent
        entry must verify against them before it is promoted into the memory tier.
        """

        def accept(payload: bytes) -> JobResult:
            result = JobResult.from_wire(decode(payload))
            verify_job_receipt(result.receipt, image_id, job.env_commitment)
            return result

        hit = self.lookup(key, accept)
        return None if hit is None else hit.replace_cached(True)

    def put(self, key: Digest, result: JobResult) -> None:
        """Remember ``result`` in both tiers (best-effort persistence)."""
        self.remember(key, result.replace_cached(False))
