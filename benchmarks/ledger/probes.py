"""Layer probes: one call into a public function of one ``repro``
module, on the inputs an op used, timed from outside.

Probes run after the timed loop, single-threaded, on samples the
traced ops kept.  ``repro`` is imported inside each probe so a moved
module empties that probe's metrics and nothing else.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from notes import Notes, probe


class TimedProver:
    """Stands where ``Aggregator`` and ``QueryProver`` accept
    ``prover=``: proves exactly like the default ``Prover`` and keeps
    the wall time of the whole call and of guest execution alone.

    ``ProveStats.wall_seconds`` covers only the seal (well under a
    millisecond here); guest execution — the simulated zkVM actually
    interpreting the guest — is the part that costs, so it is timed
    through ``Prover``'s public ``executor=`` seam.
    """

    def __init__(self) -> None:
        from repro.zkvm import Executor, Prover, ProverOpts
        self._executor = Executor()
        self._prover = Prover(ProverOpts.groth16(), executor=self)
        self.prove_s = 0.0
        self.execute_s = 0.0
        self.input_bytes = 0
        self.stats: list[Any] = []

    def execute(self, program: Any, env_input: Any) -> Any:
        start = time.perf_counter()
        session = self._executor.execute(program, env_input)
        self.execute_s += time.perf_counter() - start
        return session

    def prove(self, program: Any, env_input: Any) -> Any:
        start = time.perf_counter()
        info = self._prover.prove(program, env_input)
        self.prove_s += time.perf_counter() - start
        self.input_bytes += env_input.total_bytes
        self.stats.append(info.stats)
        return info

    def note(self, notes: Notes) -> None:
        notes.add("zkvm.prove_ms", self.prove_s * 1e3)
        notes.add("zkvm.execute_ms", self.execute_s * 1e3)
        notes.add("zkvm.seal_ms",
                  sum(s.wall_seconds for s in self.stats) * 1e3)
        notes.add("zkvm.input_bytes", self.input_bytes)


ZKVM_TIMES = ("zkvm.prove_ms", "zkvm.execute_ms", "zkvm.seal_ms",
              "zkvm.input_bytes")
ZKVM_COUNTS = ("zkvm.cycles_total", "zkvm.cycles_padded", "zkvm.segments",
               "zkvm.sha_compressions", "zkvm.cycles_sha_share")


@probe(*ZKVM_COUNTS)
def zkvm_counts(notes: Notes, stats: Sequence[Any]) -> None:
    """Metered work of one op, from the ``ProveStats`` it returned."""
    from repro.zkvm.cycles import SHA256_COMPRESS_CYCLES
    total = sum(s.total_cycles for s in stats)
    compressions = sum(s.sha_compressions for s in stats)
    notes.add("zkvm.cycles_total", total)
    notes.add("zkvm.cycles_padded", sum(s.padded_cycles for s in stats))
    notes.add("zkvm.segments", sum(s.segment_count for s in stats))
    notes.add("zkvm.sha_compressions", compressions)
    notes.add("zkvm.cycles_sha_share",
              compressions * SHA256_COMPRESS_CYCLES / total)


def memo_counters() -> tuple[int, int, int]:
    """(hits, lookups, entries) of the process-wide Merkle memo."""
    from repro.merkle.memo import memo_stats
    stats = memo_stats().values()
    hits = sum(s["hits"] for s in stats)
    return (hits, hits + sum(s["misses"] for s in stats),
            sum(s["size"] for s in stats))


@probe("merkle.memo_hit_ratio", "merkle.memo_entries")
def memo_delta(notes: Notes, before: tuple[int, int, int]) -> None:
    hits, lookups, entries = memo_counters()
    if lookups > before[1]:
        notes.add("merkle.memo_hit_ratio",
                  (hits - before[0]) / (lookups - before[1]))
    notes.add("merkle.memo_entries", entries)


# -- rounds ------------------------------------------------------------------

def _decode_records(inputs: Sequence[Any]) -> list[Any]:
    """Window blobs -> records, in the order the guest pairs them with
    witness ops (``Aggregator._aggregate_inner``)."""
    from repro.netflow.records import NetFlowRecord
    from repro.serialization import decode
    ordered = sorted(inputs, key=lambda w: (w.window_index, w.router_id))
    return [NetFlowRecord.from_wire(decode(blob))
            for window in ordered for blob in window.blobs]


@probe("serialization.decode_records_ms")
def decode_records(notes: Notes, inputs: Sequence[Any]) -> None:
    with notes.ms("serialization.decode_records_ms"):
        _decode_records(inputs)


@probe("core.clog_clone_ms")
def clog_clone(notes: Notes, state: Any) -> None:
    with notes.ms("core.clog_clone_ms"):
        state.clone()


@probe("core.witness_ms", "core.witness_ops", "core.witness_sibling_bytes")
def witness(notes: Notes, state: Any, inputs: Sequence[Any],
            policy: Any) -> None:
    from repro.core.witness import build_witness
    from repro.hashing import DIGEST_SIZE
    records = _decode_records(inputs)
    with notes.ms("core.witness_ms"):
        built = build_witness(state, records, policy)
    notes.add("core.witness_ops", built.op_count)
    notes.add("core.witness_sibling_bytes", DIGEST_SIZE * sum(
        len(op.get("siblings", ())) for op in built.ops))


@probe(*ZKVM_TIMES)
def zkvm_round(notes: Notes, state: Any, inputs: Sequence[Any],
               prev_receipt: Any, policy: Any) -> None:
    """The op's round again, through ``Aggregator``'s ``prover=``."""
    from repro.core.aggregation import Aggregator
    prover = TimedProver()
    Aggregator(policy, prover=prover).aggregate(state, list(inputs),
                                                prev_receipt)
    prover.note(notes)
    zkvm_counts(notes, prover.stats)


@probe("serialization.receipt_encode_ms", "serialization.receipt_decode_ms",
       "serialization.receipt_bytes")
def receipt_codec(notes: Notes, receipt: Any) -> None:
    from repro.serialization import decode_receipt, encode_receipt
    with notes.ms("serialization.receipt_encode_ms"):
        blob = encode_receipt(receipt)
    with notes.ms("serialization.receipt_decode_ms"):
        decode_receipt(blob)
    notes.add("serialization.receipt_bytes", len(blob))


@probe("zkvm.verify_ms")
def zkvm_verify(notes: Notes, receipt: Any) -> None:
    from repro.zkvm import Verifier
    verifier = Verifier()
    with notes.ms("zkvm.verify_ms"):
        verifier.verify(receipt, receipt.claim.image_id)


def round_probes(notes: Notes, state: Any, inputs: Sequence[Any],
                 prev_receipt: Any, receipt: Any, policy: Any) -> None:
    """Every probe of one update-path round: ``state`` is the CLog the
    op started from, ``receipt`` the round receipt it produced."""
    decode_records(notes, inputs)
    clog_clone(notes, state)
    witness(notes, state, inputs, policy)
    zkvm_round(notes, state, inputs, prev_receipt, policy)
    receipt_codec(notes, receipt)
    zkvm_verify(notes, receipt)


# -- fan-out -----------------------------------------------------------------

@probe("engine.partition_prove_ms_max", "engine.partition_prove_ms_sum",
       "engine.merge_prove_ms", "engine.dispatch_ms", "engine.partition_skew",
       "engine.job_bytes")
def fanout_jobs(notes: Notes, jobs: Sequence[Any],
                round_seconds: float) -> None:
    """Prove each job the op submitted again, in this process, to
    learn what the proofs cost without the pool around them."""
    from repro.core.guest_programs import merge_guest
    from repro.engine.jobs import encode_job, execute_job
    partitions: list[float] = []
    merges: list[float] = []
    for job in jobs:
        start = time.perf_counter()
        execute_job(job)
        seconds = time.perf_counter() - start
        (merges if job.guest_id == merge_guest.name
         else partitions).append(seconds)
    slowest, merge = max(partitions), sum(merges)
    notes.add("engine.partition_prove_ms_max", slowest * 1e3)
    notes.add("engine.partition_prove_ms_sum", sum(partitions) * 1e3)
    notes.add("engine.merge_prove_ms", merge * 1e3)
    # The slowest partition and the merge are the steps that block the
    # round; what is left of the op is the engine's own.
    notes.add("engine.dispatch_ms", (round_seconds - slowest - merge) * 1e3)
    notes.add("engine.partition_skew",
              slowest * len(partitions) / sum(partitions))
    notes.add("engine.job_bytes",
              sum(len(encode_job(job, capture_obs=False)) for job in jobs))


# -- queries -----------------------------------------------------------------

@probe("query.parse_ms")
def query_parse(notes: Notes, sql: str) -> None:
    from repro.query import parse_query
    with notes.ms("query.parse_ms"):
        parse_query(sql)


@probe("core.query_prove_ms", "core.query_host_ms", "net.wire_overhead_ms",
       *ZKVM_TIMES)
def query_prove(notes: Notes, sql: str, state: Any, agg_receipt: Any,
                rtt_seconds: float) -> None:
    """A cold proof of ``sql`` in this process: what the wire, the
    queue and the cache added to it is the rest of the round trip."""
    from repro.core.query_proof import QueryProver
    prover = TimedProver()
    start = time.perf_counter()
    QueryProver(prover=prover).prove_query(sql, state, agg_receipt)
    seconds = time.perf_counter() - start
    notes.add("core.query_prove_ms", seconds * 1e3)
    notes.add("core.query_host_ms", (seconds - prover.prove_s) * 1e3)
    notes.add("net.wire_overhead_ms", (rtt_seconds - seconds) * 1e3)
    prover.note(notes)
    zkvm_counts(notes, prover.stats)


@probe("net.wire_overhead_ms")
def cached_wire_overhead(notes: Notes, service: Any, sql: str,
                         rtt_seconds: float) -> None:
    """Same, when the answer is a cache hit."""
    start = time.perf_counter()
    service.answer_query(sql)
    notes.add("net.wire_overhead_ms",
              (rtt_seconds - (time.perf_counter() - start)) * 1e3)


@probe("serialization.response_encode_ms", "serialization.response_bytes",
       "net.frame_codec_ms")
def response_codec(notes: Notes, response: Any) -> None:
    from repro.net import decode_frame, encode_frame
    from repro.serialization import encode_query_response
    with notes.ms("serialization.response_encode_ms"):
        payload = encode_query_response(response)
    notes.add("serialization.response_bytes", len(payload))
    with notes.ms("net.frame_codec_ms"):
        decode_frame(encode_frame(payload))


def query_probes(notes: Notes, response: Any) -> None:
    query_parse(notes, response.sql)
    response_codec(notes, response)
    zkvm_verify(notes, response.receipt)
    notes.add("query.scanned_per_op", response.scanned)
    notes.add("query.matched_per_op", response.matched)


@probe("net.health_rtt_ms")
def health_rtt(notes: Notes, client: Any, count: int = 50) -> None:
    """The cheapest request there is: framing, envelope and event
    loop, with nothing behind them."""
    for _ in range(count):
        with notes.ms("net.health_rtt_ms"):
            client.health()


@probe("qserve.overhead_ms")
def qserve_overhead(notes: Notes, service: Any, sqls: Sequence[str]) -> None:
    """``QueryService.submit`` minus ``answer_query``, both on cache
    hits: admission, fair-queue bookkeeping and the event-loop hop.
    Uses its own ``QueryService`` on its own loop, so the serving
    one's counters are left alone."""
    import asyncio
    from repro.qserve import QueryService

    async def submit_all() -> float:
        qserve = QueryService(service, max_inflight=64)
        await qserve.start()
        try:
            start = time.perf_counter()
            for sql in sqls:
                await qserve.submit(sql)
            return time.perf_counter() - start
        finally:
            await qserve.stop()

    submitted = asyncio.run(submit_all())
    start = time.perf_counter()
    for sql in sqls:
        service.answer_query(sql)
    direct = time.perf_counter() - start
    notes.add("qserve.overhead_ms", (submitted - direct) * 1e3 / len(sqls))


@probe("storage.checkpoint_ms", "storage.checkpoint_bytes")
def checkpoint(notes: Notes, service: Any) -> None:
    name = "ledger-probe"
    with notes.ms("storage.checkpoint_ms"):
        service.checkpoint(name)
    notes.add("storage.checkpoint_bytes",
              len(service.store.get_checkpoint(name)))
    service.store.delete_checkpoint(name)
