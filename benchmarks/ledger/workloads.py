"""The six workloads.

Each is a closed loop: a client issues its next op only after the
previous one returned.  An op has three parts — ``prepare`` makes its
input (untimed), ``op`` is the timed call into ``repro`` ending with
client-side verification, ``check`` compares the output with a
reference and reads off the exact counts (untimed).  ``traced_op``
does the work of ``op`` through the public functions ``op``'s single
call is made of, one span each, and keeps a sample for the probes.

Shapes (records, flows, partitions, chain length) are fixed; only how
many ops fit in the measuring time varies.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.commitments import BulletinBoard
from repro.core.prover_service import ProverService
from repro.core.verifier_client import VerifierClient
from repro.engine import ProvingEngine, ReceiptCache
from repro.net import ProverServer, QueryClient, RouterClient
from repro.qserve import QueryService
from repro.serialization import (encode_commitment, encode_query_response,
                                 encode_receipt)
from repro.storage import MemoryLogStore, SqliteLogStore

import probes
from inputs import (Query, QueryMix, Traffic, answer_matches,
                    append_and_commit, zipf_picker)
from notes import Notes
from spans import Tracer
from spec import REPO_ROOT

SCRATCH = REPO_ROOT / ".ledger_tmp"
MAX_SAMPLES = 6


@dataclass
class Outcome:
    """What ``check`` found for one op."""

    ok: bool
    cycles: int = 0       # total_cycles over every receipt the op returned
    proof_bytes: int = 0  # public bytes a verifier needs; 0 unless asked


class Workload:
    name: str
    clients = 1
    #: Ops per client that every run completes, and over which the
    #: exact counts are averaged — so they do not depend on how many
    #: more ops the machine fitted into the measuring time.
    exact_ops = 8
    smoke_exact_ops = 3

    def __init__(self, seed: int, smoke: bool, notes: Notes) -> None:
        self.seed = seed
        self.smoke = smoke
        self.notes = notes
        self.samples: list[Any] = []
        if smoke:
            self.exact_ops = self.smoke_exact_ops

    def size(self, full: int) -> int:
        """A shape parameter; a tenth of it in a smoke run."""
        return max(full // 10, 8) if self.smoke else full

    def setup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def prepare(self, client: int, index: int) -> Any:
        raise NotImplementedError

    def op(self, client: int, prep: Any) -> Any:
        raise NotImplementedError

    def traced_op(self, client: int, prep: Any, tracer: Tracer) -> Any:
        raise NotImplementedError

    def check(self, client: int, prep: Any, out: Any,
              exact: bool) -> Outcome:
        raise NotImplementedError

    def probe(self, sample: Any) -> None:
        """Layer probes on one sample a traced op kept."""

    def run_probes(self) -> None:
        """Layer probes that run once, after the loop."""

    def keep(self, sample: Any) -> None:
        if len(self.samples) < MAX_SAMPLES:
            self.samples.append(sample)

    def generate(self, count: int, delta: bool = False) -> list[Any]:
        """``count`` records of new flows, or a half-and-half delta."""
        make = self.traffic.delta if delta else self.traffic.fresh
        start = time.perf_counter()
        records = make(count)
        self.notes.add("netflow.generate_ms_per_krecord",
                       (time.perf_counter() - start) * 1e6 / count)
        return records


# -- rounds ------------------------------------------------------------------

def _traced_round(service: ProverService, window: int, tracer: Tracer,
                  notes: Notes) -> tuple[Any, tuple]:
    """``aggregate_window`` as its two public halves; also returns the
    arguments ``probes.round_probes`` takes after ``notes``."""
    state = service.state
    prev_receipt = service.chain.latest_receipt if len(service.chain) \
        else None
    memo = probes.memo_counters()
    with tracer.span("storage.gather"):
        inputs = service.gather_window(window)
    with tracer.span("core.round"):
        result = service.prove_round([window], inputs)
    probes.memo_delta(notes, memo)
    return result, (state, inputs, prev_receipt, result.receipt,
                    service.policy)


@dataclass
class OneWindow:
    """A one-window store with its own service, as ``prepare`` makes it."""

    service: ProverService
    bulletin: BulletinBoard


def one_window(workload: Workload, records: int) -> OneWindow:
    """A distinct window of new flows, committed, nothing proven."""
    store, bulletin = MemoryLogStore(), BulletinBoard()
    for commitment in append_and_commit(
            store, 0, workload.generate(records), workload.notes):
        bulletin.publish(commitment)
    return OneWindow(ProverService(store, bulletin), bulletin)


class RoundBulk(Workload):
    name = "round_bulk"

    def setup(self) -> None:
        self.traffic = Traffic(self.seed)
        self.records = self.size(1_000)

    def prepare(self, client: int, index: int) -> OneWindow:
        return one_window(self, self.records)

    def op(self, client: int, prep: OneWindow) -> Any:
        result = prep.service.aggregate_window(0)
        VerifierClient(prep.bulletin).verify_chain(
            prep.service.chain.receipts())
        return result.receipt

    def traced_op(self, client: int, prep: OneWindow,
                  tracer: Tracer) -> Any:
        result, sample = _traced_round(prep.service, 0, tracer, self.notes)
        with tracer.span("core.verify_chain"):
            VerifierClient(prep.bulletin).verify_chain(
                prep.service.chain.receipts())
        self.keep(sample)
        return result.receipt

    def check(self, client: int, prep: OneWindow, receipt: Any,
              exact: bool) -> Outcome:
        return Outcome(True, receipt.claim.total_cycles,
                       len(encode_receipt(receipt)) if exact else 0)

    def probe(self, sample: tuple) -> None:
        probes.round_probes(self.notes, *sample)


class RoundDelta(RoundBulk):
    name = "round_delta"

    def setup(self) -> None:
        self.traffic = Traffic(self.seed)
        self.delta = self.size(64)
        self.store, self.bulletin = MemoryLogStore(), BulletinBoard()
        self.service = ProverService(self.store, self.bulletin)
        self.verifier = VerifierClient(self.bulletin)
        self.window = 0
        self._commit(self.traffic.fresh_flows(self.size(5_000)))
        self.verified = self.verifier.verify_aggregation(
            self.service.aggregate_window(0).receipt)

    def _commit(self, records: Sequence[Any]) -> None:
        for commitment in append_and_commit(self.store, self.window,
                                            records, self.notes):
            self.bulletin.publish(commitment)

    def prepare(self, client: int, index: int) -> int:
        self.window += 1
        self._commit(self.generate(self.delta, delta=True))
        return self.window

    def op(self, client: int, window: int) -> Any:
        receipt = self.service.aggregate_window(window).receipt
        self.verified = self.verifier.verify_aggregation(receipt,
                                                         self.verified)
        return receipt

    def traced_op(self, client: int, window: int, tracer: Tracer) -> Any:
        result, sample = _traced_round(self.service, window, tracer,
                                       self.notes)
        with tracer.span("core.verify_round"):
            self.verified = self.verifier.verify_aggregation(
                result.receipt, self.verified)
        self.keep(sample)
        return result.receipt


class RoundFanout(Workload):
    name = "round_fanout"
    PARTITIONS = 2
    COMPARED_OPS = 2  # ops whose content is checked against Aggregator

    def setup(self) -> None:
        self.traffic = Traffic(self.seed)
        self.records = self.size(2_000)
        self.compared = 0
        self.engine = ProvingEngine(backend="process", max_workers=2,
                                    cache=ReceiptCache())

    def close(self) -> None:
        self.engine.close()
        # The pool's forkserver and resource tracker outlive it; the
        # run must leave no process behind.
        from multiprocessing import forkserver, resource_tracker
        for helper in (forkserver._forkserver,
                       resource_tracker._resource_tracker):
            stop = getattr(helper, "_stop", None)
            if stop is not None:
                stop()

    def prepare(self, client: int, index: int) -> OneWindow:
        return one_window(self, self.records)

    @staticmethod
    def _verify(receipt: Any, bulletin: BulletinBoard) -> None:
        """What ``VerifierClient.verify_aggregation`` does for a serial
        round, for the merge guest's receipt (which it does not list)."""
        from repro.core.guest_programs import merge_guest
        from repro.errors import VerificationError
        from repro.zkvm import verify_receipt
        verify_receipt(receipt, merge_guest.image_id)
        for window in next(receipt.journal.values())["windows"]:
            if bulletin.get(window["r"], window["w"]).digest != window["c"]:
                raise VerificationError("merged round consumed a "
                                        "commitment that was not published")

    def op(self, client: int, prep: OneWindow) -> Any:
        result = self.engine.prove_round(prep.service.gather_window(0),
                                         self.PARTITIONS)
        self._verify(result.receipt, prep.bulletin)
        return result

    def traced_op(self, client: int, prep: OneWindow,
                  tracer: Tracer) -> Any:
        jobs: list[Any] = []
        pool = self.engine.pool
        submit = pool.submit

        def recording_submit(job: Any) -> Any:
            jobs.append(job)
            return submit(job)

        with tracer.span("storage.gather"):
            inputs = prep.service.gather_window(0)
        pool.submit = recording_submit
        try:
            with tracer.span("core.round") as round_span:
                result = self.engine.prove_round(inputs, self.PARTITIONS)
        finally:
            del pool.submit
        with tracer.span("zkvm.verify"):
            self._verify(result.receipt, prep.bulletin)
        probes.zkvm_counts(self.notes, self._stats(result))
        self.keep((jobs, round_span.seconds, result.receipt))
        return result

    @staticmethod
    def _stats(result: Any) -> list[Any]:
        return [info.stats for info in
                (*result.partition_infos, result.merge_info)]

    def check(self, client: int, prep: OneWindow, result: Any,
              exact: bool) -> Outcome:
        ok = True
        if self.compared < self.COMPARED_OPS:
            self.compared += 1
            ok = self._same_content(prep.service.gather_window(0), result)
        return Outcome(ok,
                       sum(s.total_cycles for s in self._stats(result)),
                       len(encode_receipt(result.receipt)) if exact else 0)

    def _same_content(self, inputs: list[Any], result: Any) -> bool:
        """The partitions' public partial aggregates, combined, are the
        per-flow entries a serial ``Aggregator`` round produces.  (The
        merge guest commits its own journal layout and leaf order, so
        the two journals are not comparable byte for byte.)"""
        from repro.core.aggregation import Aggregator
        from repro.core.clog import CLogEntry, CLogState
        policy = self.engine.policy
        serial = Aggregator(policy).aggregate(CLogState(), inputs, None)
        expected = {entry.key.pack(): entry for entry in
                    serial.new_state.entries_in_slot_order()}
        combined: dict[bytes, Any] = {}
        for info in result.partition_infos:
            values = info.receipt.journal.values()
            next(values)  # partition header
            for item in values:
                partial = CLogEntry.from_payload(item["p"])
                seen = combined.get(item["k"])
                combined[item["k"]] = partial if seen is None \
                    else seen.combine(partial, policy)
        return result.size == len(expected) and combined == expected

    def probe(self, sample: tuple) -> None:
        jobs, round_seconds, receipt = sample
        probes.fanout_jobs(self.notes, jobs, round_seconds)
        probes.receipt_codec(self.notes, receipt)

    def run_probes(self) -> None:
        snapshot = self.engine.snapshot()
        cache = snapshot["cache"]
        self.notes.add("engine.cache_hit_ratio", cache["hit_rate"])
        self.notes.add("engine.jobs_failed", snapshot["jobs_failed"])


# -- queries over the wire ---------------------------------------------------

class Served(Workload):
    """A standing service behind an in-process ``ProverServer``: one
    big round, then small delta rounds — an 8-receipt chain."""

    clients = 2
    FIRST_WINDOW = 4_000
    DELTA_ROUNDS = 7
    DELTA = 64
    service_options: dict[str, Any] = {}

    def make_store(self) -> Any:
        return MemoryLogStore()

    def setup(self) -> None:
        self.traffic = Traffic(self.seed)
        self.store, self.bulletin = self.make_store(), BulletinBoard()
        self.service = ProverService(self.store, self.bulletin,
                                     **self.service_options)
        self.window = -1
        self._round(self.traffic.fresh(self.size(self.FIRST_WINDOW)))
        for _ in range(self.DELTA_ROUNDS):
            self._round(self.traffic.delta(self.size(self.DELTA)))
        self.server = ProverServer(
            self.service,
            qserve=QueryService(self.service, max_inflight=64))
        self.server.start_background()
        self.query_clients = [QueryClient(self.server.host, self.server.port)
                              for _ in range(self.clients)]
        self._rows: tuple[Any, list[dict]] = (None, [])
        self._public: tuple[int, tuple[int, int]] = (-1, (0, 0))

    def _round(self, records: Sequence[Any]) -> None:
        self.window += 1
        for commitment in append_and_commit(self.store, self.window,
                                            records):
            self.bulletin.publish(commitment)
        self.service.aggregate_window(self.window)

    def close(self) -> None:
        for client in self.query_clients:
            client.close()
        self.server.stop_background()
        self.service.close()
        self.store.close()

    def traced_query(self, client: int, sql: str,
                     tracer: Tracer) -> tuple[Any, float]:
        """``QueryClient.verified_query`` as the calls it is made of;
        returns the response and the query round trip's seconds."""
        stub = self.query_clients[client]
        with tracer.span("net.query_rtt") as rtt:
            response = stub.query(sql)
        with tracer.span("net.fetch_bulletin"):
            verifier = VerifierClient(stub.fetch_bulletin())
        with tracer.span("net.fetch_chain"):
            receipts = stub.fetch_receipt_chain()
        with tracer.span("core.verify_chain"):
            chain = verifier.verify_chain(receipts)
        with tracer.span("core.verify_query"):
            verifier.verify_query(response, chain[response.round])
        return response, rtt.seconds

    def rows(self) -> list[dict]:
        """The committed CLog as the reference evaluator's rows."""
        state = self.service.state
        if self._rows[0] != state.root:
            self._rows = (state.root, [
                entry.query_view()
                for entry in state.entries_in_slot_order()])
        return self._rows[1]

    def public_bytes(self) -> tuple[int, int]:
        """Encoded (bulletin, receipt chain) sizes: what
        ``verified_query`` fetches besides the response."""
        rounds = len(self.service.chain)
        if self._public[0] != rounds:
            self._public = (rounds, (
                sum(len(encode_commitment(c)) for c in self.bulletin),
                sum(len(encode_receipt(r))
                    for r in self.service.chain.receipts())))
        return self._public[1]

    def outcome(self, pairs: Sequence[tuple[Query, Any]], expected: Any,
                exact: bool, cycles: int = 0) -> Outcome:
        ok = all(answer_matches(response, expected(query))
                 for query, response in pairs)
        cycles += sum(r.receipt.claim.total_cycles for _, r in pairs)
        size = sum(len(encode_query_response(r)) + sum(self.public_bytes())
                   for _, r in pairs) if exact else 0
        return Outcome(ok, cycles, size)

    def query_probe(self, response: Any, rtt_seconds: float,
                    cold: bool) -> None:
        probes.query_probes(self.notes, response)
        self.notes.add("net.chain_bytes", self.public_bytes()[1])
        if cold:
            probes.query_prove(self.notes, response.sql, self.service.state,
                               self.service.chain.latest_receipt,
                               rtt_seconds)
        else:
            probes.cached_wire_overhead(self.notes, self.service,
                                        response.sql, rtt_seconds)

    def serving_probes(self, hit_sqls: Sequence[str]) -> None:
        probes.health_rtt(self.notes, self.query_clients[0])
        probes.qserve_overhead(self.notes, self.service, hit_sqls)
        self.notes.add("qserve.cache_hit_ratio",
                       self.service.query_cache.stats()["hit_rate"])
        self.notes.add("qserve.cache_evictions",
                       self.service.query_cache.stats()["evictions"])


class QueryCold(Served):
    name = "query_cold"

    def setup(self) -> None:
        super().setup()
        self._mix = QueryMix(self.seed)
        self._queries: list[Query] = []
        self._lock = threading.Lock()

    def prepare(self, client: int, index: int) -> Query:
        """Client ``c`` takes queries c, c + clients, … of one seeded
        stream: every SQL string is distinct, whoever runs faster."""
        with self._lock:
            if index < 0:  # the warm-up op: its own query
                return self._mix.next()
            position = index * self.clients + client
            while len(self._queries) <= position:
                self._queries.append(self._mix.next())
            return self._queries[position]

    def op(self, client: int, query: Query) -> Any:
        return self.query_clients[client].verified_query(query.sql)[0]

    def traced_op(self, client: int, query: Query, tracer: Tracer) -> Any:
        response, rtt = self.traced_query(client, query.sql, tracer)
        self.keep((response, rtt))
        return response

    def check(self, client: int, query: Query, response: Any,
              exact: bool) -> Outcome:
        rows = self.rows()
        return self.outcome([(query, response)],
                            lambda q: q.reference(rows), exact)

    def probe(self, sample: tuple) -> None:
        self.query_probe(*sample, cold=True)

    def run_probes(self) -> None:
        self.serving_probes([q.sql for q in self._queries[:16]])


class QueryWarm(QueryCold):
    name = "query_warm"
    exact_ops = 400
    smoke_exact_ops = 40
    STRINGS = 32

    def setup(self) -> None:
        Served.setup(self)
        mix = QueryMix(self.seed)
        self._queries = [mix.next()
                         for _ in range(self.size(self.STRINGS))]
        rows = self.rows()
        self._expected = {}
        for query in self._queries:
            self.service.answer_query(query.sql)
            self._expected[query.sql] = query.reference(rows)
        self._pick = [zipf_picker(len(self._queries), self.seed * 31 + c)
                      for c in range(self.clients)]

    def prepare(self, client: int, index: int) -> Query:
        return self._queries[self._pick[client]()]

    def check(self, client: int, query: Query, response: Any,
              exact: bool) -> Outcome:
        return self.outcome([(query, response)],
                            lambda q: self._expected[q.sql], exact)

    def probe(self, sample: tuple) -> None:
        self.query_probe(*sample, cold=False)


class Pipeline(Served):
    """Writes beside reads on the production store: window committed
    -> round proven -> answers verified by a remote client."""

    name = "pipeline"
    clients = 1
    exact_ops = 4
    smoke_exact_ops = 2
    WINDOW = 256
    REPLAYS = 4
    service_options = {"auto_checkpoint": True}
    CANONICAL = (
        Query((("COUNT", None), ("SUM", "packets"))),
        Query((("AVG", "rtt_avg_us"),), ("protocol", "=", 6), "src_net16"),
    )

    def make_store(self) -> SqliteLogStore:
        SCRATCH.mkdir(exist_ok=True)
        self._dir = tempfile.mkdtemp(dir=SCRATCH)
        return SqliteLogStore(os.path.join(self._dir, "logs.db"))

    def setup(self) -> None:
        super().setup()
        self.router = RouterClient(self.server.host, self.server.port)

    def close(self) -> None:
        self.router.close()
        super().close()
        shutil.rmtree(self._dir)
        if not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    def prepare(self, client: int, index: int) -> tuple[int, list[Any]]:
        self.window += 1
        return self.window, self.generate(self.size(self.WINDOW),
                                          delta=True)

    def _queries(self) -> list[Query]:
        """Each canonical query cold (the new root invalidated the
        cache), then ``REPLAYS`` times warm."""
        return list(self.CANONICAL) * (1 + self.REPLAYS)

    def op(self, client: int, prep: tuple) -> list[Any]:
        window, records = prep
        self.router.publish_all(
            append_and_commit(self.store, window, records))
        self.router.run_round([window])
        return [self.query_clients[0].verified_query(query.sql)[0]
                for query in self._queries()]

    def traced_op(self, client: int, prep: tuple,
                  tracer: Tracer) -> list[Any]:
        window, records = prep
        before = (self.service.state, self.service.chain.latest_receipt)
        with tracer.span("commit"):
            commitments = append_and_commit(self.store, window, records,
                                            self.notes)
        with tracer.span("net.publish"):
            self.router.publish_all(commitments)
        with tracer.span("net.run_round_rtt"):
            self.router.run_round([window])
        after = (self.service.state, self.service.chain.latest_receipt)
        answers = [self.traced_query(0, query.sql, tracer)
                   for query in self._queries()]
        self.keep((window, before, after, answers[0]))
        return [response for response, _ in answers]

    def check(self, client: int, prep: tuple, responses: list[Any],
              exact: bool) -> Outcome:
        rows = self.rows()
        return self.outcome(
            list(zip(self._queries(), responses)),
            lambda q: q.reference(rows), exact,
            cycles=self.service.chain.latest_receipt.claim.total_cycles)

    def probe(self, sample: tuple) -> None:
        window, (state, prev_receipt), (new_state, receipt), cold = sample
        probes.round_probes(
            self.notes, state, self.service.gather_window(window),
            prev_receipt, receipt, self.service.policy)
        response, rtt_seconds = cold
        probes.query_probes(self.notes, response)
        probes.query_prove(self.notes, response.sql, new_state, receipt,
                           rtt_seconds)
        probes.checkpoint(self.notes, self.service)
        self.notes.add("net.chain_bytes", self.public_bytes()[1])

    def run_probes(self) -> None:
        self.serving_probes([q.sql for q in self.CANONICAL] * 8)


WORKLOADS = {cls.name: cls for cls in (RoundBulk, RoundDelta, RoundFanout,
                                       QueryCold, QueryWarm, Pipeline)}
