"""The load generator: sets a workload up, drives its clients for the
measuring time, and turns what it saw into metrics.

One process, at most two client threads (the box has two cores).
With tracing on, every second op of a client runs as ``traced_op``
under spans; the ops in between run untraced, so the overhead of
tracing is a ratio of two figures taken in the same seconds.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Any

from notes import Notes
from spans import OP, Tracer
from spec import Spec
from workloads import WORKLOADS, Workload

#: Set-up runs twice, and a third time if all three stay within the
#: budget (a 7-second set-up is not tripled); the fastest is reported,
#: because what the box's other tenants do to a set-up only adds.
MIN_SETUPS, MAX_SETUPS = 2, 3
SETUP_BUDGET_S = 9.0
#: Share of a traced run's measuring time spent in the op loop; the
#: probes get the rest.
TRACED_LOOP_SHARE = 0.6
MAX_FAILURES = 50
#: The box is shared: other tenants slow an op by up to half for
#: seconds at a time, never speed it up.  Across ten runs of one
#: workload the median op latency spreads 5-19 % (distance between
#: quartiles), the 10th percentile 1-3 %, so the bounded latency is the
#: 10th percentile and the bounded rate is over each client's fastest
#: quarter of ops.  The median, the tail and the rate over all ops are
#: reported per layer, unbounded.
QUIET_SHARE = 0.25
#: ``prepare``'s op index for the warm-up op that ends set-up.
WARM_UP = -1
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


@dataclass
class OpRecord:
    client: int
    index: int
    traced: bool
    seconds: float
    cycles: int
    proof_bytes: int
    error: str | None  # None: completed, verified, matched the reference

    @property
    def ok(self) -> bool:
        return self.error is None


def calibrate() -> float:
    """Milliseconds for 1 MiB of chained SHA-256: a noisy neighbour
    shows here before it shows anywhere else."""
    block = b"\x00" * 1024
    times = []
    for _ in range(5):
        digest = b""
        start = time.perf_counter()
        for _ in range(1024):
            digest = hashlib.sha256(block + digest).digest()
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def _drive(workload: Workload, client: int, deadline: float,
           tracer: Tracer | None, log: list[OpRecord],
           start_line: threading.Barrier, rss_at_prefix: list[int]) -> None:
    """One closed-loop client."""
    start_line.wait()
    index = failures = 0
    while (time.perf_counter() < deadline or index < workload.exact_ops) \
            and failures < MAX_FAILURES:
        traced = tracer is not None and index % 2 == 1
        outcome = error = None
        start = end = time.perf_counter()
        try:
            prep = workload.prepare(client, index)
            start = time.perf_counter()
            if traced:
                with tracer.op(f"{client}:{index}"):
                    out = workload.traced_op(client, prep, tracer)
            else:
                out = workload.op(client, prep)
            end = time.perf_counter()
            outcome = workload.check(client, prep, out,
                                     exact=index < workload.exact_ops)
            if not outcome.ok:
                error = "output differs from the reference"
        except Exception as exc:  # boundary: a failed op is a data point
            end = max(end, time.perf_counter())
            error = repr(exc)
        failures += error is not None
        log.append(OpRecord(client, index, traced, end - start,
                            outcome.cycles if outcome else 0,
                            outcome.proof_bytes if outcome else 0, error))
        index += 1
        if index == workload.exact_ops:
            # Memory grows with ops done (memo, chain, state), and a
            # faster box does more of them: read the high-water mark
            # at a fixed amount of work.
            rss_at_prefix.append(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _set_up(name: str, seed: int, smoke: bool,
            declared: list[str]) -> tuple[Workload, list[float]]:
    """Set the workload up — standing state, servers and pools, one
    warm-up op — repeatedly; the last instance is the one measured."""
    times: list[float] = []
    while True:
        start = time.perf_counter()
        workload = WORKLOADS[name](seed, smoke, Notes(declared))
        workload.setup()
        prep = workload.prepare(0, WARM_UP)
        workload.check(0, prep, workload.op(0, prep), exact=False)
        times.append(time.perf_counter() - start)
        if len(times) == MAX_SETUPS or (
                len(times) >= MIN_SETUPS
                and sum(times) + max(times) > SETUP_BUDGET_S):
            return workload, times
        workload.close()


def _p10(ordered: list[float]) -> float:
    return ordered[len(ordered) // 10]


def _rate(latencies: list[float], share: float) -> float:
    """Ops a second of one closed-loop client (no think time: one over
    its mean latency), over the fastest ``share`` of its ops."""
    kept = latencies[:max(int(len(latencies) * share), 1)]
    return len(kept) / sum(kept)


def _tail(ordered: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it."""
    for percentile in TAIL_PERCENTILES:
        beyond = int(len(ordered) * (1 - percentile / 100))
        if beyond >= 10:
            return percentile, ordered[len(ordered) - beyond - 1]
    return 50.0, statistics.median(ordered)  # under 20 samples


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        spec: Spec, import_seconds: float) -> dict[str, Any]:
    """One run of one workload; returns everything measured."""
    declared = list(spec.per_layer)
    calibration_ms = calibrate()
    workload, setup_times = _set_up(name, seed, smoke, declared)
    notes = workload.notes = Notes(declared)
    tracer = Tracer() if trace else None
    log: list[OpRecord] = []
    rss_at_prefix: list[int] = []
    try:
        loop_seconds = seconds * (TRACED_LOOP_SHARE if trace else 1.0)
        start_line = threading.Barrier(workload.clients)
        began = time.perf_counter()
        deadline = began + loop_seconds
        threads = [threading.Thread(
            target=_drive, name=f"ledger-client-{client}",
            args=(workload, client, deadline, tracer, log, start_line,
                  rss_at_prefix))
            for client in range(1, workload.clients)]
        for thread in threads:
            thread.start()
        _drive(workload, 0, deadline, tracer, log, start_line,
               rss_at_prefix)
        for thread in threads:
            thread.join()
        probe_deadline = began + seconds
        for count, sample in enumerate(workload.samples):
            if count and time.perf_counter() > probe_deadline:
                break
            workload.probe(sample)
        if trace:
            workload.run_probes()
    finally:
        workload.close()

    plain = [r for r in log if r.ok and not r.traced]
    traced = [r for r in log if r.ok and r.traced]
    failed = [r for r in log if not r.ok]
    if not plain or not rss_at_prefix:
        raise RuntimeError(f"{name}: too few ops completed; errors: "
                           f"{sorted({r.error for r in failed})[:5]}")
    plain_ms = sorted(r.seconds * 1e3 for r in plain)
    by_client = [sorted(r.seconds for r in plain if r.client == c)
                 for c in range(workload.clients)]
    by_client = [latencies for latencies in by_client if latencies]
    exact = [r for r in log if r.index < workload.exact_ops]
    end_to_end = {
        "setup_s": import_seconds + min(setup_times),
        "op_p10_ms": _p10(plain_ms),
        "ops_per_s": sum(_rate(latencies, QUIET_SHARE)
                         for latencies in by_client),
        "metered_mcycles_per_op":
            statistics.fmean(r.cycles for r in exact) / 1e6,
        "proof_bytes_per_op":
            statistics.fmean(r.proof_bytes for r in exact),
        "peak_rss_mb": (max(rss_at_prefix) + resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss) / 1024,
    }

    percentile, tail_ms = _tail(plain_ms)
    per_client = [statistics.median(latencies) for latencies in by_client]
    notes.add("loadgen.ops", len(plain) + len(traced))
    notes.add("loadgen.op_p50_ms", statistics.median(plain_ms))
    notes.add("loadgen.ops_per_s_all",
              sum(_rate(latencies, 1.0) for latencies in by_client))
    notes.add("loadgen.op_tail_ms", tail_ms)
    notes.add("loadgen.tail_percentile", percentile)
    notes.add("loadgen.calibration_ms", calibration_ms)
    notes.add("loadgen.client_skew",
              max(per_client) / statistics.fmean(per_client))
    notes.add("loadgen.fail_ratio", len(failed) / len(log))
    notes.add("qserve.rejected", sum(
        1 for r in failed if "AdmissionRejected" in (r.error or "")))
    if traced:
        notes.add("loadgen.trace_overhead_ratio",
                  _p10(sorted(r.seconds * 1e3 for r in traced))
                  / _p10(plain_ms))
        for op in tracer.by_op().values():
            if OP not in op:
                continue  # the op raised before its span closed
            children = {k: v for k, v in op.items() if k != OP}
            notes.add("loadgen.coverage_ratio",
                      sum(children.values()) / op[OP])
            for span_name, span_seconds in children.items():
                metric = f"{span_name}_ms"
                if metric in notes.values:
                    notes.add(metric, span_seconds * 1e3)
        whole, zkvm = notes.median("core.round_ms"), \
            notes.median("zkvm.prove_ms")
        if whole is not None and zkvm is not None:
            notes.add("core.round_host_ms", whole - zkvm)

    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "attempted": len(log),
        "failed": len(failed),
        "errors": sorted({r.error for r in failed})[:5],
        "ops": {"untraced": len(plain), "traced": len(traced),
                "exact_prefix": len(exact), "setups": len(setup_times)},
        "end_to_end": end_to_end,
        "per_layer": {n: notes.median(n) for n in declared},
        # A null metric not listed here: the workload does not
        # exercise that layer.
        "probe_errors": notes.reasons,
        "spans": tracer.to_wire() if tracer else [],
    }
