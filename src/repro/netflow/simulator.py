"""The multi-router NetFlow simulation harness (paper §6 setup).

"The simulated setting comprises 4 routers, each generating NetFlow
telemetry logs in parallel via dedicated threads.  These logs are written
to a shared PostgreSQL backend, and each router periodically commits a
cryptographic hash of its log data every 5 seconds."

The driver generates flows over the topology and fans each flow's
per-router observations out to that router's worker.  Two drive modes:

* ``run_threaded`` — dedicated thread per router (the paper's setup),
  wall-clock or virtual-clock paced;
* ``pump`` — synchronous single-threaded stepping: generate, deliver,
  advance the clock, commit; deterministic, and what ``repro simulate``
  and :meth:`~repro.core.system.TelemetrySystem.generate` run.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field

from ..commitments import BulletinBoard, RouterCommitter, WindowConfig
from ..errors import SimulationError
from ..storage.backend import LogStore
from .clock import Clock, SimClock
from .generator import TrafficConfig, TrafficGenerator
from .records import NetFlowRecord
from .topology import NetworkTopology


@dataclass
class SimulatorConfig:
    """Simulation knobs; defaults mirror the paper's evaluation.

    ``use_wire_format`` routes every record through a real NetFlow v9
    exporter/collector pair per router before it reaches the committer
    — full transport fidelity (committed bytes are what the collector
    decoded, exactly as a production deployment would see them).
    """

    num_routers: int = 4
    commit_interval_ms: int = 5_000
    flows_per_tick: int = 20
    tick_ms: int = 1_000
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    use_wire_format: bool = False


class NetFlowSimulator:
    """Drives routers, traffic, storage and commitments together."""

    def __init__(self, store: LogStore,
                 bulletin: BulletinBoard | None = None,
                 clock: Clock | None = None,
                 config: SimulatorConfig | None = None,
                 topology: NetworkTopology | None = None) -> None:
        self.config = config or SimulatorConfig()
        self.store = store
        # Explicit None checks: an empty BulletinBoard is falsy (__len__).
        self.bulletin = BulletinBoard() if bulletin is None else bulletin
        self.clock = clock if clock is not None else SimClock()
        self.topology = topology if topology is not None \
            else NetworkTopology.linear(self.config.num_routers)
        if len(self.topology.router_ids()) != self.config.num_routers:
            # Topology overrides the router count.
            self.config.num_routers = len(self.topology.router_ids())
        self.generator = TrafficGenerator(self.topology,
                                          self.config.traffic)
        window = WindowConfig(interval_ms=self.config.commit_interval_ms)
        self.committers = {
            router_id: RouterCommitter(router_id, store, self.bulletin,
                                       self.clock, window)
            for router_id in self.topology.router_ids()
        }
        self._records_generated = 0
        self._wire: dict[str, tuple] = {}
        if self.config.use_wire_format:
            from .collector import NetFlowCollector
            from .export import NetFlowExporter
            for index, router_id in enumerate(
                    self.topology.router_ids()):
                self._wire[router_id] = (
                    NetFlowExporter(source_id=index + 1),
                    NetFlowCollector(),
                )

    @property
    def records_generated(self) -> int:
        return self._records_generated

    # -- synchronous drive (deterministic) -------------------------------------

    def pump(self, ticks: int = 1) -> None:
        """Advance the simulation ``ticks`` steps synchronously."""
        for _ in range(ticks):
            now = self.clock.now_ms()
            self._deliver(self._generate_tick(now))
            self.clock.sleep_ms(self.config.tick_ms)
            for committer in self.committers.values():
                committer.maybe_commit()

    def run_until_records(self, target_records: int,
                          max_ticks: int = 100_000) -> None:
        """Pump until at least ``target_records`` records exist."""
        for _ in range(max_ticks):
            if self._records_generated >= target_records:
                break
            self.pump()
        else:
            raise SimulationError(
                f"generated only {self._records_generated} records in "
                f"{max_ticks} ticks (target {target_records})")

    def flush(self) -> None:
        """Commit every router's outstanding buffer."""
        for committer in self.committers.values():
            committer.flush()

    # -- threaded drive (the paper's parallel-router mode) ------------------------

    def run_threaded(self, duration_ms: int) -> None:
        """Run with one dedicated worker thread per router.

        The driver thread generates flows and feeds per-router queues;
        each router thread ingests its records and publishes its own
        commitments, concurrently with its peers, against the shared
        store — the §6 configuration.

        Meant for wall-clock runs (:class:`~repro.netflow.clock.WallClock`).
        With a :class:`~repro.netflow.clock.SimClock` the driver's
        virtual sleeps advance instantly, so worker threads drain most
        records after the loop ends and window assignment skews toward
        the final window — use :meth:`pump` for deterministic
        virtual-time tests.

        A router thread that fails (its store refused a window, say)
        ends the run: the first such exception is re-raised here once
        every thread has stopped, so no router's later windows go
        silently unstored.
        """
        queues: dict[str, queue.Queue] = {
            r: queue.Queue() for r in self.committers}
        stop = threading.Event()
        errors: list[BaseException] = []

        def router_worker(router_id: str) -> None:
            committer = self.committers[router_id]
            q = queues[router_id]
            try:
                while not (stop.is_set() and q.empty()):
                    try:
                        record = q.get(timeout=0.01)
                    except queue.Empty:
                        committer.maybe_commit()
                        continue
                    committer.add_record(record)
                committer.flush()
            except BaseException as exc:  # re-raised by the driver
                errors.append(exc)

        threads = [
            threading.Thread(target=router_worker, args=(router_id,),
                             name=f"router-{router_id}", daemon=True)
            for router_id in self.committers
        ]
        for thread in threads:
            thread.start()
        try:
            end = self.clock.now_ms() + duration_ms
            while self.clock.now_ms() < end and not errors:
                for record in self._generate_tick(self.clock.now_ms()):
                    queues[record.router_id].put(record)
                self.clock.sleep_ms(self.config.tick_ms)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
                if thread.is_alive():
                    raise SimulationError(
                        f"{thread.name} failed to stop")
        if errors:
            raise errors[0]

    # -- internals --------------------------------------------------------------------

    def _generate_tick(self, now_ms: int) -> list[NetFlowRecord]:
        records: list[NetFlowRecord] = []
        for flow in self.generator.generate_flows(
                self.config.flows_per_tick, now_ms):
            records.extend(self.generator.observe(flow))
        self._records_generated += len(records)
        return records

    def _deliver(self, records: list[NetFlowRecord]) -> None:
        if not self.config.use_wire_format:
            for record in records:
                self.committers[record.router_id].add_record(record)
            return
        # Transport-fidelity mode: per-router v9 export → collect.
        by_router: dict[str, list[NetFlowRecord]] = {}
        for record in records:
            by_router.setdefault(record.router_id, []).append(record)
        for router_id, router_records in by_router.items():
            exporter, collector = self._wire[router_id]
            now = self.clock.now_ms()
            for packet in exporter.export(router_records, now_ms=now):
                for decoded in collector.ingest(packet,
                                                router_id=router_id):
                    self.committers[router_id].add_record(decoded)
