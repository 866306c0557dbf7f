"""Background aggregation daemon (§4: "The aggregation phase is
decoupled from query processing and runs independently in the
background.  This allows it to be scaled according to the available
resources of the provider.").

:class:`AggregationDaemon` watches the bulletin board and decides *when*
to spend a proving round, trading prover cost against staleness:

* batch up to ``batch_limit`` committed windows into one round
  (amortizing the fixed proving overhead — see the window-size
  ablation), but
* never let a committed window wait longer than ``max_lag_ms``
  (bounding how stale query answers can be).

The daemon is **supervised**: a long-running delegated prover has to
outlive flaky stores, late routers, and proving failures.  Failed
windows retry with exponential backoff + jitter, windows that keep
failing are quarantined (dead-lettered) after ``max_attempts`` so the
rest of the pipeline keeps moving, a router whose commitment is late
past ``commitment_deadline_ms`` is skipped rather than allowed to stall
the window, and :meth:`health` reports a three-state machine
(``healthy`` / ``degraded`` / ``stalled``) that :mod:`repro.obs` gauges
surface.  The quarantine is the service's
(:meth:`~repro.core.prover_service.ProverService.quarantine`), shared
with every other round driver; a window whose single-window round
aborts in the guest lands there at once, without retries.

Driven by explicit ``step`` calls (tests, simulations with a virtual
clock) or ``run_threaded`` for wall-clock deployments; the thread
survives every exception — crashes are logged, counted, and retried,
never silently fatal.
"""

from __future__ import annotations

import logging
import random
import threading
from collections import deque
from dataclasses import dataclass, field

from ..errors import ConfigurationError, MissingCommitment, ReproError
from ..netflow.clock import Clock
from ..obs import names as obs_names
from ..obs import runtime as obs
from .aggregation import AggregationResult
from .prover_service import ProverService

logger = logging.getLogger(__name__)

#: ``health()["state"]`` values, in order of the gauge encoding.
HEALTH_STATES = ("healthy", "degraded", "stalled")


@dataclass(frozen=True)
class DaemonPolicy:
    """When to spend a proving round, and how to survive failures."""

    batch_limit: int = 4          # aggregate as soon as this many wait
    max_lag_ms: int = 10_000      # ... or the oldest has waited this long
    min_windows: int = 1
    # Supervision: retry, quarantine, degrade.
    max_attempts: int = 5          # quarantine a window after N failures
    retry_base_ms: int = 200       # first backoff delay
    retry_multiplier: float = 2.0  # exponential growth per attempt
    retry_max_ms: int = 10_000     # backoff ceiling
    retry_jitter: float = 0.2      # ±fraction of the delay (seeded rng)
    commitment_deadline_ms: int = 30_000  # late router → skip, not stall
    stall_after: int = 10          # consecutive failed steps → stalled
    results_kept: int = 64         # bound on stats.results

    def __post_init__(self) -> None:
        if self.batch_limit < 1 or self.min_windows < 1:
            raise ConfigurationError("limits must be >= 1")
        if self.max_lag_ms < 0:
            raise ConfigurationError("max_lag_ms must be >= 0")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.retry_base_ms < 0 or self.retry_max_ms < 0:
            raise ConfigurationError("retry delays must be >= 0")
        if self.retry_multiplier < 1.0:
            raise ConfigurationError("retry_multiplier must be >= 1")
        if not 0.0 <= self.retry_jitter <= 1.0:
            raise ConfigurationError("retry_jitter must be in [0, 1]")
        if self.commitment_deadline_ms < 0:
            raise ConfigurationError(
                "commitment_deadline_ms must be >= 0")
        if self.stall_after < 1:
            raise ConfigurationError("stall_after must be >= 1")
        if self.results_kept < 1:
            raise ConfigurationError("results_kept must be >= 1")


@dataclass
class DaemonStats:
    rounds: int = 0
    windows_consumed: int = 0
    records_aggregated: int = 0
    faults: int = 0       # handled domain failures (gather/prove)
    retries: int = 0      # backoff reschedules issued
    crashes: int = 0      # unexpected exceptions survived by the loop
    results: deque[AggregationResult] = field(
        default_factory=lambda: deque(maxlen=64))

    def to_wire(self) -> dict:
        return {
            "rounds": self.rounds,
            "windows_consumed": self.windows_consumed,
            "records_aggregated": self.records_aggregated,
            "faults": self.faults,
            "retries": self.retries,
            "crashes": self.crashes,
            "results_kept": len(self.results),
        }


class AggregationDaemon:
    """Polls the bulletin, batches windows, runs supervised rounds."""

    def __init__(self, service: ProverService, clock: Clock,
                 policy: DaemonPolicy | None = None,
                 seed: int = 0) -> None:
        self.service = service
        self.clock = clock
        self.policy = policy or DaemonPolicy()
        self.stats = DaemonStats(
            results=deque(maxlen=self.policy.results_kept))
        self._rng = random.Random(seed)
        self._first_seen_ms: dict[int, int] = {}
        self._attempts: dict[int, int] = {}
        self._retry_at_ms: dict[int, int] = {}
        self._isolate: set[int] = set()
        self._consecutive_failures = 0

    # -- observation -----------------------------------------------------------

    def pending_windows(self) -> list[int]:
        """The service's :meth:`~ProverService.pending_windows`,
        oldest first."""
        now = self.clock.now_ms()
        pending = self.service.pending_windows()
        for window in pending:
            self._first_seen_ms.setdefault(window, now)
        return pending

    def due_windows(self) -> list[int]:
        """Pending windows whose backoff delay (if any) has elapsed."""
        now = self.clock.now_ms()
        return [w for w in self.pending_windows()
                if self._retry_at_ms.get(w, 0) <= now]

    def oldest_lag_ms(self) -> int:
        pending = self.pending_windows()
        if not pending:
            return 0
        now = self.clock.now_ms()
        return max(now - self._first_seen_ms[w] for w in pending)

    def should_run(self) -> bool:
        due = self.due_windows()
        if len(due) < self.policy.min_windows:
            return False
        if len(due) >= self.policy.batch_limit:
            return True
        now = self.clock.now_ms()
        return any(now - self._first_seen_ms[w] >= self.policy.max_lag_ms
                   for w in due)

    @property
    def quarantined(self) -> dict[int, str]:
        """The service's quarantine: window_index → reason."""
        return self.service.quarantined

    def health(self) -> dict:
        """The daemon's three-state health view.

        * ``stalled`` — ``stall_after`` consecutive steps attempted
          work and none produced a round; the pipeline is not moving.
        * ``degraded`` — making progress overall, but some windows are
          quarantined or waiting out a retry backoff.
        * ``healthy`` — nothing is failing.
        """
        state = HEALTH_STATES[self._health_code()]
        engine = getattr(self.service, "engine", None)
        return {
            "state": state,
            "consecutive_failures": self._consecutive_failures,
            "quarantined": self.quarantined,
            "retrying": sorted(self._attempts),
            "pending": len(self.pending_windows()),
            "oldest_lag_ms": self.oldest_lag_ms(),
            "stats": self.stats.to_wire(),
            "engine": engine.snapshot() if engine is not None else None,
        }

    # -- driving -------------------------------------------------------------------

    def step(self) -> AggregationResult | None:
        """One supervised scheduling decision.

        Handled faults (:class:`~repro.errors.ReproError` from gather or
        prove) never escape: they feed the retry/quarantine machinery
        and the step returns ``None``.  Anything else is a genuine bug
        and propagates — :meth:`run_threaded` catches, counts, and
        survives those too.
        """
        if not self.should_run():
            self._set_gauges()
            return None
        batch = self._choose_batch()
        inputs, gathered = self._gather_batch(batch)
        if not gathered:
            self._finish_step(success=False)
            return None
        try:
            result = self.service.prove_round(gathered, inputs)
        except ReproError as exc:
            self._on_prove_failure(gathered, exc)
            self._finish_step(success=False)
            return None
        for window in gathered:
            self._forget(window)
        self.stats.rounds += 1
        self.stats.windows_consumed += len(gathered)
        self.stats.records_aggregated += result.record_count
        self.stats.results.append(result)
        obs.registry().counter(obs_names.DAEMON_STEPS,
                               ("outcome",)).inc(outcome="round")
        self._finish_step(success=True)
        return result

    def run_threaded(self, stop: threading.Event,
                     poll_ms: int = 200) -> threading.Thread:
        """Run the supervised loop off-thread until ``stop`` is set.

        The loop survives *every* exception: handled faults are already
        absorbed by :meth:`step`; anything unexpected is logged with a
        traceback, counted (``stats.crashes`` and the
        ``repro_daemon_steps_total{outcome="crash"}`` series), and the
        loop continues after the normal poll delay.
        """
        def loop() -> None:
            while not stop.is_set():
                try:
                    self.step()
                except Exception as exc:  # noqa: BLE001 — supervisor
                    self.stats.crashes += 1
                    obs.registry().counter(
                        obs_names.DAEMON_STEPS,
                        ("outcome",)).inc(outcome="crash")
                    logger.exception(
                        "daemon step crashed (%s); continuing", exc)
                self.clock.sleep_ms(poll_ms)

        thread = threading.Thread(target=loop,
                                  name="aggregation-daemon",
                                  daemon=True)
        thread.start()
        return thread

    # -- supervision internals ---------------------------------------------------

    def _choose_batch(self) -> list[int]:
        """Next batch, oldest first.  Windows flagged for isolation
        (after a batched prove failed) go one at a time, so one poisoned
        window cannot keep sinking its batch-mates."""
        due = self.due_windows()
        isolated = [w for w in due if w in self._isolate]
        if isolated:
            return isolated[:1]
        return due[:self.policy.batch_limit]

    def _gather_batch(self, batch: list[int]
                      ) -> tuple[list, list[int]]:
        """Gather each window separately so one window's fault cannot
        take down the whole batch."""
        inputs: list = []
        gathered: list[int] = []
        now = self.clock.now_ms()
        for window in sorted(batch):
            lag = now - self._first_seen_ms.get(window, now)
            past_deadline = lag >= self.policy.commitment_deadline_ms
            try:
                inputs.extend(self.service.gather_window(
                    window, skip_uncommitted=past_deadline))
                gathered.append(window)
            except MissingCommitment as exc:
                if past_deadline:
                    # Even the degraded gather found nothing usable:
                    # that is a real fault, count it toward quarantine.
                    self._record_fault(window, exc)
                else:
                    # A router is late but within its deadline — wait,
                    # at no attempt cost.
                    logger.debug(
                        "window %d waiting on late commitment "
                        "(lag %d ms < deadline %d ms)", window, lag,
                        self.policy.commitment_deadline_ms)
            except ReproError as exc:
                self._record_fault(window, exc)
        return inputs, gathered

    def _on_prove_failure(self, gathered: list[int],
                          exc: ReproError) -> None:
        if len(gathered) == 1:
            self._record_fault(gathered[0], exc)
            return
        # A batched round failed: any one window could be the poison.
        # Re-prove them individually (binary attribution would prove
        # log n rounds; individually is simpler and each round still
        # makes progress).
        logger.warning(
            "round over windows %s failed (%s); isolating for "
            "individual proving", gathered, exc)
        self.stats.faults += 1
        obs.registry().counter(
            obs_names.DAEMON_FAULTS, ("error",)).inc(
            error=type(exc).__name__)
        self._isolate.update(gathered)

    def _record_fault(self, window: int, exc: ReproError) -> None:
        """One window failed: back off, or quarantine at the limit."""
        self.stats.faults += 1
        obs.registry().counter(
            obs_names.DAEMON_FAULTS, ("error",)).inc(
            error=type(exc).__name__)
        if window in self.service.quarantined:
            # The service quarantined it itself (a guest abort).
            self._forget(window)
            return
        attempts = self._attempts.get(window, 0) + 1
        if attempts >= self.policy.max_attempts:
            self.service.quarantine(
                window, f"{type(exc).__name__}: {exc}")
            self._forget(window)
            return
        self._attempts[window] = attempts
        delay = min(
            self.policy.retry_base_ms
            * self.policy.retry_multiplier ** (attempts - 1),
            self.policy.retry_max_ms)
        delay *= 1.0 + self.policy.retry_jitter \
            * self._rng.uniform(-1.0, 1.0)
        self._retry_at_ms[window] = self.clock.now_ms() + int(delay)
        self.stats.retries += 1
        obs.registry().counter(obs_names.DAEMON_RETRIES, ()).inc()
        logger.warning(
            "window %d failed (attempt %d/%d): %s — retrying in "
            "%d ms", window, attempts, self.policy.max_attempts, exc,
            int(delay))

    def _forget(self, window: int) -> None:
        self._first_seen_ms.pop(window, None)
        self._attempts.pop(window, None)
        self._retry_at_ms.pop(window, None)
        self._isolate.discard(window)

    def _finish_step(self, success: bool) -> None:
        if success:
            self._consecutive_failures = 0
        else:
            self._consecutive_failures += 1
            obs.registry().counter(obs_names.DAEMON_STEPS,
                                   ("outcome",)).inc(outcome="faulted")
        self._set_gauges()

    def _health_code(self) -> int:
        """Index into :data:`HEALTH_STATES`."""
        if self._consecutive_failures >= self.policy.stall_after:
            return 2
        if self.service.quarantined or self._attempts \
                or self._consecutive_failures > 0:
            return 1
        return 0

    def _set_gauges(self) -> None:
        registry = obs.registry()
        registry.gauge(obs_names.DAEMON_QUARANTINED).set(
            len(self.service.quarantined))
        registry.gauge(obs_names.DAEMON_HEALTH).set(self._health_code())
