"""The proven cross-provider join: K query proofs folded in the zkVM.

The two-party peering auditor (:mod:`repro.core.federation`) verifies
two query responses and does the reconciliation arithmetic *itself*.
That does not scale past two parties — an auditor of K providers would
hold K receipts and a spreadsheet.  Here the arithmetic moves inside
the zkVM: every provider proves one canonical totals query over its own
committed round, and :data:`~repro.core.guest_programs.
federation_join_guest` verifies those K receipts and commits the joined
result — end-to-end path loss, the inter-domain traffic matrix, an SLA
attestation — as one journal under one receipt.

Per-provider query proving routes through
:meth:`~repro.engine.scheduler.ProvingEngine.submit_fanout`, the same
fan-out/merge primitive partitioned queries use, so federation rounds
inherit the content-addressed receipt cache, the process/remote pool
backends and the ``repro_engine_*`` telemetry for free.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from ..core.aggregation import make_receipt_binding
from ..core.guest_programs import (
    FEDERATION_TOTALS_SQL,
    federation_join_guest,
    query_guest,
)
from ..engine import ProvingEngine
from ..engine.jobs import ProofJob
from ..errors import GuestAbort, ProofError
from ..hashing import Digest
from ..obs import names as obs_names
from ..obs import runtime as obs
from ..zkvm import ExecutorEnvBuilder, ProverOpts, Receipt
from ..zkvm.recursion import resolve, resolve_all
from .scenario import FederationScenario

PPM = 1_000_000


@dataclass(frozen=True)
class FederationJoinResult:
    """A proven federation round: one receipt over K providers."""

    receipt: Receipt
    journal: dict[str, Any]
    providers: tuple[str, ...]
    roots: tuple[Digest, ...]
    total_cycles: int

    @property
    def sla_ok(self) -> bool:
        return bool(self.journal["sla"]["ok"])

    @property
    def path_loss_ppm(self) -> int:
        return int(self.journal["path"]["loss_ppm"])

    @property
    def matrix(self) -> tuple[tuple[str, str, int], ...]:
        return tuple((src, dst, pkts) for src, dst, pkts in self.journal["matrix"])


class FederationJoinProver:
    """Coordinates one federation join round through the engine.

    The coordinator is *untrusted*: everything it assembles — which
    query each provider proved, which roots the join was computed over
    — is re-checked inside the join guest, and the auditor re-checks
    the published roots against each provider's verified chain.  With
    no ``engine``, a private serial engine is created (and owned); pass
    an engine to share its pool, cache and telemetry across rounds.
    """

    def __init__(
        self,
        engine: ProvingEngine | None = None,
        prover_opts: ProverOpts | None = None,
        tolerance_ppm: int = 0,
        sla_loss_ppm: int = PPM,
    ) -> None:
        if tolerance_ppm < 0 or sla_loss_ppm < 0:
            raise ProofError("federation thresholds must be non-negative")
        self._own_engine = engine is None
        self._engine = engine if engine is not None else ProvingEngine()
        self._opts = prover_opts or ProverOpts.groth16()
        self.tolerance_ppm = tolerance_ppm
        self.sla_loss_ppm = sla_loss_ppm

    def __enter__(self) -> "FederationJoinProver":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        if self._own_engine:
            self._engine.close()

    def prove_join(
        self,
        scenario: FederationScenario,
        roots: list[Digest] | None = None,
    ) -> FederationJoinResult:
        """Prove one join over the scenario's published roots.

        Aggregates any pending windows per domain (each with its own
        prover), defaults ``roots`` to what each provider published on
        the board, fans one totals-query job per provider out through
        the engine, and folds the resolved receipts in the join guest.
        A provider whose published root does not match its proven round
        makes the join guest abort — deterministically, with a
        :class:`~repro.errors.GuestAbort` naming the provider.
        """
        scenario.aggregate_and_publish()
        names = scenario.names
        if roots is None:
            roots = [scenario.board.latest(name)[1] for name in names]
        if len(roots) != len(names):
            raise ProofError("one published root per provider is required")

        start = time.perf_counter()
        registry = obs.registry()
        registry.gauge(obs_names.FEDERATION_PROVIDERS).set(len(names))
        outcome = "error"
        try:
            with obs.tracer().span(
                obs_names.SPAN_FEDERATION_JOIN,
                providers=len(names),
            ) as span:
                result = self._prove(scenario, names, list(roots), span)
            outcome = "ok"
            return result
        except GuestAbort:
            outcome = "abort"
            raise
        finally:
            registry.counter(obs_names.FEDERATION_JOINS, ("outcome",)).inc(outcome=outcome)
            registry.histogram(obs_names.FEDERATION_JOIN_SECONDS).observe(
                time.perf_counter() - start
            )

    def _prove(
        self,
        scenario: FederationScenario,
        names: tuple[str, ...],
        roots: list[Digest],
        span: Any,
    ) -> FederationJoinResult:
        jobs: list[ProofJob] = []
        agg_receipts: list[Receipt] = []
        for domain in scenario.providers:
            state, agg_receipt = domain.prover.query_state()
            agg_receipts.append(agg_receipt)
            jobs.append(self._totals_job(state, agg_receipt))

        # Populated by build_merges on the completion-callback thread;
        # reads below are ordered after it by collect().
        resolved: list[Receipt] = []

        def build_merges(results: list[Any]) -> list[ProofJob]:
            builder = ExecutorEnvBuilder()
            builder.write(
                {
                    "num_providers": len(names),
                    "providers": list(names),
                    "roots": roots,
                    "tolerance_ppm": self.tolerance_ppm,
                    "sla_loss_ppm": self.sla_loss_ppm,
                }
            )
            for index, result in enumerate(results):
                receipt = resolve(result.receipt, agg_receipts[index])
                resolved.append(receipt)
                builder.write(make_receipt_binding(receipt))
            return [ProofJob.from_parts(federation_join_guest, builder.build(), self._opts)]

        totals, (merge_future,) = self._engine.submit_fanout(jobs, build_merges).collect()
        merge_result = merge_future.result()
        total_cycles = sum(result.stats.total_cycles for result in (*totals, merge_result))
        span.add_cycles(total_cycles)
        receipt = resolve_all(merge_result.receipt, resolved)
        return FederationJoinResult(
            receipt=receipt,
            journal=receipt.journal.decode_one(),
            providers=names,
            roots=tuple(roots),
            total_cycles=total_cycles,
        )

    def _totals_job(self, state: Any, agg_receipt: Receipt) -> ProofJob:
        """One provider's canonical totals query as an engine job.

        The same frame layout as the full-scan query prover: header,
        aggregation binding, then every CLog entry in slot order.  The
        frames never leave the provider conceptually — only the receipt
        the pool returns enters the join.
        """
        builder = ExecutorEnvBuilder()
        builder.write({"query": FEDERATION_TOTALS_SQL, "num_entries": len(state)})
        builder.write(make_receipt_binding(agg_receipt))
        for frame in state.entry_frames():
            builder.write(frame)
        return ProofJob.from_parts(query_guest, builder.build(), self._opts)
