"""The service provider's prover (Figure 1, left).

Owns the authoritative CLog state and the proof chain; pulls committed
router windows from the shared store, runs aggregation rounds, and
answers client queries with proofs.  Aggregation is decoupled from both
logging and queries (§1, §4): it reads only *already committed* windows
and can run off-path, at whatever cadence resources allow.
"""

from __future__ import annotations

import logging
import threading
from typing import Any

from ..commitments import BulletinBoard
from ..errors import (
    ChainError,
    CheckpointError,
    ConfigurationError,
    GuestAbort,
    MissingCommitment,
    ProofError,
    ReproError,
)
from ..hashing import Digest
from ..obs import names as obs_names
from ..obs import runtime as obs
from ..qserve.cache import QueryResultCache
from ..qserve.service import DEFAULT_BATCH_PARTITIONS
from ..serialization import decode, encode
from ..storage.backend import LogStore
from ..zkvm import ProveInfo, ProverOpts, Verifier
from .aggregation import (
    AggregationResult,
    BatchedAggregator,
    RouterWindowInput,
)
from .chain import (
    ROUND_IMAGE_IDS,
    AggregationChain,
    ChainLink,
    require_distinct_windows,
)
from .clog import CLogEntry, CLogState
from .policy import DEFAULT_POLICY, AggregationPolicy
from .query_proof import QueryProver, QueryResponse

logger = logging.getLogger(__name__)

#: Version tag inside every checkpoint payload; bump on layout changes
#: a reader cannot absorb (chain links that still carry copied
#: ``new_root``/``size``/``record_count`` keys, and payloads that still
#: name a ``strategy``, restore: those keys are ignored).
CHECKPOINT_VERSION = 1

#: Default checkpoint slot used by auto-checkpointing and restore.
DEFAULT_CHECKPOINT = "prover-latest"


class ProverService:
    """Aggregates committed telemetry and answers verifiable queries."""

    def __init__(self, store: LogStore, bulletin: BulletinBoard,
                 policy: AggregationPolicy = DEFAULT_POLICY,
                 prover_opts: ProverOpts | None = None,
                 retain_history: bool = False,
                 auto_checkpoint: bool = False,
                 query_cache_size: int = 256,
                 pool_backend: str | None = None,
                 prove_workers: int | None = None,
                 prove_nodes: Any = None,
                 query_partitions: int | None = None) -> None:
        if query_cache_size < 1:
            raise ConfigurationError("query_cache_size must be >= 1")
        if query_partitions is not None and query_partitions < 1:
            raise ConfigurationError("query_partitions must be >= 1")
        self.store = store
        self.bulletin = bulletin
        self.policy = policy
        self.state = CLogState()
        self.chain = AggregationChain()
        # A round commits its state and chain link together, and a
        # query reads the pair together: a query proving beside a
        # round binds one round's state to that round's receipt.
        self._commit_lock = threading.Lock()
        self.retain_history = retain_history
        self._history: dict[int, CLogState] = {}
        # The engine is opt-in and *explicit*: a default service must
        # prove exactly like the seed (the obs contract pins its
        # telemetry namespace).
        self.engine = None
        if pool_backend is not None or prove_workers is not None \
                or prove_nodes or query_partitions is not None:
            from ..engine import ProvingEngine
            # The receipt cache's persistent tier rides the store's
            # checkpoint KV, so identical proofs replay across restarts
            # — and, for the remote backend, doubles as the shared tier
            # any worker on the same store can serve partitions from.
            self.engine = ProvingEngine(
                policy=policy,
                prover_opts=prover_opts or ProverOpts.groth16(),
                backend=pool_backend, max_workers=prove_workers,
                store=store, nodes=prove_nodes)
        prover = self.engine.prover(prover_opts) \
            if self.engine is not None else None
        self.query_partitions = query_partitions
        # Every round is proven by the batched guest, whose journals are
        # byte-identical to Alg. 1's (the Fig. 4 path) for fewer cycles.
        self._aggregator = BatchedAggregator(policy, prover_opts,
                                             prover=prover)
        self.auto_checkpoint = auto_checkpoint
        self._query_prover = QueryProver(
            prover_opts, prover=prover, engine=self.engine,
            num_partitions=self.query_partitions)
        self._aggregated_windows: set[int] = set()
        # window → reason for every window no driver will pick again
        # (``aggregate_all_committed``, RUN_ROUND without a list); the
        # operator's retry is an explicit round over the window, which
        # clears its entry once it proves.
        self._quarantined: dict[int, str] = {}
        # Proven answers persist in the store's checkpoint KV, so a
        # restarted prover replays them without proving.
        self.query_cache = QueryResultCache(
            store, memory_entries=query_cache_size)
        self.last_prove_info: ProveInfo | None = None

    def close(self) -> None:
        """Release the engine's worker pool (if any)."""
        if self.engine is not None:
            self.engine.close()

    @property
    def aggregated_windows(self) -> frozenset[int]:
        """Window indices already consumed by a proven round."""
        return frozenset(self._aggregated_windows)

    def pending_windows(self) -> list[int]:
        """Committed-but-unproven windows, in commit order.

        A window stays pending until the round consuming it is *proven*.
        Quarantined windows are left out: no driver will try them.
        """
        return [window for window in self.bulletin.windows()
                if window not in self._aggregated_windows
                and window not in self._quarantined]

    @property
    def quarantined(self) -> dict[int, str]:
        """window → reason for every quarantined window."""
        return dict(self._quarantined)

    def quarantine(self, window_index: int, reason: str) -> None:
        """Take a window out of every driver's candidates."""
        logger.error("window %d quarantined: %s", window_index, reason)
        self._quarantined[window_index] = reason

    def require_unquarantined(self, subject: str) -> None:
        """Raise :class:`~repro.errors.ProofError` naming every
        quarantined window, for callers that must not proceed over a
        chain that leaves committed data out."""
        if self._quarantined:
            detail = "; ".join(f"window {window}: {reason}"
                               for window, reason
                               in sorted(self.quarantined.items()))
            raise ProofError(
                f"{subject} has quarantined window(s): {detail}")

    def status(self) -> dict:
        """Operational snapshot (the wire health endpoint's body).

        ``pending_windows`` is the backlog: committed windows no proven
        round has consumed.  Health checks need it to tell a prover
        that is *catching up* (pending shrinking or empty) from one
        that *stalled* (pending growing while rounds stand still) —
        before it was added, both looked identical here.
        ``quarantined`` lists the windows no driver will retry, each
        with the error that put it there.
        """
        return {
            "rounds": len(self.chain),
            "flows": len(self.state),
            "aggregated_windows": sorted(self._aggregated_windows),
            "committed_windows": self.bulletin.windows(),
            "pending_windows": self.pending_windows(),
            "quarantined": [{"window": window, "reason": reason}
                            for window, reason
                            in sorted(self.quarantined.items())],
            "query_cache": self.query_cache.stats(),
            "auto_checkpoint": self.auto_checkpoint,
            "query_partitions": self.query_partitions,
            "latest_root": (self.chain.latest.header.new_root.hex()
                            if len(self.chain) else None),
            "engine": (self.engine.snapshot()
                       if self.engine is not None else None),
        }

    # -- aggregation ------------------------------------------------------------

    def gather_window(self, window_index: int) -> list[RouterWindowInput]:
        """Collect every router's committed blobs for one window.

        Routers with stored rows but no published commitment raise
        :class:`~repro.errors.MissingCommitment` — uncommitted data must
        never enter an aggregation round.
        """
        inputs = []
        for router_id in self.store.router_ids():
            if window_index not in self.store.window_indices(router_id):
                continue
            commitment = self.bulletin.get(router_id, window_index)
            blobs = tuple(self.store.window_blobs(router_id, window_index))
            inputs.append(RouterWindowInput(
                router_id=router_id,
                window_index=window_index,
                commitment=commitment.digest,
                blobs=blobs,
            ))
        if not inputs:
            raise MissingCommitment(
                f"no router has committed data for window {window_index}")
        return inputs

    def aggregate_window(self, window_index: int) -> AggregationResult:
        """Run one aggregation round over one committed window."""
        return self.aggregate_windows([window_index])

    def aggregate_windows(self,
                          window_indices: list[int]) -> AggregationResult:
        """Run one aggregation round over several windows at once."""
        inputs: list[RouterWindowInput] = []
        for window_index in sorted(window_indices):
            inputs.extend(self.gather_window(window_index))
        return self.prove_round(window_indices, inputs)

    def prove_round(self, window_indices: list[int],
                    inputs: list[RouterWindowInput]
                    ) -> AggregationResult:
        """Prove one round over pre-gathered inputs and commit it.

        State, chain, and the aggregated-window set change only after
        the proof exists — a failed round leaves the service exactly as
        it was.  A round over no windows, or over inputs that name one
        (router, window) pair twice, is refused before any proving: the
        first pays the fixed proving cost for nothing, and the chain
        verifier would reject the second and every round after it.

        A round over exactly one window that raises
        :class:`~repro.errors.GuestAbort` quarantines that window before
        re-raising: the same bytes always abort the same way, so there
        is nothing to retry.  A proven round clears the quarantine of
        every window it consumed.
        """
        if not window_indices or not inputs:
            raise ConfigurationError("no windows to aggregate")
        require_distinct_windows(
            f"round over windows {sorted(window_indices)}",
            [(i.router_id, i.window_index) for i in inputs])
        # The round headers must name exactly the windows a round
        # consumed: restore() rebuilds the aggregated set from them.
        carried = {i.window_index for i in inputs}
        uncarried = sorted(set(window_indices) - carried)
        if uncarried:
            raise ConfigurationError(
                f"no input carries window(s) {uncarried}")
        for window_index in window_indices:
            if window_index in self._aggregated_windows:
                raise ProofError(
                    f"window {window_index} was already aggregated")
        prev_receipt = self.chain.latest_receipt if len(self.chain) \
            else None
        try:
            result = self._aggregator.aggregate(self.state, inputs,
                                                prev_receipt)
        except GuestAbort as exc:
            if len(window_indices) == 1:
                self.quarantine(window_indices[0],
                                f"{type(exc).__name__}: {exc}")
            raise
        # Commit the round only after the proof exists.  The journal
        # says which windows it consumed.
        consumed = sorted(result.windows)
        for window_index in consumed:
            self._quarantined.pop(window_index, None)
        with self._commit_lock:
            self.state = result.new_state
            if self.retain_history:
                self._history[result.round] = result.new_state
            self.chain.append(ChainLink(round=result.round,
                                        receipt=result.receipt))
        self._aggregated_windows.update(consumed)
        self.last_prove_info = result.info
        registry = obs.registry()
        registry.gauge(obs_names.SERVICE_FLOWS).set(
            len(result.new_state))
        registry.gauge(obs_names.SERVICE_ROUNDS).set(len(self.chain))
        logger.info(
            "round %d proven: windows=%s records=%d flows=%d root=%s…",
            result.round, consumed, result.record_count,
            len(result.new_state), result.new_root.short())
        if self.auto_checkpoint:
            self.checkpoint()
        return result

    def aggregate_all_committed(self) -> list[AggregationResult]:
        """Aggregate every :meth:`pending_windows` window, one round
        each, in commit order.

        A window whose round aborts in the guest is quarantined (see
        :meth:`prove_round`) and skipped, so one tampered window cannot
        stop the chain; every other error propagates.
        """
        results = []
        for window_index in self.pending_windows():
            try:
                results.append(self.aggregate_window(window_index))
            except GuestAbort:
                continue
        return results

    # -- queries -------------------------------------------------------------------

    def answer_query(self, sql: str,
                     round_index: int | None = None,
                     use_cache: bool = True) -> QueryResponse:
        """Prove ``sql`` over an aggregation state (§4.2).

        By default queries run against the latest round.  With
        ``retain_history=True`` the service keeps every round's state,
        and ``round_index`` proves the query against that *historical*
        root — a client auditing round ``n`` verifies the response
        against round ``n``'s receipt in the chain.

        Proving is deterministic, so identical (sql, round, root)
        triples yield bit-identical receipts — the service caches and
        replays them unless ``use_cache=False``.  The committed root is
        part of the key because a round *index* alone is not stable
        identity: after a restore or re-aggregation the same index can
        commit a different root, and a cache keyed on (sql, round)
        would replay a response whose receipt binds the stale state.
        """
        effective_round, committed_root = \
            self.resolve_query_round(round_index)
        if use_cache:
            cached = self.query_cache.get(sql, effective_round,
                                          committed_root)
            if cached is not None:
                return cached
        state, receipt = self.query_state(round_index)
        response, info = self._query_prover.prove_query(
            sql, state, receipt)
        self.last_prove_info = info
        self.query_cache.put(response)
        logger.info(
            "query proven: %r round=%d matched=%d/%d cycles=%d",
            sql, response.round, response.matched, response.scanned,
            info.stats.total_cycles)
        return response

    def prove_queries(self, sqls: list[str],
                      round_index: int | None = None) -> list[Any]:
        """Prove distinct ``sqls`` over one round through one shared
        partition scan of the engine (the query service's batches).

        Returns one entry per query, in order: its
        :class:`QueryResponse`, or the exception that query died with;
        a partition failure raises for all of them.  Nothing is cached
        here: the caller files the answers.
        """
        state, receipt = self.query_state(round_index)
        if len(state) <= 1:
            # A 1-entry state cannot be partitioned: one scan each.
            outcomes: list[Any] = []
            for sql in sqls:
                try:
                    outcomes.append(self._query_prover.prove_query(
                        sql, state, receipt)[0])
                except Exception as exc:
                    outcomes.append(exc)
            return outcomes
        outcomes = self._query_prover.prove_queries_partitioned(
            sqls, state, receipt,
            self.query_partitions or DEFAULT_BATCH_PARTITIONS)
        return [outcome if isinstance(outcome, Exception)
                else outcome[0] for outcome in outcomes]

    def resolve_query_round(self, round_index: int | None = None
                            ) -> tuple[int, Digest]:
        """Validate a query round; return ``(round, committed_root)``.

        ``None`` means the latest proven round.  Raises the typed
        errors the wire protocol maps — :class:`ChainError` when
        nothing is proven yet, :class:`ProofError` for an out-of-range
        round — so the query service can reject bad requests at
        admission, before any proving resource is spent.
        """
        # ChainError (a ProofError) rather than the bare IndexError a
        # naive chain access would give: callers and the wire error
        # table can tell "nothing proven yet" apart from a server bug.
        if len(self.chain) == 0:
            raise ChainError(
                "no aggregation round has been proven yet; run "
                "aggregate_windows() (or run-round) before querying")
        if round_index is not None \
                and not 0 <= round_index < len(self.chain):
            raise ProofError(
                f"round {round_index} does not exist; the chain holds "
                f"{len(self.chain)} round(s)")
        effective_round = round_index if round_index is not None \
            else (len(self.chain) - 1)
        return effective_round, self.chain[effective_round].header.new_root

    def query_state(self, round_index: int | None = None):
        """The ``(state, aggregation receipt)`` a query proves against.

        Shared by :meth:`answer_query` and :meth:`prove_queries` —
        both must bind a query to exactly the state the chain's receipt
        attests.  Historical rounds need ``retain_history=True``; note
        the *cache* path deliberately does not require it (a cached historical answer replays fine
        without the retained state), which is why this is separate
        from :meth:`resolve_query_round`.  The latest round, named or
        not, is always the service's own state.
        """
        with self._commit_lock:
            effective_round, _ = self.resolve_query_round(round_index)
            if effective_round == len(self.chain) - 1:
                return self.state, self.chain.latest.receipt
        historical = self._history.get(round_index)
        if historical is None:
            raise ProofError(
                f"no retained state for round {round_index}; "
                "construct the service with retain_history=True")
        return historical, self.chain[effective_round].receipt

    def estimate_query(self, sql: str):
        """Predict the proving cost of ``sql`` without proving it
        (§7 "Query complexity" — admission control / pricing)."""
        from .planner import estimate_query_cost
        return estimate_query_cost(self, sql)

    # -- checkpoint / recovery ---------------------------------------------------

    def checkpoint(self, name: str = DEFAULT_CHECKPOINT) -> Digest:
        """Persist a crash-safe snapshot of the proven state.

        The snapshot holds everything a restarted prover needs to resume
        *without* re-proving from genesis: the full receipt chain, the
        CLog entries (in slot order, so the Merkle map rebuilds
        bit-identically).  The aggregated-window set is not a field:
        restore reads it off the chain's round headers.  It contains
        only *proven* artifacts — the raw logs stay in the store, and
        nothing in the snapshot is trusted on restore until the latest
        receipt re-verifies (see :meth:`restore`).

        Returns the committed root the snapshot captures.
        """
        payload = {
            "version": CHECKPOINT_VERSION,
            "state_round": self.state.round,
            "chain": [link.to_wire() for link in self.chain],
            "entries": [entry.to_wire()
                        for entry in self.state.entries_in_slot_order()],
        }
        counter = obs.registry().counter(obs_names.SERVICE_CHECKPOINTS,
                                         ("outcome",))
        try:
            self.store.put_checkpoint(name, encode(payload))
        except ReproError:
            counter.inc(outcome="err")
            raise
        counter.inc(outcome="ok")
        logger.info("checkpoint %r written: rounds=%d flows=%d root=%s…",
                    name, len(self.chain), len(self.state),
                    self.state.root.short())
        return self.state.root

    def restore(self, name: str = DEFAULT_CHECKPOINT) -> bool:
        """Load a snapshot, verify it, and adopt it — or refuse.

        Returns ``False`` when no checkpoint exists under ``name`` (a
        cold start).  On success the service answers queries exactly as
        the pre-crash instance did.  A snapshot is **never accepted on
        faith**: the chain must link round-by-round, the latest
        receipt must re-verify against the trusted aggregation guest
        image ids, and the restored entries must recompute the root and
        size that receipt's journal commits.  Any failure raises
        :class:`~repro.errors.CheckpointError` and leaves the service
        untouched.
        """
        if len(self.chain) or len(self.state) \
                or self._aggregated_windows:
            raise CheckpointError(
                "restore() requires a fresh service; this one has "
                "already aggregated")
        counter = obs.registry().counter(obs_names.SERVICE_RESTORES,
                                         ("outcome",))
        try:
            blob = self.store.get_checkpoint(name)
            if blob is None:
                return False
            chain, state, windows = self._decode_checkpoint(blob)
            self._verify_snapshot(chain, state)
        except CheckpointError:
            counter.inc(outcome="err")
            raise
        self.chain = chain
        self.state = state
        self._aggregated_windows = windows
        self.query_cache.clear()
        if self.retain_history and len(chain):
            # Only the latest round's state survives a crash; older
            # rounds need re-aggregation (retain_history is advisory).
            self._history = {len(chain) - 1: state}
        registry = obs.registry()
        registry.gauge(obs_names.SERVICE_FLOWS).set(len(state))
        registry.gauge(obs_names.SERVICE_ROUNDS).set(len(chain))
        counter.inc(outcome="ok")
        logger.info(
            "restored checkpoint %r: rounds=%d flows=%d windows=%d "
            "root=%s…", name, len(chain), len(state), len(windows),
            state.root.short())
        return True

    def _decode_checkpoint(self, blob: bytes
                           ) -> tuple[AggregationChain, CLogState,
                                      set[int]]:
        try:
            payload = decode(blob)
        except ReproError as exc:
            raise CheckpointError(
                f"checkpoint does not decode: {exc}") from exc
        if not isinstance(payload, dict):
            raise CheckpointError("checkpoint payload is not a dict")
        if payload.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version "
                f"{payload.get('version')!r} (expected "
                f"{CHECKPOINT_VERSION})")
        try:
            chain = AggregationChain()
            for wire in payload["chain"]:
                # append() re-validates round numbering and prev_root
                # linkage, so a spliced or reordered chain is rejected
                # here before any crypto runs.
                chain.append(ChainLink.from_wire(wire))
            state = CLogState()
            for wire in payload["entries"]:
                state.set_entry(CLogEntry.from_wire(wire))
            state.round = payload["state_round"]
        except (ReproError, KeyError, TypeError) as exc:
            raise CheckpointError(
                f"malformed checkpoint: {exc}") from exc
        # The aggregated set is what the round headers consumed (any
        # ``aggregated_windows`` key an older writer left is ignored).
        windows = {window for link in chain
                   for _, window in link.header.consumed}
        return chain, state, windows

    def _verify_snapshot(self, chain: AggregationChain,
                         state: CLogState) -> None:
        if len(chain) == 0:
            if len(state):
                raise CheckpointError(
                    "checkpoint holds entries but no proven round")
            return
        # The latest receipt must name a trusted round image *and*
        # verify against it — anything else rejects the checkpoint.
        # Root and size are then read off its verified journal.
        latest = chain.latest
        image_id = latest.receipt.claim.image_id
        if image_id not in ROUND_IMAGE_IDS:
            raise CheckpointError(
                f"latest receipt image {image_id.short()}… is not one of "
                f"the trusted image ids")
        try:
            Verifier().verify(latest.receipt, image_id)
        except ReproError as exc:
            raise CheckpointError(
                f"latest receipt failed verification: {exc}") from exc
        header = latest.header
        if (state.root, len(state)) != (header.new_root, header.size):
            raise CheckpointError(
                f"restored entries recompute root {state.root.short()}… "
                f"over {len(state)} entries but round {latest.round} "
                f"committed {header.new_root.short()}… over "
                f"{header.size} — snapshot rejected")
