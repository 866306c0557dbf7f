"""The service provider's prover (Figure 1, left).

Owns the authoritative CLog state and the proof chain; pulls committed
router windows from the shared store, runs aggregation rounds, and
answers client queries with proofs.  Aggregation is decoupled from both
logging and queries (§1, §4): it reads only *already committed* windows
and can run off-path, at whatever cadence resources allow.
"""

from __future__ import annotations

import logging

from ..commitments import BulletinBoard
from ..errors import (
    ChainError,
    CheckpointError,
    ConfigurationError,
    MissingCommitment,
    ProofError,
    ReproError,
)
from ..hashing import Digest
from ..obs import names as obs_names
from ..obs import runtime as obs
from ..qserve.cache import QueryResultCache
from ..serialization import decode, encode
from ..storage.backend import LogStore
from ..zkvm import ProveInfo, ProverOpts, Receipt, Verifier
from .aggregation import (
    AggregationResult,
    Aggregator,
    RouterWindowInput,
)
from .chain import ROUND_IMAGE_IDS, AggregationChain, ChainLink
from .clog import CLogEntry, CLogState
from .policy import DEFAULT_POLICY, AggregationPolicy
from .query_proof import QueryProver, QueryResponse, env_query_partitions

logger = logging.getLogger(__name__)

#: Version tag inside every checkpoint payload; bump on layout changes.
CHECKPOINT_VERSION = 1

#: Default checkpoint slot used by auto-checkpointing and restore.
DEFAULT_CHECKPOINT = "prover-latest"


class ProverService:
    """Aggregates committed telemetry and answers verifiable queries."""

    def __init__(self, store: LogStore, bulletin: BulletinBoard,
                 policy: AggregationPolicy = DEFAULT_POLICY,
                 prover_opts: ProverOpts | None = None,
                 strategy: str = "update",
                 retain_history: bool = False,
                 auto_checkpoint: bool = False,
                 checkpoint_name: str = DEFAULT_CHECKPOINT,
                 query_cache_size: int = 256,
                 query_cache_persist: bool = False,
                 pool_backend: str | None = None,
                 prove_workers: int | None = None,
                 prove_nodes: Any = None,
                 query_partitions: int | None = None,
                 stream: bool | None = None,
                 stream_crossover: bool = False) -> None:
        if query_cache_size < 1:
            raise ConfigurationError("query_cache_size must be >= 1")
        if query_partitions is not None and query_partitions < 1:
            raise ConfigurationError("query_partitions must be >= 1")
        if stream and strategy != "update":
            raise ConfigurationError(
                "streaming composition requires the 'update' strategy "
                "(rebuild rounds have no delta decomposition)")
        self.store = store
        self.bulletin = bulletin
        self.policy = policy
        self.state = CLogState()
        self.chain = AggregationChain()
        self.retain_history = retain_history
        self._history: dict[int, CLogState] = {}
        # The engine is opt-in and *explicit*: ``serve --prove-workers``
        # or ProverOpts fields, never ambient environment — a default
        # service must prove exactly like the seed (the obs contract
        # pins its telemetry namespace).
        self.engine = self._build_engine(prover_opts, pool_backend,
                                         prove_workers, query_partitions,
                                         stream, prove_nodes)
        prover = self.engine.prover(prover_opts) \
            if self.engine is not None else None
        # REPRO_QUERY_PARTITIONS only tunes a service that *already*
        # opted into an engine — the env var alone must not change how
        # a default service proves.
        if query_partitions is None and self.engine is not None:
            query_partitions = env_query_partitions()
        self.query_partitions = query_partitions
        # Same gating for REPRO_STREAM: an env var alone never changes
        # how a default (engine-less) service proves.
        if stream is None and self.engine is not None:
            from ..stream.pipeline import env_stream
            stream = env_stream() and strategy == "update"
        # One round prover — every strategy shares ``aggregate(state,
        # windows, prev_receipt)``; ``_streamer`` names the same object
        # when (and only when) it can hold a round open.
        self._streamer = None
        if stream:
            from ..stream import StreamingAggregator
            self._aggregator = self._streamer = StreamingAggregator(
                policy, prover_opts, engine=self.engine,
                crossover=stream_crossover)
        elif strategy == "update":
            self._aggregator = Aggregator(policy, prover_opts,
                                          prover=prover)
        elif strategy == "rebuild":
            from .rebuild import RebuildAggregator
            self._aggregator = RebuildAggregator(policy, prover_opts,
                                                 prover=prover)
        else:
            raise ProofError(
                f"unknown aggregation strategy {strategy!r}; "
                "expected 'update' or 'rebuild'")
        self.strategy = strategy
        self.auto_checkpoint = auto_checkpoint
        self.checkpoint_name = checkpoint_name
        self.query_cache_size = query_cache_size
        self._query_prover = QueryProver(
            prover_opts, prover=prover, engine=self.engine,
            num_partitions=self.query_partitions)
        self._aggregated_windows: set[int] = set()
        # The tiered result cache replaced the PR 3 OrderedDict: that
        # dict was mutated unlocked by the server's concurrent executor
        # threads.  Persistence is opt-in (``query_cache_persist``) —
        # a default service keeps the seed's memory-only behaviour.
        self.query_cache = QueryResultCache(
            store=self.store if query_cache_persist else None,
            memory_entries=query_cache_size)
        self.last_prove_info: ProveInfo | None = None

    def _build_engine(self, prover_opts: ProverOpts | None,
                      pool_backend: str | None,
                      prove_workers: int | None,
                      query_partitions: int | None = None,
                      stream: bool | None = None,
                      prove_nodes: Any = None):
        backend = pool_backend
        if backend is None and prover_opts is not None:
            backend = prover_opts.pool_backend
        workers = prove_workers
        if workers is None and prover_opts is not None:
            workers = prover_opts.prove_workers
        if backend is None and prove_nodes:
            # An explicit node list opts into the cluster backend.
            backend = "remote"
        if backend is None and workers is None \
                and query_partitions is None and not stream:
            return None
        if workers is not None and workers < 1:
            raise ConfigurationError("prove_workers must be >= 1")
        if backend is None and workers is None:
            # --query-partitions (or --stream) alone: concurrency and
            # the receipt cache are wanted but nobody sized a worker
            # pool, so stay in-process with threads rather than forking.
            backend = "thread"
        from ..engine import ProvingEngine
        # The receipt cache's persistent tier rides the store's
        # checkpoint KV, so identical proofs replay across restarts —
        # and, for the remote backend, doubles as the shared tier any
        # worker on the same store can serve partitions from.
        return ProvingEngine(
            policy=self.policy,
            prover_opts=prover_opts or ProverOpts.groth16(),
            backend=backend or "process",
            max_workers=workers,
            store=self.store,
            nodes=prove_nodes)

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

        A window stays pending until the round consuming it is *proven*
        — in stream mode an ingested (delta-proven but unclosed) window
        is still pending, because no chained receipt covers it yet.
        """
        return [window for window in self.bulletin.windows()
                if window not in self._aggregated_windows]

    def status(self) -> dict:
        """Operational snapshot (the wire health endpoint's body).

        ``pending_windows`` is the backlog: committed windows no proven
        round has consumed.  Health checks need it to tell a prover
        that is *catching up* (pending shrinking or empty) from one
        that *stalled* (pending growing while rounds stand still) —
        before it was added, both looked identical here.
        """
        return {
            "rounds": len(self.chain),
            "flows": len(self.state),
            "strategy": self.strategy,
            "aggregated_windows": sorted(self._aggregated_windows),
            "committed_windows": self.bulletin.windows(),
            "pending_windows": self.pending_windows(),
            "cached_queries":
                self.query_cache.stats()["memory_entries"],
            "query_cache_max": self.query_cache_size,
            "query_cache": self.query_cache.stats(),
            "auto_checkpoint": self.auto_checkpoint,
            "query_partitions": self.query_partitions,
            "stream": self.stream_status(),
            "latest_root": (self.chain.latest.new_root.hex()
                            if len(self.chain) else None),
            "engine": (self.engine.snapshot()
                       if self.engine is not None else None),
        }

    def stream_status(self) -> dict | None:
        """Streaming-mode sub-status, or ``None`` when not enabled."""
        if self._streamer is None:
            return None
        return {
            "open_round": self._streamer.open_round,
            "pending_deltas": self._streamer.pending_deltas,
            "frontier_nodes": len(self._streamer.frontier),
            "ingested_windows": sorted(self._open_round_windows()),
        }

    # -- aggregation ------------------------------------------------------------

    def gather_window(self, window_index: int,
                      skip_uncommitted: bool = False
                      ) -> list[RouterWindowInput]:
        """Collect every router's committed blobs for one window.

        Routers with stored rows but no published commitment raise
        :class:`~repro.errors.MissingCommitment` — uncommitted data must
        never enter an aggregation round.  With ``skip_uncommitted=True``
        such routers are silently left out instead (the daemon's
        degrade-past-the-deadline path); the round then covers only the
        routers that did commit, which is still fully sound — it just
        aggregates less.
        """
        inputs = []
        for router_id in self.store.router_ids():
            if window_index not in self.store.window_indices(router_id):
                continue
            if skip_uncommitted:
                commitment = self.bulletin.try_get(router_id,
                                                   window_index)
                if commitment is None:
                    logger.warning(
                        "window %d: skipping router %r (no commitment "
                        "published)", window_index, router_id)
                    continue
            else:
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

        The gather/prove split lets the supervised daemon collect each
        window separately (classifying per-window faults, skipping late
        routers) and still land everything in one proof.  State, chain,
        and the aggregated-window set change only after the proof
        exists — a failed round leaves the service exactly as it was.
        In stream mode an open round absorbs ``inputs`` and closes, so
        the proven round also covers every previously ingested window.
        """
        for window_index in window_indices:
            if window_index in self._aggregated_windows:
                raise ProofError(
                    f"window {window_index} was already aggregated")
        prev_receipt = self.chain.latest_receipt if len(self.chain) \
            else None
        result = self._aggregator.aggregate(self.state, inputs,
                                            prev_receipt)
        # Commit the round only after the proof exists.  The journal
        # says which windows it consumed — all of them, including any a
        # streamed round ingested before this call.
        consumed = sorted(
            set(window_indices)
            | {window["w"] for window in result.journal_header["windows"]})
        self.state = result.new_state
        if self.retain_history:
            self._history[result.round] = result.new_state
        self.chain.append(ChainLink(
            round=result.round,
            receipt=result.receipt,
            new_root=result.new_root,
            size=len(result.new_state),
            record_count=result.record_count,
        ))
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

    # -- streaming ---------------------------------------------------------------

    def ingest_window(self, window_index: int,
                      skip_uncommitted: bool = False) -> int:
        """Stream mode: prove a delta for one committed window *now*.

        The window joins the open round's fold frontier; it is **not**
        yet covered by a chained receipt (it stays pending until
        :meth:`close_stream_round`), but its delta proof is done — the
        round boundary only pays the final folds.  Returns the number
        of deltas ingested into the open round so far.
        """
        if self._streamer is None:
            raise ConfigurationError(
                "ingest_window() requires stream mode (stream=True or "
                "REPRO_STREAM=1 on an engine-backed service)")
        if window_index in self._aggregated_windows:
            raise ProofError(
                f"window {window_index} was already aggregated")
        inputs = self.gather_window(window_index, skip_uncommitted)
        prev_receipt = self.chain.latest_receipt if len(self.chain) \
            else None
        with self._streamer.guarded():
            self._streamer.ingest(self.state, inputs, prev_receipt)
        if self.auto_checkpoint:
            # Persist the frontier: a crash between here and the round
            # boundary resumes without re-proving this delta.
            self.checkpoint()
        return self._streamer.pending_deltas

    def close_stream_round(self) -> AggregationResult:
        """Close the open streamed round and commit its final receipt."""
        if self._streamer is None or self._streamer.open_round is None:
            raise ChainError("no streaming round is open")
        return self.prove_round([], [])

    def aggregate_all_committed(self) -> list[AggregationResult]:
        """Aggregate every committed-but-unaggregated window, in order.

        Windows already ingested into an open streamed round are not
        gathered again: the first round proven here closes over them,
        and if nothing else is pending the open round is closed as is.
        """
        results = []
        ingested = self._open_round_windows()
        for window_index in self.bulletin.windows():
            if window_index not in self._aggregated_windows \
                    and window_index not in ingested:
                results.append(self.aggregate_window(window_index))
        if self._streamer is not None \
                and self._streamer.open_round is not None:
            results.append(self.close_stream_round())
        return results

    def _open_round_windows(self) -> set[int]:
        if self._streamer is None:
            return set()
        return {window for _, window in self._streamer.open_windows}

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
                obs.registry().counter(obs_names.SERVICE_QUERY_CACHE,
                                       ("result",)).inc(result="hit")
                return cached
        obs.registry().counter(obs_names.SERVICE_QUERY_CACHE,
                               ("result",)).inc(result="miss")
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
                "aggregate_windows() (or start the daemon) before "
                "querying")
        if round_index is not None \
                and not 0 <= round_index < len(self.chain):
            raise ProofError(
                f"round {round_index} does not exist; the chain holds "
                f"{len(self.chain)} round(s)")
        effective_round = round_index if round_index is not None \
            else (len(self.chain) - 1)
        return effective_round, self.chain[effective_round].new_root

    def query_state(self, round_index: int | None = None):
        """The ``(state, aggregation receipt)`` a query proves against.

        Shared by :meth:`answer_query` and the batched prover in
        :mod:`repro.qserve` — both must bind a query to exactly the
        state the chain's receipt attests.  Historical rounds need
        ``retain_history=True``; note the *cache* path deliberately
        does not require it (a cached historical answer replays fine
        without the retained state), which is why this is separate
        from :meth:`resolve_query_round`.
        """
        effective_round, _ = self.resolve_query_round(round_index)
        if round_index is None:
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

    def checkpoint(self, name: str | None = None) -> Digest:
        """Persist a crash-safe snapshot of the proven state.

        The snapshot holds everything a restarted prover needs to resume
        *without* re-proving from genesis: the full receipt chain, the
        CLog entries (in slot order, so the Merkle map rebuilds
        bit-identically), and the aggregated-window set.  It contains
        only *proven* artifacts — the raw logs stay in the store, and
        nothing in the snapshot is trusted on restore until the latest
        receipt re-verifies (see :meth:`restore`).

        Returns the committed root the snapshot captures.
        """
        name = name or self.checkpoint_name
        payload = {
            "version": CHECKPOINT_VERSION,
            "strategy": self.strategy,
            "state_round": self.state.round,
            "aggregated_windows": sorted(self._aggregated_windows),
            "chain": [link.to_wire() for link in self.chain],
            "entries": [entry.to_wire()
                        for entry in self.state.entries_in_slot_order()],
        }
        if self._streamer is not None \
                and self._streamer.open_round is not None:
            # Persist the open round's fold frontier (log-many receipts)
            # so recovery replays only *unfolded* deltas; the delta
            # proofs themselves also sit in the receipt cache's
            # persistent tier, so even a dropped frontier re-proves
            # nothing — this just skips the cache lookups and re-folds.
            work = self._streamer.work_state
            payload["stream"] = {
                "round": self._streamer.open_round,
                "nodes": [node.to_wire()
                          for node in self._streamer.frontier.nodes],
                "entries": [entry.to_wire()
                            for entry in work.entries_in_slot_order()],
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

    def restore(self, name: str | None = None) -> bool:
        """Load a snapshot, verify it, and adopt it — or refuse.

        Returns ``False`` when no checkpoint exists under ``name`` (a
        cold start).  On success the service answers queries exactly as
        the pre-crash instance did.  A snapshot is **never accepted on
        faith**: the chain must link round-by-round, the restored
        entries must recompute the committed Merkle root, and the
        latest receipt must re-verify against the trusted aggregation
        guest image ids.  Any failure raises
        :class:`~repro.errors.CheckpointError` and leaves the service
        untouched.
        """
        if len(self.chain) or len(self.state) \
                or self._aggregated_windows:
            raise CheckpointError(
                "restore() requires a fresh service; this one has "
                "already aggregated")
        name = name or self.checkpoint_name
        counter = obs.registry().counter(obs_names.SERVICE_RESTORES,
                                         ("outcome",))
        try:
            blob = self.store.get_checkpoint(name)
            if blob is None:
                return False
            chain, state, windows, payload = \
                self._decode_checkpoint(blob)
            self._verify_snapshot(chain, state)
            stream_resume = self._verify_stream_section(
                payload.get("stream"), state)
        except CheckpointError:
            counter.inc(outcome="err")
            raise
        self.chain = chain
        self.state = state
        self._aggregated_windows = windows
        self.query_cache.clear()
        if stream_resume is not None:
            nodes, work = stream_resume
            self._streamer.resume(state.round, work, nodes)
            logger.info(
                "resumed streaming round %d: %d frontier node(s), "
                "windows=%s", state.round, len(nodes),
                sorted(self._open_round_windows()))
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
                                      set[int], dict]:
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
            windows = set(payload["aggregated_windows"])
        except (ReproError, KeyError, TypeError) as exc:
            raise CheckpointError(
                f"malformed checkpoint: {exc}") from exc
        return chain, state, windows, payload

    def _verify_stream_section(self, section, state: CLogState):
        """Check a persisted fold frontier before resuming it.

        Nothing here is taken on faith either: every frontier receipt
        must re-verify against the delta/fold image ids, the chain of
        (root, size, depth) continuity must hold from the restored
        round state through every node, and the rebuilt mid-round work
        state must recompute the last node's committed root.  Returns
        ``(nodes, work state)``, or ``None`` when there is nothing to
        resume (including a streamed checkpoint restored by a
        non-streaming service — the deltas stay pending and
        re-aggregate normally).
        """
        if section is None:
            return None
        if self._streamer is None:
            logger.warning(
                "checkpoint carries a streaming frontier but stream "
                "mode is off; dropping it (windows stay pending)")
            return None
        from ..stream.frontier import FrontierNode
        from .guest_programs import delta_aggregation_guest, fold_guest
        try:
            round_index = section["round"]
            work = CLogState()
            for wire in section["entries"]:
                work.set_entry(CLogEntry.from_wire(wire))
            node_wires = section["nodes"]
        except (ReproError, KeyError, TypeError) as exc:
            raise CheckpointError(
                f"malformed streaming section: {exc}") from exc
        if round_index != state.round:
            raise CheckpointError(
                f"streaming section is for round {round_index} but the "
                f"restored state is at round {state.round}")
        if not node_wires:
            return None
        verifier = Verifier()
        nodes: list[FrontierNode] = []
        for wire in node_wires:
            try:
                receipt = Receipt.from_wire(wire["receipt"])
            except (ReproError, KeyError, TypeError) as exc:
                raise CheckpointError(
                    f"malformed frontier receipt: {exc}") from exc
            _verify_trusted(verifier, receipt,
                            (delta_aggregation_guest.image_id,
                             fold_guest.image_id), "frontier")
            header = next(receipt.journal.values(), None)
            if not isinstance(header, dict) or "seq" not in header:
                raise CheckpointError(
                    "frontier receipt journal is not a streamed header")
            nodes.append(FrontierNode.from_wire(wire, header))
        expected = (state.root, len(state), state.depth)
        expected_seq = 0
        previous_height: int | None = None
        for node in nodes:
            header = node.header
            if header.get("round") != round_index:
                raise CheckpointError(
                    "frontier node proves a different round")
            if (header.get("prev_root"), header.get("prev_size"),
                    header.get("prev_depth")) != expected:
                raise CheckpointError(
                    "frontier nodes are not contiguous with the "
                    "restored round state")
            if header.get("seq", [None])[0] != expected_seq \
                    or node.seq_lo != expected_seq \
                    or node.seq_hi != header["seq"][1]:
                raise CheckpointError(
                    "frontier node sequence ranges do not abut")
            if previous_height is not None \
                    and node.height >= previous_height:
                raise CheckpointError(
                    "frontier node heights must strictly decrease")
            previous_height = node.height
            expected = (header["new_root"], header["size"],
                        header["depth"])
            expected_seq = header["seq"][1] + 1
        if nodes[-1].header["new_root"] != work.root \
                or nodes[-1].header["size"] != len(work):
            raise CheckpointError(
                f"restored mid-round entries recompute root "
                f"{work.root.short()}… but the frontier committed "
                f"{nodes[-1].header['new_root'].short()}… — streaming "
                f"section rejected")
        return nodes, work

    def _verify_snapshot(self, chain: AggregationChain,
                         state: CLogState) -> None:
        if len(chain) == 0:
            if len(state):
                raise CheckpointError(
                    "checkpoint holds entries but no proven round")
            return
        latest = chain.latest
        if state.root != latest.new_root:
            raise CheckpointError(
                f"restored entries recompute root "
                f"{state.root.short()}… but the chain committed "
                f"{latest.new_root.short()}… — snapshot rejected")
        if len(state) != latest.size:
            raise CheckpointError(
                f"restored state holds {len(state)} entries but round "
                f"{latest.round} committed {latest.size}")
        _verify_trusted(Verifier(), latest.receipt, ROUND_IMAGE_IDS,
                        "latest")


def _verify_trusted(verifier: Verifier, receipt,
                    trusted: tuple[Digest, ...], what: str) -> None:
    """A restored receipt must name a trusted image *and* verify
    against it — anything else rejects the checkpoint."""
    image_id = receipt.claim.image_id
    if image_id not in trusted:
        raise CheckpointError(
            f"{what} receipt image {image_id.short()}… is not one of "
            f"the trusted image ids")
    try:
        verifier.verify(receipt, image_id)
    except ReproError as exc:
        raise CheckpointError(
            f"{what} receipt failed verification: {exc}") from exc
