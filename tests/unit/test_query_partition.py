"""Unit tests for partitioned query proving.

Covers the query fan-out guest pair (partition + merge), the
aligned-chunk layout, the host-side
:meth:`QueryProver.prove_queries_partitioned` pipeline through the
engine (and its length-1 case, ``prove_query_partitioned``), and the
soundness boundaries: a partial result only counts when it binds the
committed aggregation root through its subtree path, and a merge only
counts when it folds every partition exactly once from the trusted
partition image and selects the frame that proves *its* query.
"""

import pytest

from repro.core.aggregation import make_receipt_binding
from repro.core.guest_programs import (
    query_guest,
    query_merge_guest,
    query_partition_guest,
)
from repro.core.planner import partition_layout
from repro.core.prover_service import ProverService
from repro.core.query_proof import (
    QueryProver,
    QueryResponse,
    env_query_partitions,
)
from repro.core.verifier_client import VerifierClient
from repro.engine import ProvingEngine
from repro.errors import (
    ChainError,
    ConfigurationError,
    GuestAbort,
    ProofError,
    VerificationError,
)
from repro.serialization import decode_stream, encode
from repro.zkvm import ExecutorEnvBuilder, Prover, ProverOpts
from repro.zkvm.recursion import resolve

from ..conftest import make_committed_records


@pytest.fixture(scope="module")
def proven():
    """One aggregated round over 60 records, plus a thread engine."""
    store, bulletin, _ = make_committed_records(60, seed=13)
    service = ProverService(store, bulletin)
    service.aggregate_window(0)
    engine = ProvingEngine(prover_opts=ProverOpts.groth16(),
                           backend="thread", max_workers=2)
    yield service, bulletin, engine
    engine.close()


class TestPartitionLayout:
    def test_exact_power_of_two(self):
        assert partition_layout(64, 4) == (4, 4)

    def test_ragged_last_chunk(self):
        chunk_po2, count = partition_layout(60, 4)
        assert (chunk_po2, count) == (4, 4)
        # Partitions tile [0, 60): three full chunks + one of 12.
        assert 60 - (3 << chunk_po2) == 12

    def test_more_partitions_than_entries(self):
        assert partition_layout(3, 8) == (0, 3)

    def test_single_partition_covers_everything(self):
        chunk_po2, count = partition_layout(60, 1)
        assert count == 1
        assert (1 << chunk_po2) >= 60

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            partition_layout(0, 4)
        with pytest.raises(ConfigurationError):
            partition_layout(10, 0)


class TestEnvKnob:
    def test_unset_and_blank(self, monkeypatch):
        monkeypatch.delenv("REPRO_QUERY_PARTITIONS", raising=False)
        assert env_query_partitions() is None
        monkeypatch.setenv("REPRO_QUERY_PARTITIONS", "  ")
        assert env_query_partitions() is None

    def test_parses_positive(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUERY_PARTITIONS", "4")
        assert env_query_partitions() == 4
        monkeypatch.setenv("REPRO_QUERY_PARTITIONS", "0")
        assert env_query_partitions() is None

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUERY_PARTITIONS", "many")
        with pytest.raises(ConfigurationError, match="integer"):
            env_query_partitions()

    def test_env_ignored_without_engine(self, monkeypatch):
        """The env var tunes an engine-backed service; it must never
        conjure an engine for a default one."""
        monkeypatch.setenv("REPRO_QUERY_PARTITIONS", "4")
        store, bulletin, _ = make_committed_records(12, seed=3)
        service = ProverService(store, bulletin)
        assert service.engine is None
        assert service.query_partitions is None

    def test_env_tunes_engine_backed_service(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUERY_PARTITIONS", "3")
        store, bulletin, _ = make_committed_records(12, seed=3)
        service = ProverService(store, bulletin, pool_backend="thread",
                                prove_workers=2)
        try:
            assert service.query_partitions == 3
            assert service.status()["query_partitions"] == 3
        finally:
            service.close()


class TestQueryProverConfig:
    def test_num_partitions_validated(self):
        with pytest.raises(ConfigurationError):
            QueryProver(num_partitions=0)

    def test_partitioned_requires_engine(self, proven):
        service, _, _ = proven
        prover = QueryProver(num_partitions=4)
        with pytest.raises(ConfigurationError, match="ProvingEngine"):
            prover.prove_query_partitioned(
                "SELECT COUNT(*) FROM clogs", service.state,
                service.chain.latest.receipt)

    def test_service_validates_query_partitions(self):
        store, bulletin, _ = make_committed_records(8, seed=3)
        with pytest.raises(ConfigurationError):
            ProverService(store, bulletin, query_partitions=0)


class TestPartitionedProving:
    @pytest.mark.parametrize("partitions", [1, 2, 4, 7])
    def test_byte_identical_to_serial(self, proven, partitions):
        service, _, engine = proven
        sql = ("SELECT COUNT(*), AVG(rtt_avg_us), SUM(octets) "
               "FROM clogs WHERE hop_count >= 1")
        serial, _ = QueryProver().prove_query(
            sql, service.state, service.chain.latest.receipt)
        prover = QueryProver(engine=engine)
        response, info = prover.prove_query_partitioned(
            sql, service.state, service.chain.latest.receipt,
            num_partitions=partitions)
        assert response.receipt.journal.data == \
            serial.receipt.journal.data
        assert response.values == serial.values
        assert info.num_partitions == \
            partition_layout(len(service.state), partitions)[1]
        assert not response.receipt.claim.assumptions

    def test_verifier_accepts_merged_receipt(self, proven):
        """The unchanged client API verifies both strategies."""
        service, bulletin, engine = proven
        sql = "SELECT SUM(packets) FROM clogs GROUP BY src_net16"
        prover = QueryProver(engine=engine)
        response, _ = prover.prove_query_partitioned(
            sql, service.state, service.chain.latest.receipt, 4)
        client = VerifierClient(bulletin)
        chain = client.verify_chain(service.chain.receipts())
        verified = client.verify_query(response, chain[-1])
        assert verified.root == service.state.root
        assert response.receipt.claim.image_id == \
            query_merge_guest.image_id
        assert set(client.query_image_ids) == {
            query_guest.image_id, query_merge_guest.image_id}

    def test_verifier_rejects_untrusted_image(self, proven):
        """A bare partition receipt is NOT a query answer: its journal
        covers one slot range, so the client must refuse it outright."""
        service, bulletin, engine = proven
        sql = "SELECT COUNT(*) FROM clogs"
        prover = QueryProver(engine=engine)
        response, info = prover.prove_query_partitioned(
            sql, service.state, service.chain.latest.receipt, 4)
        partial = info.partition_infos[0].receipt
        forged = QueryResponse(
            sql=sql, labels=response.labels, values=response.values,
            matched=response.matched, scanned=response.scanned,
            round=response.round, root=response.root, receipt=partial)
        client = VerifierClient(bulletin)
        chain = client.verify_chain(service.chain.receipts())
        with pytest.raises(VerificationError,
                           match="not a trusted query program"):
            client.verify_query(forged, chain[-1])

    def test_empty_state_rejected(self, proven):
        from repro.core.clog import CLogState
        _, _, engine = proven
        service, _, _ = proven
        prover = QueryProver(engine=engine)
        with pytest.raises(ProofError, match="empty"):
            prover.prove_query_partitioned(
                "SELECT COUNT(*) FROM clogs", CLogState(),
                service.chain.latest.receipt, 2)

    def test_prove_query_dispatches_by_plan(self, proven):
        """Tiny states fall back to the full scan even when
        partitioning is configured (per-proof overhead dominates)."""
        service, _, engine = proven
        prover = QueryProver(engine=engine, num_partitions=4)
        response, info = prover.prove_query(
            "SELECT COUNT(*) FROM clogs", service.state,
            service.chain.latest.receipt)
        # 60 entries sit below the modeled crossover.
        assert response.receipt.claim.image_id == query_guest.image_id


class TestPartitionGuestAborts:
    def _partition_env(self, service, sqls, index, partitions,
                       siblings=None, start=None):
        size = len(service.state)
        chunk_po2, count = partition_layout(size, partitions)
        chunk = 1 << chunk_po2
        lo = index << chunk_po2
        hi = min(size, lo + chunk)
        entries = service.state.entries_in_slot_order()[lo:hi]
        tree = service.state.merkle_map.tree
        if siblings is None:
            siblings = list(
                tree.prove_subtree(chunk_po2, index).siblings)
        builder = ExecutorEnvBuilder()
        builder.write({
            "queries": sqls,
            "partition": index,
            "num_partitions": count,
            "chunk_po2": chunk_po2,
            "start": lo if start is None else start,
            "count": len(entries),
            "siblings": siblings,
        })
        builder.write(make_receipt_binding(service.chain.latest.receipt))
        for entry in entries:
            builder.write({"key": entry.key.pack(),
                           "payload": entry.to_payload()})
        return builder.build()

    def test_partition_journal_binds_geometry(self, proven):
        service, _, _ = proven
        sqls = ["SELECT COUNT(*) FROM clogs",
                "SELECT SUM(octets) FROM clogs"]
        info = Prover().prove(query_partition_guest, self._partition_env(
            service, sqls, 1, 4))
        header, *frames = info.receipt.journal.values()
        assert header["root"] == service.state.root
        assert header["partition"] == 1
        assert header["num_partitions"] == 4
        assert header["num_queries"] == 2
        chunk_po2, _ = partition_layout(len(service.state), 4)
        assert header["scanned"] == min(
            len(service.state) - (1 << chunk_po2), 1 << chunk_po2)
        # One frame per query, in header order, each with one state
        # per aggregate.
        assert [frame["query"] for frame in frames] == sqls
        assert all(len(frame["states"]) == 1 for frame in frames)

    def test_empty_query_list_aborts(self, proven):
        service, _, _ = proven
        with pytest.raises(GuestAbort, match="at least one query"):
            Prover().prove(query_partition_guest, self._partition_env(
                service, [], 0, 4))

    def test_tampered_sibling_path_aborts(self, proven):
        service, _, _ = proven
        tree = service.state.merkle_map.tree
        chunk_po2, _ = partition_layout(len(service.state), 4)
        siblings = list(tree.prove_subtree(chunk_po2, 0).siblings)
        siblings[0] = siblings[-1]
        with pytest.raises(GuestAbort, match="committed root"):
            Prover().prove(query_partition_guest, self._partition_env(
                service, ["SELECT COUNT(*) FROM clogs"], 0, 4,
                siblings=siblings))

    def test_misaligned_start_aborts(self, proven):
        service, _, _ = proven
        with pytest.raises(GuestAbort, match="slot alignment"):
            Prover().prove(query_partition_guest, self._partition_env(
                service, ["SELECT COUNT(*) FROM clogs"], 1, 4, start=3))


class TestMergeGuestAborts:
    SQLS = ["SELECT COUNT(*) FROM clogs",
            "SELECT SUM(octets) FROM clogs",
            "SELECT MAX(packets) FROM clogs GROUP BY src_net16"]

    def _partial(self, service, engine, sqls, partitions=2):
        """Resolved partition receipts of one fan-out over ``sqls``."""
        outcomes = QueryProver(engine=engine).prove_queries_partitioned(
            sqls, service.state, service.chain.latest.receipt,
            partitions)
        _, info = outcomes[0]
        return [resolve(p.receipt, service.chain.latest.receipt)
                for p in info.partition_infos]

    def _merge_env(self, sql, bindings, count=None, query_index=0):
        builder = ExecutorEnvBuilder()
        builder.write({"query": sql, "query_index": query_index,
                       "num_partitions": count or len(bindings)})
        for binding in bindings:
            builder.write(binding if isinstance(binding, dict)
                          else make_receipt_binding(binding))
        return builder.build()

    def _forged(self, receipt, rewrite):
        """``receipt``'s binding with its journal frames rewritten.

        The merge guest reads the journal out of the binding and only
        *assumes* the claim (resolution happens on the host, later), so
        every structural check below must fire on the journal alone.
        """
        binding = make_receipt_binding(receipt)
        frames = rewrite(list(decode_stream(binding["journal"])))
        binding["journal"] = b"".join(encode(f) for f in frames)
        return binding

    def test_every_query_of_a_fanout_merges(self, proven):
        """The positive control for the aborts below: each
        ``query_index`` selects its own frame and reproduces the
        monolithic journal."""
        service, _, engine = proven
        partials = self._partial(service, engine, self.SQLS)
        for index, sql in enumerate(self.SQLS):
            info = Prover().prove(query_merge_guest, self._merge_env(
                sql, partials, query_index=index))
            serial, _ = QueryProver().prove_query(
                sql, service.state, service.chain.latest.receipt)
            assert info.receipt.journal.data == \
                serial.receipt.journal.data

    def test_duplicate_partition_aborts(self, proven):
        service, _, engine = proven
        partials = self._partial(service, engine, self.SQLS)
        with pytest.raises(GuestAbort, match="appears twice"):
            Prover().prove(query_merge_guest, self._merge_env(
                self.SQLS[0], [partials[0], partials[0]]))

    def test_missing_partition_aborts(self, proven):
        """Dropping a slot range must not yield a 'complete' answer —
        completeness is the property the merge enforces."""
        service, _, engine = proven
        partials = self._partial(service, engine, self.SQLS)
        with pytest.raises(GuestAbort, match="partition count"):
            Prover().prove(query_merge_guest, self._merge_env(
                self.SQLS[0], [partials[0]]))

    def test_query_text_mismatch_aborts(self, proven):
        service, _, engine = proven
        partials = self._partial(service, engine, self.SQLS[:1])
        with pytest.raises(GuestAbort, match="different query"):
            Prover().prove(query_merge_guest, self._merge_env(
                "SELECT SUM(octets) FROM clogs", partials))

    def test_selected_frame_proves_a_different_query_aborts(self,
                                                            proven):
        """The right SQL at the wrong ``query_index``: the merge must
        not fold a batch-mate's partials under this query's name."""
        service, _, engine = proven
        partials = self._partial(service, engine, self.SQLS)
        with pytest.raises(GuestAbort, match="different query"):
            Prover().prove(query_merge_guest, self._merge_env(
                self.SQLS[0], partials, query_index=1))

    @pytest.mark.parametrize("query_index", [-1, 3, 99])
    def test_query_index_out_of_range_aborts(self, proven,
                                             query_index):
        service, _, engine = proven
        partials = self._partial(service, engine, self.SQLS)
        with pytest.raises(GuestAbort,
                           match="out of range|non-negative"):
            Prover().prove(query_merge_guest, self._merge_env(
                self.SQLS[0], partials, query_index=query_index))

    @pytest.mark.parametrize("rewrite", [
        lambda frames: frames[:-1],             # a frame dropped
        lambda frames: frames + [frames[-1]],   # a frame appended
        lambda frames: frames[:1],              # header only
    ], ids=["dropped", "appended", "header-only"])
    def test_frame_count_mismatch_aborts(self, proven, rewrite):
        """``1 + num_queries`` frames, exactly: a journal that says
        three queries and carries two (or four) is malformed whatever
        the selected frame holds."""
        service, _, engine = proven
        partials = self._partial(service, engine, self.SQLS)
        bindings = [self._forged(partials[0], rewrite), partials[1]]
        with pytest.raises(GuestAbort, match="frame count"):
            Prover().prove(query_merge_guest, self._merge_env(
                self.SQLS[0], bindings))

    def test_headerless_journal_aborts(self, proven):
        service, _, engine = proven
        partials = self._partial(service, engine, self.SQLS)
        bindings = [self._forged(partials[0], lambda frames: frames[1:]),
                    partials[1]]
        with pytest.raises(GuestAbort, match="no header frame"):
            Prover().prove(query_merge_guest, self._merge_env(
                self.SQLS[0], bindings))

    def test_forged_journal_never_resolves(self, proven):
        """What backs the journal-only checks above: a rewrite they
        cannot see (frames intact, one matched count inflated) still
        leaves an assumption no genuine partition receipt discharges,
        so the merge receipt stays conditional forever."""
        from repro.zkvm.recursion import resolve_all
        service, _, engine = proven
        partials = self._partial(service, engine, self.SQLS[:1])

        def inflate(frames):
            frames[1] = dict(frames[1], matched=frames[1]["matched"] + 1)
            return frames

        bindings = [self._forged(partials[0], inflate), partials[1]]
        info = Prover().prove(query_merge_guest, self._merge_env(
            self.SQLS[0], bindings))
        with pytest.raises(ChainError,
                           match="does not match any recorded assumption"):
            resolve_all(info.receipt, partials)

    def test_foreign_image_aborts(self, proven):
        """A receipt from any guest other than the partition guest —
        even a trusted one — must not enter the fold."""
        service, _, engine = proven
        agg_receipt = service.chain.latest.receipt
        with pytest.raises(GuestAbort,
                           match="not.*produced by the query partition"):
            Prover().prove(query_merge_guest, self._merge_env(
                self.SQLS[0], [agg_receipt], count=1))
