"""The memos a cold query reads from, against the paths with none.

Everything a query guest does that depends only on the committed root
is memoized: the host's encoded entry frames
(:data:`repro.core.query_proof.ENTRY_FRAMES`), ``read_batch``'s decoded
frames (:data:`repro.zkvm.guest.DECODED_FRAMES`), the entry views
(:data:`repro.core.guest_programs.ENTRY_VIEWS`) and the built Merkle
levels (:data:`repro.merkle.memo.BUILT_LEVELS`).  For random committed
states the full-scan and partition guests must give the same journals,
input digests and meter state with every memo cold, with every memo
warm, and under :func:`tests.reference.reference_paths`; a tampered
input must abort for the same reason warm as cold.
"""

import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commitments import BulletinBoard, Commitment, window_digest
from repro.core import guest_programs, query_proof
from repro.core.aggregation import make_receipt_binding
from repro.core.guest_programs import query_guest
from repro.core.prover_service import ProverService
from repro.core.query_proof import QueryProver, entry_frames
from repro.core.verifier_client import VerifierClient
from repro.engine import ProvingEngine, ReceiptCache
from repro.merkle import memo as merkle_memo
from repro.merkle.memo import DigestMemo, clear_memos
from repro.net import ProverServer, QueryClient, RouterClient
from repro.serialization import decode, encode
from repro.storage import MemoryLogStore
from repro.zkvm import ExecutorEnvBuilder, Prover
from repro.zkvm import guest as zkvm_guest
from repro.zkvm.guest import DECODED_FRAMES, GuestEnv

from ..conftest import make_record
from ..reference import reference_paths
from .test_entry_view_props import SQLS, committed, flows


def fingerprint(info):
    stats = info.stats
    return (info.receipt.journal.data, info.receipt.claim.input_digest,
            stats.total_cycles, dict(stats.cycle_breakdown),
            stats.sha_compressions)


def prove_all(result):
    """Every query through the full-scan guest, then all of them through
    one two-way fan-out of the partition guest on a fresh cache."""
    state, receipt = result.new_state, result.receipt
    out = [fingerprint(QueryProver().prove_query(sql, state, receipt)[1])
           for sql in SQLS]
    if len(state) > 1:
        with ProvingEngine(backend="serial", cache=ReceiptCache()) as engine:
            for _response, info in QueryProver(engine=engine) \
                    .prove_queries_partitioned(list(SQLS), state, receipt, 2):
                out.extend(fingerprint(part)
                           for part in info.partition_infos)
                out.append(fingerprint(info.merge_info))
    return out


def query_input(result, frames):
    builder = ExecutorEnvBuilder()
    builder.write({"query": SQLS[0], "num_entries": len(frames)})
    builder.write(make_receipt_binding(result.receipt))
    builder.write_frames(frames)
    return builder.build()


def outcome_of(env_input):
    """How proving ``env_input`` fails: exception type and text."""
    with pytest.raises(Exception) as caught:
        Prover().prove(query_guest, env_input)
    return type(caught.value), str(caught.value)


def cold_and_warm(result, env_input):
    """The failure of ``env_input`` with every memo cold, then after an
    honest query at the same root warmed them all."""
    clear_memos()
    cold = outcome_of(env_input)
    QueryProver().prove_query(SQLS[1], result.new_state, result.receipt)
    return cold, outcome_of(env_input)


class TestOneMemoRegistry:
    def test_clear_memos_empties_every_process_memo(self):
        """After a cold query and a round have filled them, one
        ``clear_memos()`` empties all six process-global memos, while
        ``memo_stats()`` still reports only the node and leaf memos."""
        result = committed([(1001, 10, 1, "r1"), (1002, 20, 0, "r2")])
        QueryProver().prove_query(SQLS[0], result.new_state, result.receipt)
        memos = {
            "node": merkle_memo._NODE_MEMO,
            "leaf": merkle_memo._LEAF_MEMO,
            "levels": merkle_memo.BUILT_LEVELS,
            "frames": DECODED_FRAMES,
            "views": guest_programs.ENTRY_VIEWS,
            "entry frames": query_proof.ENTRY_FRAMES,
        }
        assert all(len(memo) for memo in memos.values()), \
            {name: len(memo) for name, memo in memos.items()}
        clear_memos()
        assert {name: (len(memo), memo.hits, memo.misses)
                for name, memo in memos.items()} \
            == dict.fromkeys(memos, (0, 0, 0))
        assert set(merkle_memo.memo_stats()) == {"node", "leaf"}


class TestColdWarmAndReferenceAgree:
    @given(flows)
    @settings(max_examples=10, deadline=None)
    def test_full_scan_and_partition_guests(self, rows):
        result = committed(rows)
        clear_memos()
        with reference_paths():
            expected = prove_all(result)
        clear_memos()
        assert prove_all(result) == expected  # every memo cold
        assert prove_all(result) == expected  # every memo warm


class TestTamperedInputAbortsWarmAsCold:
    @given(flows, st.data())
    @settings(max_examples=20, deadline=None)
    def test_flipped_byte_in_an_entry_frame(self, rows, data):
        result = committed(rows)
        frames = list(entry_frames(result.new_state))
        index = data.draw(st.integers(0, len(frames) - 1))
        frame = frames[index]
        at = data.draw(st.integers(0, len(frame) - 1))
        flip = data.draw(st.integers(1, 255))
        frames[index] = frame[:at] + bytes([frame[at] ^ flip]) \
            + frame[at + 1:]
        cold, warm = cold_and_warm(result, query_input(result, frames))
        assert warm == cold

    @given(flows, st.data())
    @settings(max_examples=20, deadline=None)
    def test_two_entry_frames_swapped(self, rows, data):
        result = committed(rows)
        frames = list(entry_frames(result.new_state))
        if len(frames) < 2:
            return
        i = data.draw(st.integers(0, len(frames) - 2))
        j = data.draw(st.integers(i + 1, len(frames) - 1))
        frames[i], frames[j] = frames[j], frames[i]
        cold, warm = cold_and_warm(result, query_input(result, frames))
        assert cold[1].endswith(
            "CLog entries do not reproduce the committed root")
        assert warm == cold

    @given(flows, st.data())
    @settings(max_examples=20, deadline=None)
    def test_payload_key_differs_from_its_frame_key(self, rows, data):
        result = committed(rows)
        items = list(result.new_state.merkle_map.slot_items())
        index = data.draw(st.integers(0, len(items) - 1))
        key, payload = items[index]
        frames = list(entry_frames(result.new_state))
        frames[index] = encode({"key": bytes([key[0] ^ 1]) + key[1:],
                                "payload": payload})
        cold, warm = cold_and_warm(result, query_input(result, frames))
        assert cold[1].endswith(
            "entry payload key does not match frame key")
        assert warm == cold


    @given(flows, st.data())
    @settings(max_examples=20, deadline=None)
    def test_well_formed_payload_with_another_count(self, rows, data):
        """A forged entry that decodes and keys right reaches the root
        check, which a replayed tree must not let it pass."""
        result = committed(rows)
        items = list(result.new_state.merkle_map.slot_items())
        index = data.draw(st.integers(0, len(items) - 1))
        key, payload = items[index]
        wire = decode(payload)
        wire["packets"] += 1
        frames = list(entry_frames(result.new_state))
        frames[index] = encode({"key": key, "payload": encode(wire)})
        cold, warm = cold_and_warm(result, query_input(result, frames))
        assert cold[1].endswith(
            "CLog entries do not reproduce the committed root")
        assert warm == cold


class TestDecodedFramesAreReadOnly:
    def test_a_read_frame_refuses_writes_cold_and_warm(self):
        result = committed([(1001, 10, 1, "r1"), (1002, 20, 0, "r2")])
        frames = entry_frames(result.new_state)
        clear_memos()
        for _ in range(2):  # the second batch comes out of the memo
            read = GuestEnv(frames).read_batch(len(frames))
            for value, frame in zip(read, frames):
                assert value == decode(frame)
                with pytest.raises(TypeError):
                    value["payload"] = b""
                with pytest.raises(AttributeError):
                    value.pop("key")
        assert DECODED_FRAMES.hits >= len(frames)


class TestConcurrentQueries:
    def test_threads_sharing_evicting_memos_match_a_lone_prover(self):
        """More proving threads than cores over two roots, with every
        memo too small to hold both and threads switching often: each
        proof still equals the one proven alone."""
        results = [committed([(1000 + i, 10 + i, i % 3, "r1" if i % 2
                               else "r2") for i in range(offset, offset + 9)])
                   for offset in (0, 20)]

        def prove(result):
            return fingerprint(QueryProver().prove_query(
                SQLS[0], result.new_state, result.receipt)[1])

        clear_memos()
        expected = [prove(result) for result in results]
        outcomes: list = []

        def worker(first):
            try:
                for step in range(20):
                    index = (first + step) % 2
                    outcomes.append(prove(results[index]) == expected[index])
            except Exception as exc:  # reported through ``outcomes``
                outcomes.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(query_proof, "ENTRY_FRAMES",
                                   DigestMemo(1)), \
                    mock.patch.object(zkvm_guest, "DECODED_FRAMES",
                                      DigestMemo(3)), \
                    mock.patch.object(merkle_memo, "BUILT_LEVELS",
                                      DigestMemo(1)):
                threads = [threading.Thread(target=worker, args=(i,))
                           for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes == [True] * 80


class TestRoundsBesideQueries:
    def test_concurrent_run_round_and_queries_keep_receipts_verifying(self):
        """``run-round`` and QUERY both prove on executor threads of one
        server, over the same memos: every answer, whichever round it
        bound, verifies against the published chain."""
        store, bulletin = MemoryLogStore(), BulletinBoard()
        for window in range(4):
            records = [make_record(sport=1_000 + 10 * window + i,
                                   packets=5 + i, lost_packets=window)
                       for i in range(6)]
            store.append_records("r1", window, records)
            bulletin.publish(Commitment(
                "r1", window, window_digest([r.to_bytes() for r in records]),
                len(records), window * 5_000))
        service = ProverService(store, bulletin)
        service.aggregate_window(0)
        answers: list = []
        failures: list = []

        def rounds(endpoint):
            with RouterClient(*endpoint) as router:
                for window in (1, 2, 3):
                    router.run_round([window])

        def queries(endpoint, client):
            with QueryClient(*endpoint) as stub:
                for i in range(8):
                    answers.append(stub.query(
                        f"SELECT COUNT(*), SUM(packets) FROM clogs "
                        f"WHERE src_port >= {1_000 + 3 * i + client}"))

        def run(target, *args):
            try:
                target(*args)
            except Exception as exc:  # reported through ``failures``
                failures.append(exc)

        with ProverServer(service) as server:
            endpoint = (server.host, server.port)
            threads = [threading.Thread(target=run, args=(rounds, endpoint))]
            threads += [threading.Thread(target=run,
                                         args=(queries, endpoint, client))
                        for client in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(service.chain) == 4 and len(answers) == 16
        verifier = VerifierClient(bulletin)
        chain = verifier.verify_chain(service.chain.receipts())
        for response in answers:
            verifier.verify_query(response, chain[response.round])
