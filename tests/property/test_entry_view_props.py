"""The scanning query guests' entry-view memo against the per-entry scan
it replaced (``tests/reference/guest.py``).

For random committed states the memo-backed scan must give the oracle's
leaves, views and meter state, and the proven query guests its journals
and cycle breakdowns, whatever the memo holds: nothing (cold), every
payload (warm), nothing again (after a clear), or too little to keep a
scan (eviction).  A tampered entry frame must abort for the oracle's
reason even when the memo already holds the honest payload.
"""

import sys
import threading
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.commitments import window_digest
from repro.core import guest_programs
from repro.core.aggregation import (
    Aggregator,
    RouterWindowInput,
    make_receipt_binding,
)
from repro.core.clog import CLogState, entry_view_from_wire
from repro.core.guest_programs import query_guest
from repro.core.query_proof import QueryProver
from repro.engine import ProvingEngine, ReceiptCache
from repro.merkle.memo import DigestMemo, clear_memos
from repro.serialization import decode, encode
from repro.zkvm import ExecutorEnvBuilder, Prover
from repro.zkvm.guest import GuestEnv

from ..conftest import make_record
from ..reference import guest as reference_guest
from ..reference import settle_image_ids

SQLS = (
    "SELECT COUNT(*), SUM(packets) FROM clogs WHERE src_port >= 1003",
    "SELECT AVG(rtt_avg_us), MAX(octets) FROM clogs GROUP BY protocol",
)

flows = st.lists(
    st.tuples(st.integers(1000, 1040), st.integers(1, 5_000),
              st.integers(0, 9), st.sampled_from(["r1", "r2"])),
    min_size=1, max_size=24)


def committed(rows):
    """One proven round over ``rows`` (sport, packets, lost, router)."""
    by_router: dict[str, list] = {}
    for sport, packets, lost, router in rows:
        by_router.setdefault(router, []).append(make_record(
            router_id=router, sport=sport, packets=packets,
            lost_packets=lost, proto=6 if sport % 2 else 17))
    windows = []
    for router, records in sorted(by_router.items()):
        blobs = tuple(r.to_bytes() for r in records)
        windows.append(RouterWindowInput(
            router_id=router, window_index=0,
            commitment=window_digest(list(blobs)), blobs=blobs))
    return Aggregator().aggregate(CLogState(), windows, None)


def entry_frames(state):
    return [encode(frame) for frame in state.entry_frames()]


def scan(reader, frames):
    env = GuestEnv(tuple(frames))
    leaves, views = reader(env, env.merkle_hasher(), len(frames))
    meter = env.meter
    return (leaves, views, meter.total, dict(meter.by_category),
            meter.sha_compressions)


def query_input(result, sql, frames):
    builder = ExecutorEnvBuilder()
    builder.write({"query": sql, "num_entries": len(frames)})
    builder.write(make_receipt_binding(result.receipt))
    for frame in frames:
        builder.write_frames([frame])
    return builder.build()


def fingerprint(info):
    stats = info.stats
    return (info.receipt.journal.data, stats.total_cycles,
            dict(stats.cycle_breakdown), stats.sha_compressions)


def prove_all(result):
    """Every query proven by the full-scan guest and, in one two-way
    fan-out on a fresh cache, by the partition guest."""
    frames = entry_frames(result.new_state)
    out = [fingerprint(Prover().prove(query_guest,
                                      query_input(result, sql, frames)))
           for sql in SQLS]
    if len(result.new_state) > 1:
        with ProvingEngine(backend="serial", cache=ReceiptCache()) as engine:
            for _response, info in QueryProver(engine=engine) \
                    .prove_queries_partitioned(
                        list(SQLS), result.new_state, result.receipt, 2):
                out.extend(fingerprint(part)
                           for part in info.partition_infos)
                out.append(fingerprint(info.merge_info))
    return out


@contextmanager
def oracle_scan():
    settle_image_ids()
    with mock.patch.object(guest_programs, "_read_entry_views",
                           reference_guest.read_entry_views):
        yield


@contextmanager
def small_memo(capacity):
    with mock.patch.object(guest_programs, "ENTRY_VIEWS",
                           DigestMemo(capacity)):
        yield


def abort_of(env_input):
    with pytest.raises(Exception) as caught:
        Prover().prove(query_guest, env_input)
    return type(caught.value), str(caught.value)


class TestEntryViewMemoMatchesOracle:
    @given(flows)
    @settings(max_examples=25, deadline=None)
    def test_scan_cold_warm_cleared_and_evicting(self, rows):
        frames = entry_frames(committed(rows).new_state)
        expected = scan(reference_guest.read_entry_views, frames)
        memo = guest_programs.ENTRY_VIEWS
        read = guest_programs._read_entry_views
        clear_memos()
        assert scan(read, frames) == expected  # cold
        hits = memo.hits
        assert scan(read, frames) == expected  # warm
        assert memo.hits - hits == len(frames)
        clear_memos()
        assert scan(read, frames) == expected  # after a clear
        with small_memo(max(1, len(frames) // 3)):
            assert scan(read, frames) == expected
            assert scan(read, frames) == expected

    @given(flows)
    @settings(max_examples=10, deadline=None)
    def test_proven_queries_cold_warm_cleared_and_evicting(self, rows):
        result = committed(rows)
        with oracle_scan():
            expected = prove_all(result)
        clear_memos()
        assert prove_all(result) == expected  # cold
        assert prove_all(result) == expected  # warm
        clear_memos()
        assert prove_all(result) == expected  # after a clear
        with small_memo(2):
            assert prove_all(result) == expected

    @given(flows, st.data())
    @settings(max_examples=25, deadline=None)
    def test_flipped_payload_byte_aborts_like_oracle(self, rows, data):
        result = committed(rows)
        items = list(result.new_state.merkle_map.slot_items())
        index = data.draw(st.integers(0, len(items) - 1))
        key, payload = items[index]
        at = data.draw(st.integers(0, len(payload) - 1))
        flip = data.draw(st.integers(1, 255))
        forged = payload[:at] + bytes([payload[at] ^ flip]) \
            + payload[at + 1:]
        frames = [encode({"key": k, "payload": p}) for k, p in items]
        frames[index] = encode({"key": key, "payload": forged})
        env_input = query_input(result, SQLS[0], frames)
        with oracle_scan():
            expected = abort_of(env_input)
        clear_memos()
        assert abort_of(env_input) == expected  # cold
        Prover().prove(query_guest,
                       query_input(result, SQLS[0], entry_frames(
                           result.new_state)))  # the honest scan warms it
        assert abort_of(env_input) == expected  # warm

    @given(flows, st.data())
    @settings(max_examples=25, deadline=None)
    def test_frame_key_mismatch_aborts_like_oracle(self, rows, data):
        result = committed(rows)
        items = list(result.new_state.merkle_map.slot_items())
        index = data.draw(st.integers(0, len(items) - 1))
        key, payload = items[index]
        other = bytes([key[0] ^ 1]) + key[1:]
        frames = [encode({"key": k, "payload": p}) for k, p in items]
        frames[index] = encode({"key": other, "payload": payload})
        env_input = query_input(result, SQLS[0], frames)
        with oracle_scan():
            expected = abort_of(env_input)
        assert expected[1].endswith(
            "entry payload key does not match frame key")
        clear_memos()
        assert abort_of(env_input) == expected  # cold
        Prover().prove(query_guest,
                       query_input(result, SQLS[0], entry_frames(
                           result.new_state)))
        assert abort_of(env_input) == expected  # warm: payload is a hit


class TestSharedViewsAreReadOnly:
    def test_memo_views_refuse_writes_and_equal_fresh_views(self):
        result = committed([(1001, 10, 1, "r1"), (1002, 20, 0, "r2")])
        frames = entry_frames(result.new_state)
        clear_memos()
        _leaves, views, *_ = scan(guest_programs._read_entry_views, frames)
        _leaves, again, *_ = scan(guest_programs._read_entry_views, frames)
        for view, shared, frame in zip(views, again, frames):
            assert shared is view
            assert view == entry_view_from_wire(
                decode(decode(frame)["payload"]))
            with pytest.raises(TypeError):
                view["packets"] = 0


class TestConcurrentScans:
    def test_threads_sharing_an_evicting_memo_match_the_oracle(self):
        """More scanning threads than cores on one memo too small for
        the state, switching often: every scan still equals the oracle
        and none dies on an entry another thread evicted."""
        rows = [(1000 + i, 10 + i, i % 3, "r1" if i % 2 else "r2")
                for i in range(12)]
        frames = entry_frames(committed(rows).new_state)
        expected = scan(reference_guest.read_entry_views, frames)
        outcomes: list = []

        def worker():
            try:
                for _ in range(40):
                    outcomes.append(
                        scan(guest_programs._read_entry_views, frames)
                        == expected)
            except Exception as exc:  # reported through ``outcomes``
                outcomes.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with small_memo(3):
                threads = [threading.Thread(target=worker)
                           for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes == [True] * 160
