"""Unit tests for the aggregation chain ledger."""

import pytest

from repro.commitments import window_digest
from repro.core.aggregation import Aggregator, RouterWindowInput
from repro.core.chain import AggregationChain, ChainLink
from repro.core.clog import CLogState
from repro.errors import ChainError

from ..conftest import make_record


def round_result(state=None, prev=None, sport=1000, window=0):
    records = [make_record(sport=sport)]
    blobs = tuple(r.to_bytes() for r in records)
    inputs = [RouterWindowInput(
        router_id="r1", window_index=window,
        commitment=window_digest(list(blobs)), blobs=blobs)]
    return Aggregator().aggregate(state or CLogState(), inputs, prev)


def link_for(result):
    return ChainLink(round=result.round, receipt=result.receipt)


class TestChain:
    def test_append_sequential_rounds(self):
        chain = AggregationChain()
        first = round_result()
        chain.append(link_for(first))
        second = round_result(first.new_state, first.receipt,
                              sport=2000, window=1)
        chain.append(link_for(second))
        assert len(chain) == 2
        assert chain.latest.round == 1
        assert chain[0].header.new_root == first.new_root
        assert chain.receipts() == [first.receipt, second.receipt]

    def test_round_gap_rejected(self):
        chain = AggregationChain()
        first = round_result()
        second = round_result(first.new_state, first.receipt,
                              sport=2000, window=1)
        with pytest.raises(ChainError, match="expected 0"):
            chain.append(link_for(second))

    def test_wrong_prev_root_rejected(self):
        chain = AggregationChain()
        first = round_result(sport=1000)
        other_genesis = round_result(sport=9999)
        chain.append(link_for(first))
        # Second round built on the *other* genesis does not extend.
        second = round_result(other_genesis.new_state,
                              other_genesis.receipt, sport=2000,
                              window=1)
        with pytest.raises(ChainError, match="prev_root"):
            chain.append(link_for(second))

    def test_latest_on_empty_chain(self):
        with pytest.raises(ChainError, match="empty"):
            AggregationChain().latest

    def test_iteration(self):
        chain = AggregationChain()
        first = round_result()
        chain.append(link_for(first))
        assert [link.round for link in chain] == [0]

    def test_journal_header_access(self):
        first = round_result()
        link = link_for(first)
        assert link.header.new_root == first.new_root
        assert link.header.size == len(first.new_state)
        assert link.header.entries == first.record_count
