"""Negative controls: three tampered inputs that must be refused.

A later change that makes the system faster by dropping a check
cannot pass the benchmark: each control fails the run when the
tampered input is *accepted*.  Small (two 64-record windows), untimed.
"""

from __future__ import annotations

from dataclasses import replace

from repro.commitments import BulletinBoard
from repro.core.prover_service import ProverService
from repro.core.verifier_client import VerifierClient
from repro.errors import GuestAbort, ReproError, VerificationError
from repro.netflow.records import NetFlowRecord
from repro.serialization import decode
from repro.storage import MemoryLogStore
from repro.zkvm.receipt import Journal

from inputs import Traffic, append_and_commit

SQL = "SELECT COUNT(*), SUM(packets) FROM clogs"


def _flip_one_byte(blob: bytes) -> bytes:
    """``blob`` with one bit flipped, chosen so it still decodes to a
    record — only the commitment check inside the guest can tell."""
    for position in reversed(range(len(blob))):
        flipped = bytearray(blob)
        flipped[position] ^= 0x01
        try:
            NetFlowRecord.from_wire(decode(bytes(flipped)))
        except ReproError:
            continue
        return bytes(flipped)
    raise AssertionError("no single-bit flip of the record decodes")


def run_controls(seed: int) -> dict[str, bool]:
    """control name -> was the tampered input refused?"""
    traffic = Traffic(seed)
    store, bulletin = MemoryLogStore(), BulletinBoard()
    for window in (0, 1):
        for commitment in append_and_commit(store, window,
                                            traffic.fresh(64)):
            bulletin.publish(commitment)
    service = ProverService(store, bulletin)
    service.aggregate_window(0)
    verifier = VerifierClient(bulletin)
    receipts = service.chain.receipts()
    response = service.answer_query(SQL)
    verifier.verify_response(response, receipts)  # untampered: accepted
    refused = {}

    router = store.router_ids()[0]
    store.overwrite_raw(router, 1, 0, _flip_one_byte(
        store.window_blobs(router, 1)[0]))
    try:
        service.aggregate_window(1)
        refused["tampered_rlog_aborts_round"] = False
    except GuestAbort:
        refused["tampered_rlog_aborts_round"] = True

    journal = bytearray(receipts[0].journal.data)
    journal[len(journal) // 2] ^= 0x01
    forged = replace(receipts[0], journal=Journal(bytes(journal)))
    try:
        verifier.verify_chain([forged])
        refused["tampered_journal_fails_chain"] = False
    except ReproError:
        refused["tampered_journal_fails_chain"] = True

    inflated = replace(response, values=(response.values[0] + 1,
                                         *response.values[1:]))
    try:
        verifier.verify_response(inflated, receipts)
        refused["altered_answer_fails_verification"] = False
    except VerificationError:
        refused["altered_answer_fails_verification"] = True
    return refused
