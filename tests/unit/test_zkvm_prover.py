"""Unit tests for the prover and receipt construction."""

import pytest

from repro.errors import GuestAbort, ProofError
from repro.serialization import decode_receipt, encode_receipt
from repro.zkvm import (
    ExecutorEnvBuilder,
    Executor,
    Prover,
    ProverOpts,
    Receipt,
    ReceiptKind,
    guest_program,
)
from repro.zkvm.receipt import GROTH16_SEAL_SIZE, SUCCINCT_SEAL_SIZE


@guest_program("worker")
def worker_guest(env):
    data = env.read()
    env.commit(env.sha256(data))
    env.commit(len(data))


@guest_program("abort-now")
def abort_guest(env):
    env.abort("no")


def prove(kind: ReceiptKind = ReceiptKind.GROTH16, payload=b"data"):
    return Prover(ProverOpts(kind=kind)).prove(
        worker_guest, ExecutorEnvBuilder().write(payload).build())


class TestProve:
    def test_groth16_seal_is_256_bytes(self):
        info = prove(ReceiptKind.GROTH16)
        assert info.receipt.kind is ReceiptKind.GROTH16
        assert info.receipt.seal_size == GROTH16_SEAL_SIZE == 256

    def test_succinct_seal_constant_size(self):
        small = prove(ReceiptKind.SUCCINCT, b"x")
        large = prove(ReceiptKind.SUCCINCT, b"x" * 5000)
        assert small.receipt.seal_size == SUCCINCT_SEAL_SIZE
        assert large.receipt.seal_size == SUCCINCT_SEAL_SIZE

    def test_composite_contains_segments(self):
        info = prove(ReceiptKind.COMPOSITE)
        assert info.receipt.kind is ReceiptKind.COMPOSITE
        assert len(info.receipt.inner.segments) == \
            info.stats.segment_count

    def test_claim_binds_journal_and_input(self):
        info = prove()
        claim = info.receipt.claim
        assert claim.image_id == worker_guest.image_id
        assert claim.journal_digest == info.receipt.journal.digest
        assert claim.input_digest == info.session.input.digest

    def test_abort_produces_no_receipt(self):
        with pytest.raises(GuestAbort):
            Prover().prove(abort_guest, ExecutorEnvBuilder().build())

    def test_cannot_prove_aborted_session(self):
        session = Executor().execute(abort_guest,
                                     ExecutorEnvBuilder().build())
        with pytest.raises(ProofError):
            Prover().prove_session(session)

    def test_stats_populated(self):
        info = prove()
        assert info.stats.total_cycles > 0
        assert info.stats.padded_cycles >= info.stats.total_cycles
        assert info.stats.segment_count == 1
        assert info.stats.sha_compressions > 0
        assert info.stats.wall_seconds >= 0
        assert "io" in info.stats.cycle_breakdown

    def test_deterministic_receipts(self):
        a = prove().receipt
        b = prove().receipt
        assert a.claim_digest == b.claim_digest
        assert a.inner.seal_bytes == b.inner.seal_bytes


class TestReceiptSerialization:
    def test_bytes_roundtrip(self):
        receipt = prove().receipt
        restored = decode_receipt(encode_receipt(receipt))
        assert restored.claim_digest == receipt.claim_digest
        assert restored.journal == receipt.journal
        assert restored.inner.seal_bytes == receipt.inner.seal_bytes

    def test_json_roundtrip(self):
        receipt = prove().receipt
        restored = Receipt.from_json_bytes(receipt.to_json_bytes())
        assert restored.claim_digest == receipt.claim_digest

    def test_composite_roundtrip(self):
        receipt = prove(ReceiptKind.COMPOSITE).receipt
        restored = decode_receipt(encode_receipt(receipt))
        assert restored.claim_digest == receipt.claim_digest
        assert len(restored.inner.segments) == \
            len(receipt.inner.segments)

    def test_receipt_size_tracks_json(self):
        receipt = prove().receipt
        assert receipt.receipt_size == len(receipt.to_json_bytes())

    def test_journal_hex_doubling(self):
        """JSON receipts hex-encode the journal: receipt ≈ 2× journal
        plus a constant envelope (the Table 1 ratio)."""
        small = prove(payload=b"x").receipt
        large = prove(payload=b"x" * 8000).receipt
        growth = large.receipt_size - small.receipt_size
        journal_growth = large.journal_size - small.journal_size
        assert growth == pytest.approx(2 * journal_growth, rel=0.05)


class TestProverOpts:
    def test_factories(self):
        assert ProverOpts.composite().kind is ReceiptKind.COMPOSITE
        assert ProverOpts.succinct().kind is ReceiptKind.SUCCINCT
        assert ProverOpts.groth16().kind is ReceiptKind.GROTH16

    def test_default_is_groth16(self):
        assert ProverOpts().kind is ReceiptKind.GROTH16
