"""Unit tests for receipt verification — every tamper surface."""

import dataclasses

import pytest

from repro.errors import (
    ImageIdMismatch,
    JournalMismatch,
    SealError,
    VerificationError,
)
from repro.zkvm import (
    ExecutorEnvBuilder,
    Prover,
    ProverOpts,
    Receipt,
    ReceiptKind,
    Verifier,
    guest_program,
    verify_receipt,
)
from repro.zkvm.receipt import Journal
from repro.zkvm.verifier import MODELED_VERIFY_SECONDS


@guest_program("honest")
def honest_guest(env):
    env.commit(env.read() * 2)


@guest_program("other")
def other_guest(env):
    env.commit(0)


def make_receipt(kind=ReceiptKind.GROTH16, value=21) -> Receipt:
    return Prover(ProverOpts(kind=kind)).prove(
        honest_guest, ExecutorEnvBuilder().write(value).build()).receipt


class TestHappyPath:
    @pytest.mark.parametrize("kind", list(ReceiptKind))
    def test_all_kinds_verify(self, kind):
        receipt = make_receipt(kind)
        verified = verify_receipt(receipt, honest_guest.image_id)
        assert verified.journal.decode_one() == 42
        assert verified.claim.image_id == honest_guest.image_id

    def test_modeled_verify_time_constant(self):
        small = verify_receipt(make_receipt(value=1),
                               honest_guest.image_id)
        large = verify_receipt(make_receipt(value=10**50),
                               honest_guest.image_id)
        assert small.modeled_seconds == large.modeled_seconds == \
            MODELED_VERIFY_SECONDS


class TestRejections:
    def test_wrong_image_id(self):
        receipt = make_receipt()
        with pytest.raises(ImageIdMismatch):
            verify_receipt(receipt, other_guest.image_id)

    def test_tampered_journal(self):
        receipt = make_receipt()
        from repro.serialization import encode
        forged = Receipt(inner=receipt.inner,
                         journal=Journal(encode(999)),
                         claim=receipt.claim)
        with pytest.raises(JournalMismatch):
            verify_receipt(forged, honest_guest.image_id)

    def test_tampered_claim_breaks_seal(self):
        receipt = make_receipt()
        # Claim a different cycle count; journal digest still matches,
        # but the seal was derived for the original claim.
        forged_claim = dataclasses.replace(receipt.claim,
                                           total_cycles=1)
        forged = Receipt(inner=receipt.inner, journal=receipt.journal,
                         claim=forged_claim)
        with pytest.raises(SealError):
            verify_receipt(forged, honest_guest.image_id)

    def test_seal_swap_between_receipts(self):
        a = make_receipt(value=1)
        b = make_receipt(value=2)
        forged = Receipt(inner=b.inner, journal=a.journal, claim=a.claim)
        with pytest.raises(SealError):
            verify_receipt(forged, honest_guest.image_id)

    @pytest.mark.parametrize("kind", [ReceiptKind.SUCCINCT,
                                      ReceiptKind.GROTH16])
    def test_bitflipped_seal(self, kind):
        receipt = make_receipt(kind)
        seal = bytearray(receipt.inner.seal)
        seal[10] ^= 0x01
        forged_inner = type(receipt.inner)(seal=bytes(seal))
        forged = Receipt(inner=forged_inner, journal=receipt.journal,
                         claim=receipt.claim)
        with pytest.raises(SealError):
            verify_receipt(forged, honest_guest.image_id)


class TestComposite:
    def test_segment_tamper_detected(self):
        receipt = make_receipt(ReceiptKind.COMPOSITE)
        inner = receipt.inner
        bad_segment = dataclasses.replace(inner.segments[0],
                                          cycle_count=123)
        forged_inner = dataclasses.replace(
            inner, segments=(bad_segment, *inner.segments[1:]))
        forged = Receipt(inner=forged_inner, journal=receipt.journal,
                         claim=receipt.claim)
        with pytest.raises(SealError):
            verify_receipt(forged, honest_guest.image_id)

    def test_trace_root_tamper_detected(self):
        from repro.hashing import sha256
        receipt = make_receipt(ReceiptKind.COMPOSITE)
        forged_inner = dataclasses.replace(receipt.inner,
                                           trace_root=sha256(b"evil"))
        forged = Receipt(inner=forged_inner, journal=receipt.journal,
                         claim=receipt.claim)
        with pytest.raises(SealError):
            verify_receipt(forged, honest_guest.image_id)

    def test_modeled_time_scales_with_segments(self):
        receipt = make_receipt(ReceiptKind.COMPOSITE)
        verified = Verifier().verify(receipt, honest_guest.image_id)
        assert verified.modeled_seconds == \
            MODELED_VERIFY_SECONDS * receipt.claim.segment_count


class TestConditional:
    def test_unresolved_assumptions_rejected(self):
        @guest_program("assumer")
        def assumer_guest(env):
            from repro.hashing import sha256
            env.verify(sha256(b"img"), sha256(b"claim"))
            env.commit("ok")

        info = Prover(ProverOpts.succinct()).prove(
            assumer_guest, ExecutorEnvBuilder().build())
        with pytest.raises(VerificationError, match="conditional"):
            verify_receipt(info.receipt, assumer_guest.image_id)
        # verify_conditional allows it.
        verified = Verifier().verify_conditional(
            info.receipt, assumer_guest.image_id)
        assert verified.claim.assumptions
