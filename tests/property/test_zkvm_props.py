"""Property tests: zkVM receipt soundness-surface invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import VerificationError
from repro.serialization import decode_receipt, encode_receipt
from repro.zkvm import (
    ExecutorEnvBuilder,
    Prover,
    ProverOpts,
    Receipt,
    ReceiptKind,
    guest_program,
    verify_receipt,
)
from repro.zkvm.receipt import Journal


@guest_program("prop-worker")
def prop_guest(env):
    values = env.read()
    env.tick(len(values) * 3)
    env.commit(sum(values))
    env.commit(len(values))


def prove(values, kind=ReceiptKind.GROTH16):
    return Prover(ProverOpts(kind=kind)).prove(
        prop_guest, ExecutorEnvBuilder().write(values).build())


int_lists = st.lists(st.integers(-(2**40), 2**40), max_size=50)


class TestReceiptProperties:
    @given(int_lists)
    @settings(max_examples=60, deadline=None)
    def test_every_honest_receipt_verifies(self, values):
        info = prove(values)
        verified = verify_receipt(info.receipt, prop_guest.image_id)
        total, count = verified.journal.decode()
        assert total == sum(values)
        assert count == len(values)

    @given(int_lists)
    @settings(max_examples=40, deadline=None)
    def test_seal_constant_size_any_input(self, values):
        info = prove(values)
        assert info.receipt.seal_size == 256

    @given(int_lists, st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_journal_tampering_always_caught(self, values, nonce):
        from repro.serialization import encode
        info = prove(values)
        forged_data = encode(sum(values) + 1) + encode(nonce)
        forged = Receipt(inner=info.receipt.inner,
                         journal=Journal(forged_data),
                         claim=info.receipt.claim)
        try:
            verify_receipt(forged, prop_guest.image_id)
            assert False, "forged journal accepted"
        except VerificationError:
            pass

    @given(int_lists)
    @settings(max_examples=40, deadline=None)
    def test_serialization_preserves_verifiability(self, values):
        receipt = prove(values).receipt
        for restored in (decode_receipt(encode_receipt(receipt)),
                         Receipt.from_json_bytes(
                             receipt.to_json_bytes())):
            verify_receipt(restored, prop_guest.image_id)

    @given(int_lists, int_lists)
    @settings(max_examples=40, deadline=None)
    def test_claim_digest_injective_on_inputs(self, a, b):
        receipt_a = prove(a).receipt
        receipt_b = prove(b).receipt
        if a != b:
            assert receipt_a.claim_digest != receipt_b.claim_digest
        else:
            assert receipt_a.claim_digest == receipt_b.claim_digest

    @given(int_lists)
    @settings(max_examples=30, deadline=None)
    def test_cycles_deterministic(self, values):
        assert prove(values).stats.total_cycles == \
            prove(values).stats.total_cycles
