"""Unit tests for the exception hierarchy contracts."""

import pytest

from repro import errors


class TestHierarchy:
    def test_everything_is_repro_error(self):
        leaves = [
            errors.ConfigurationError,
            errors.SerializationError,
            errors.MerkleInclusionError,
            errors.MissingCommitment,
            errors.GuestAbort,
            errors.VerificationError,
            errors.ImageIdMismatch,
            errors.JournalMismatch,
            errors.SealError,
            errors.ChainError,
            errors.QuerySyntaxError,
            errors.StorageError,
            errors.SimulationError,
        ]
        for cls in leaves:
            assert issubclass(cls, errors.ReproError)

    def test_integrity_family(self):
        for cls in (errors.MerkleError,
                    errors.MerkleInclusionError,
                    errors.MissingCommitment):
            assert issubclass(cls, errors.IntegrityError)

    def test_proof_family(self):
        for cls in (errors.GuestAbort, errors.VerificationError,
                    errors.ImageIdMismatch, errors.JournalMismatch,
                    errors.SealError, errors.ChainError):
            assert issubclass(cls, errors.ProofError)

    def test_verification_family(self):
        for cls in (errors.ImageIdMismatch, errors.JournalMismatch,
                    errors.SealError):
            assert issubclass(cls, errors.VerificationError)


class TestMessages:
    def test_guest_abort_reason(self):
        exc = errors.GuestAbort("hash mismatch")
        assert exc.reason == "hash mismatch"
        assert "hash mismatch" in str(exc)

    def test_query_syntax_position(self):
        exc = errors.QuerySyntaxError("bad token", position=17)
        assert exc.position == 17
        assert "offset 17" in str(exc)
        bare = errors.QuerySyntaxError("bad token")
        assert bare.position is None

    def test_catching_the_family(self):
        with pytest.raises(errors.ReproError):
            raise errors.SealError("nope")
