"""Fiat–Shamir transcript for non-interactive proof binding.

The prover and verifier both drive a :class:`Transcript`: the prover
absorbs the public statement (image id, input digest, journal digest,
trace commitment root) and squeezes challenge indices that select which
trace segments to open; the verifier replays the same transcript and
checks the openings.  Any change to an absorbed value changes every
subsequent challenge, which is what makes the openings binding.
"""

from __future__ import annotations

from ..hashing import TAG_TRANSCRIPT, Digest, tagged_hash


class Transcript:
    """A labeled absorb/squeeze transcript over tagged SHA-256."""

    def __init__(self, protocol: str) -> None:
        self._state = tagged_hash(TAG_TRANSCRIPT, protocol.encode("utf-8"))
        self._counter = 0

    def absorb(self, label: str, data: bytes | Digest) -> None:
        """Mix labeled data into the transcript state."""
        raw = data.raw if isinstance(data, Digest) else data
        self._state = tagged_hash(
            TAG_TRANSCRIPT,
            self._state.raw,
            len(label).to_bytes(2, "big"),
            label.encode("utf-8"),
            len(raw).to_bytes(8, "big"),
            raw,
        )

    def absorb_int(self, label: str, value: int) -> None:
        self.absorb(label, value.to_bytes(16, "big", signed=True))

    def challenge(self, label: str) -> Digest:
        """Squeeze a 32-byte challenge; advances the state."""
        self._counter += 1
        out = tagged_hash(
            TAG_TRANSCRIPT,
            self._state.raw,
            b"squeeze",
            len(label).to_bytes(2, "big"),
            label.encode("utf-8"),
            self._counter.to_bytes(8, "big"),
        )
        self._state = tagged_hash(TAG_TRANSCRIPT, self._state.raw, out.raw)
        return out

    def challenge_int(self, label: str, bound: int) -> int:
        """Squeeze a uniform integer in ``[0, bound)``.

        Uses rejection sampling over 128-bit draws so the tiny modulo bias
        of naive reduction is avoided (irrelevant for the simulation, but
        it keeps the construction honest).
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 128) - ((1 << 128) % bound)
        while True:
            draw = int.from_bytes(self.challenge(label).raw[:16], "big")
            if draw < limit:
                return draw % bound

    def challenge_indices(self, label: str, bound: int,
                          count: int) -> list[int]:
        """Squeeze ``count`` (possibly repeating) indices below ``bound``."""
        return [self.challenge_int(f"{label}/{i}", bound)
                for i in range(count)]
