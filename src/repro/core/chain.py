"""The aggregation proof chain (§4.1 step 1).

Every round's receipt is chained to the previous one through in-guest
claim verification, so the provider's history forms a verifiable linked
list: genesis (empty CLog) → round 0 → round 1 → ...  The chain object
is the provider-side ledger of those links; clients re-verify it with
:meth:`repro.core.verifier_client.VerifierClient.verify_chain`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from ..errors import ChainError
from ..zkvm import Receipt
from .guest_programs import aggregation_guest, batched_aggregation_guest
from .journals import RoundHeader

#: The guests whose receipts are chainable rounds: Alg. 1 and the
#: batched update are trusted code with byte-identical journals.  A
#: receipt from any other image is not a round.
ROUND_IMAGE_IDS = (
    aggregation_guest.image_id,
    batched_aggregation_guest.image_id,
)


def require_distinct_windows(what: str, windows: Sequence[tuple[str, int]]) -> None:
    """One proof may consume each (router, window) once: a repeated
    pair proves the same committed records twice under one commitment
    (across rounds, ``verify_chain`` refuses the replay)."""
    if len(set(windows)) != len(windows):
        raise ChainError(
            f"{what} consumes a (router, window) pair more than once: {sorted(windows)}"
        )


@dataclass(frozen=True)
class ChainLink:
    """One aggregation round's public artifacts: its receipt, and the
    round header read off that receipt's journal once, never copied."""

    round: int
    receipt: Receipt
    header: RoundHeader = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        header = RoundHeader.parse(self.receipt)
        if header.round != self.round:
            raise ChainError(f"round {self.round} holds round {header.round}'s receipt")
        object.__setattr__(self, "header", header)

    def to_wire(self) -> dict[str, Any]:
        return {"round": self.round, "receipt": self.receipt.to_wire()}

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "ChainLink":
        """The link ``wire`` names; copies of header fields an older
        writer kept beside the receipt are ignored, never trusted."""
        return cls(round=wire["round"], receipt=Receipt.from_wire(wire["receipt"]))


class AggregationChain:
    """Append-only ledger of aggregation rounds."""

    def __init__(self) -> None:
        self._links: list[ChainLink] = []

    def append(self, link: ChainLink) -> None:
        expected = len(self._links)
        if link.round != expected:
            raise ChainError(f"cannot append round {link.round}; expected {expected}")
        if self._links:
            if link.header.prev_root != self._links[-1].header.new_root:
                raise ChainError(
                    f"round {link.round} does not extend round {expected - 1}: prev_root mismatch"
                )
        self._links.append(link)

    def __len__(self) -> int:
        return len(self._links)

    def __iter__(self) -> Iterator[ChainLink]:
        return iter(self._links)

    def __getitem__(self, index: int) -> ChainLink:
        return self._links[index]

    @property
    def latest(self) -> ChainLink:
        if not self._links:
            raise ChainError("chain is empty; aggregate first")
        return self._links[-1]

    @property
    def latest_receipt(self) -> Receipt:
        return self.latest.receipt

    def receipts(self) -> list[Receipt]:
        return [link.receipt for link in self._links]
