"""Merkle inclusion proofs (single and batch).

A proof carries the leaf digest, its index, the sibling digests along the
path to the root, and the tree size at proving time.  Verification
recomputes the root and compares it against the committed one — the
"Integrity Check" of the paper's Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import MerkleError, MerkleInclusionError
from ..hashing import Digest
from .hasher import MerkleHasher, default_hasher


@dataclass(frozen=True)
class InclusionProof:
    """Proof that ``leaf`` sits at ``leaf_index`` in a committed tree."""

    leaf_index: int
    leaf: Digest
    siblings: tuple[Digest, ...]
    tree_size: int

    def __post_init__(self) -> None:
        if self.leaf_index < 0:
            raise MerkleError("leaf_index must be non-negative")
        if self.tree_size <= self.leaf_index:
            raise MerkleError("leaf_index outside tree_size")
        if len(self.siblings) > 64:
            raise MerkleError("proof path too long")

    @property
    def depth(self) -> int:
        return len(self.siblings)

    def computed_root(self, hasher: MerkleHasher | None = None) -> Digest:
        """Recompute the root implied by this proof."""
        h = hasher or default_hasher()
        digest = self.leaf
        pos = self.leaf_index
        if pos >> len(self.siblings) != 0:
            raise MerkleError("leaf_index inconsistent with path length")
        for sibling in self.siblings:
            if pos & 1:
                digest = h.node(sibling, digest)
            else:
                digest = h.node(digest, sibling)
            pos >>= 1
        return digest

    def verify(self, root: Digest,
               hasher: MerkleHasher | None = None) -> None:
        """Raise :class:`MerkleInclusionError` unless the proof matches."""
        computed = self.computed_root(hasher)
        if computed != root:
            raise MerkleInclusionError(
                f"inclusion proof for leaf {self.leaf_index} recomputed "
                f"root {computed.short()}..., expected {root.short()}..."
            )

    # -- wire form ----------------------------------------------------------

    def to_wire(self) -> dict[str, Any]:
        return {
            "leaf_index": self.leaf_index,
            "leaf": self.leaf,
            "siblings": list(self.siblings),
            "tree_size": self.tree_size,
        }

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "InclusionProof":
        return cls(
            leaf_index=wire["leaf_index"],
            leaf=wire["leaf"],
            siblings=tuple(wire["siblings"]),
            tree_size=wire["tree_size"],
        )


@dataclass(frozen=True)
class MultiProof:
    """A batch of inclusion proofs against a single committed root."""

    proofs: tuple[InclusionProof, ...]
    root: Digest

    def verify(self, root: Digest | None = None,
               hasher: MerkleHasher | None = None) -> None:
        """Verify all member proofs against ``root`` (default: own root)."""
        target = root if root is not None else self.root
        if root is not None and self.root != root:
            raise MerkleInclusionError(
                "multiproof root does not match the committed root"
            )
        for proof in self.proofs:
            proof.verify(target, hasher)

    def is_valid(self, root: Digest | None = None,
                 hasher: MerkleHasher | None = None) -> bool:
        try:
            self.verify(root, hasher)
        except MerkleError:
            return False
        return True

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(p.leaf_index for p in self.proofs)

    def to_wire(self) -> dict[str, Any]:
        return {
            "proofs": [p.to_wire() for p in self.proofs],
            "root": self.root,
        }

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "MultiProof":
        return cls(
            proofs=tuple(InclusionProof.from_wire(p) for p in wire["proofs"]),
            root=wire["root"],
        )

