"""Reference implementations kept as test oracles.

``src/`` has one implementation of each hot operation — the fast one.
The straightforward version each replaced lives here, so the property
suite (``tests/property/test_hotpath_props.py``) can keep asserting that
values, error texts, journal bytes and metered cycles are the same.
Nothing under ``src/`` imports this package.

* :mod:`.serialization` — the slicing ``_Reader`` decoder, and the
  ``isinstance``-chain encoder that also wrote CLog payloads;
* :mod:`.records` — ``FlowKey`` packing through ``ipaddress``;
* :mod:`.hashing` — tagged hashing with a fresh prefix per call, and
  a Merkle hash strategy with no memo behind it;
* :mod:`.guest` — ``read_batch`` / ``commit_many`` / metered Merkle
  hashing as loops over the public per-value calls, and the query
  guests' entry scan with no entry-view memo;
* :mod:`.query` — the per-entry ``evaluate`` / ``evaluate_partial``.

:func:`reference_paths` swaps them all in at once, for the end-to-end
properties that compare whole proven rounds.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from typing import Iterator
from unittest import mock

import repro.core.clog
import repro.core.guest_programs
import repro.hashing
import repro.merkle.memo
import repro.query.vectorized
import repro.serialization
import repro.zkvm.guest

from . import guest, hashing, serialization


def refuse_mask(query, entries, cost_hook, columns) -> None:
    """``vectorized.matched_indices`` that always says "walk instead"."""
    return None


def settle_image_ids() -> None:
    """Compute every registered guest's image id now.  An id hashes the
    source of the guest's helpers, is computed once on first use, and
    must not be computed while an oracle shadows one of them."""
    for program in repro.core.guest_programs.GUEST_REGISTRY.values():
        program.image_id


@contextmanager
def reference_paths() -> Iterator[None]:
    """Run a block with every oracle standing in for the ``src``
    implementation it shadows (and the numpy WHERE mask refused, so
    every query is walked entry by entry)."""
    plain = hashing.PlainMerkleHasher()
    swaps = [
        (repro.serialization, "_decode_fast", serialization.decode_at),
        (repro.serialization, "_encode", serialization.encode_into),
        (repro.core.clog.CLogEntry, "to_payload",
         serialization.clog_payload),
        (repro.hashing, "_tag_hasher", hashing.tag_hasher),
        (repro.merkle.memo, "leaf_digest", plain.leaf),
        (repro.merkle.memo, "node_digest", plain.node),
        (repro.zkvm.guest.GuestEnv, "read_batch", guest.read_batch),
        (repro.zkvm.guest.GuestEnv, "commit_many", guest.commit_many),
        (repro.zkvm.guest, "MeteredMerkleHasher", guest.MeteredMerkleHasher),
        (repro.core.guest_programs, "_read_entry_views", guest.read_entry_views),
        (repro.query.vectorized, "matched_indices", refuse_mask),
    ]
    settle_image_ids()
    with ExitStack() as stack:
        for owner, name, oracle in swaps:
            stack.enter_context(mock.patch.object(owner, name, oracle))
        yield
