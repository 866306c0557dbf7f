"""Wire-frame fault behaviours: the ``net.frame`` site's runtime half.

The other fault sites raise domain exceptions straight through the
instrumented call; frames are different — "the network ate this frame"
is not an exception the transport code could raise about itself, it is
*behaviour* the transport must be subjected to.  The plan kinds
``drop``/``delay``/``corrupt``/``disconnect`` therefore map to a
control-flow marker (:class:`~repro.errors.FrameFault`) that
:func:`frame_action` converts back into a plain action string, and the
transports built with an injector implement the action for real:

* :class:`repro.cluster.nodes.WorkerClient` applies it to the
  *outgoing request* frame (client-side corruption is what the worker
  daemon must reject);
* :class:`repro.cluster.worker.WorkerServer` applies it to the
  *outgoing response* frame, in the one send step it adds to the
  shared :class:`~repro.net.server.FrameServer` loop (server-side
  corruption is what the dispatcher must reject).

Without an injector neither fires the site, and the prover server
never does.  Both ends share one seeded injector schedule, so a chaos
scenario under ``REPRO_FAULTS="net.frame:corrupt:every=5"
REPRO_FAULT_SEED=1`` replays bit-for-bit.
"""

from __future__ import annotations

from typing import Any

from ..errors import ConfigurationError, FrameFault
from .plan import NET_FRAME

#: The four frame behaviours (also the plan error-kind names).
DROP = "drop"
DELAY = "delay"
CORRUPT = "corrupt"
DISCONNECT = "disconnect"

FRAME_ACTIONS = frozenset({DROP, DELAY, CORRUPT, DISCONNECT})

#: How long an injected ``delay`` stalls the frame.  Short enough to
#: keep chaos suites fast, long enough to register on latency
#: histograms and exercise slow-path code.
DELAY_SECONDS = 0.05


def frame_action(injector: Any, site: str = NET_FRAME) -> str | None:
    """Fire ``site`` and translate a scheduled fault into an action.

    Returns ``None`` (no fault due — the overwhelmingly common case:
    one counter increment and a dict miss) or one of
    :data:`FRAME_ACTIONS`.  Non-frame exceptions configured on the
    site propagate unchanged — an operator who schedules
    ``net.frame:storage`` gets exactly what they asked for.
    """
    if injector is None:
        return None
    try:
        injector.fire(site)
    except FrameFault as fault:
        if fault.action not in FRAME_ACTIONS:
            raise ConfigurationError(
                f"unknown frame action {fault.action!r}") from fault
        return fault.action
    return None


def corrupt_payload(payload: bytes) -> bytes:
    """Deterministically flip the payload's first byte.

    The first byte of a canonical envelope is the encoder's type tag,
    so the receiving side fails structured decode immediately — the
    corruption is always *detected* (a flip deep inside a body could
    decode cleanly into wrong data, which is the receipt
    re-verification layer's job, not the framing layer's).  The frame
    header itself stays intact: the peer reads a well-framed payload
    of garbage, the worst case for envelope parsing.
    """
    if not payload:
        return b"\xff"
    return bytes([payload[0] ^ 0xFF]) + payload[1:]
