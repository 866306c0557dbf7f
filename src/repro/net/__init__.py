"""Wire-protocol service layer: distributed prover/verifier deployment.

The paper's deployment model (§1, Figure 1) has three physically
separated parties — routers publishing commitments, an off-path prover,
and remote clients verifying query answers.  This package puts a real
network boundary between them:

* :mod:`~repro.net.framing` — length-prefixed binary frames with a
  version byte and bounded payload sizes;
* :mod:`~repro.net.messages` — typed request/response envelopes and the
  error-code registry mapping onto :mod:`repro.errors`;
* :mod:`~repro.net.server` — :class:`ProverServer`, an asyncio server
  wrapping a :class:`~repro.core.prover_service.ProverService`;
* :mod:`~repro.net.client` — synchronous :class:`RouterClient` /
  :class:`QueryClient` stubs with pooling and retries;
* :mod:`~repro.net.retry` — exponential backoff with jitter.

Nothing cryptographic changes at the boundary: responses fetched over
the wire verify with the same :class:`VerifierClient` code paths as
in-process ones, because receipts, commitments, and query responses
round-trip through the canonical serialization
(`repro.serialization` typed wire codecs).
"""

from .aio import AsyncQueryClient
from .client import QueryClient, RouterClient, ServiceClient, \
    parse_endpoint
from .framing import DEFAULT_MAX_FRAME_SIZE, WIRE_VERSION, \
    decode_frame, encode_frame
from .messages import PROTOCOL_VERSION, Envelope, MessageKind
from .retry import NO_RETRY, RetryPolicy, call_with_retry
from .server import ProverServer

__all__ = [
    "AsyncQueryClient",
    "DEFAULT_MAX_FRAME_SIZE",
    "Envelope",
    "MessageKind",
    "NO_RETRY",
    "PROTOCOL_VERSION",
    "ProverServer",
    "QueryClient",
    "RetryPolicy",
    "RouterClient",
    "ServiceClient",
    "WIRE_VERSION",
    "call_with_retry",
    "decode_frame",
    "encode_frame",
    "parse_endpoint",
]
