"""The ReMICSS reference protocol and the MICSS baseline (Sec. V).

ReMICSS is the paper's best-effort, transport-agnostic multichannel secret
sharing protocol.  The pipeline for one source symbol is:

1. the **scheduler** picks the per-symbol parameters -- either integer
   (k, m) sampled so the long-run averages are exactly (κ, µ) (the
   *dynamic* schedule, which then lets channel readiness pick M), or a
   full (k, M) pair drawn from an explicit LP-optimal
   :class:`~repro.core.schedule.ShareSchedule`;
2. the **sender** waits until m channels can accept a share, splits the
   symbol with the secret sharing scheme, and transmits one share per
   chosen channel inside a :mod:`~repro.protocol.wire` header;
3. the **receiver** collects shares in a reassembly buffer (with timeout
   eviction and a memory bound, borrowed from IP fragment reassembly) and
   reconstructs as soon as any k shares of a symbol have arrived.

:mod:`repro.protocol.micss` implements the MICSS baseline: XOR perfect
sharing (κ = µ = n is its only configuration) over *reliable* share
transport with acknowledgement and retransmission -- the design whose
inflexibility motivates ReMICSS.

:mod:`repro.protocol.dibs` is the transparent interception shim standing in
for the DIBS bump-in-the-stack architecture the real implementation uses.
"""

from repro.protocol.config import ProtocolConfig
from repro.protocol.dibs import DibsInterceptor
from repro.protocol.micss import MicssNode
from repro.protocol.receiver import ReassemblyBuffer, ReceiverStats
from repro.protocol.remicss import PointToPointNetwork, RemicssNode
from repro.protocol.scheduler import (
    DynamicParameterSampler,
    ExplicitScheduler,
    ParameterSampler,
)
from repro.protocol.sender import SenderStats, ShareSender
from repro.protocol.wire import HEADER_SIZE, ShareHeader, decode_share, encode_share

__all__ = [
    "ProtocolConfig",
    "RemicssNode",
    "PointToPointNetwork",
    "MicssNode",
    "DibsInterceptor",
    "ShareSender",
    "SenderStats",
    "ReassemblyBuffer",
    "ReceiverStats",
    "ParameterSampler",
    "DynamicParameterSampler",
    "ExplicitScheduler",
    "ShareHeader",
    "encode_share",
    "decode_share",
    "HEADER_SIZE",
]
