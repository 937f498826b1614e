"""Message-passing transport between Alpenhorn components.

``repro.net`` separates *what* the servers say to each other (framed RPCs in
the project's canonical wire format) from *how* the messages travel:

* :class:`~repro.net.transport.DirectTransport` -- zero-latency in-process
  dispatch, behaviorally identical to the seed's direct method calls;
* :class:`~repro.net.simulated.SimulatedNetwork` -- a simulated clock moved
  by per-link latency, bandwidth, jitter, loss, and partition models,
  which is what the scenario harness in :mod:`repro.sim` runs on.
"""

from repro.net.frames import Frame
from repro.net.links import LinkSpec, NetworkTopology, PERFECT_LINK
from repro.net.rpc import CdnStub, MixStub, PkgStub
from repro.net.scheduler import EventScheduler
from repro.net.simulated import SimulatedNetwork
from repro.net.transport import (
    DirectTransport,
    Phase,
    RpcRequest,
    RpcResult,
    Transport,
    TransportStats,
)

__all__ = [
    "CdnStub",
    "DirectTransport",
    "EventScheduler",
    "Frame",
    "LinkSpec",
    "MixStub",
    "NetworkTopology",
    "PERFECT_LINK",
    "Phase",
    "PkgStub",
    "RpcRequest",
    "RpcResult",
    "SimulatedNetwork",
    "Transport",
    "TransportStats",
]
