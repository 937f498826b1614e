"""repro.runtime: real-runtime deployment mode.

Two transports that run an Alpenhorn deployment on real localhost TCP
sockets instead of a simulated or zero-latency in-process wire:

* :class:`~repro.runtime.transport.AsyncioTransport` -- every endpoint an
  asyncio TCP server in this process, handlers on per-endpoint threads;
* :class:`~repro.runtime.mp.MultiprocessTransport` -- the same, with chosen
  tiers (by default the mix servers) rebuilt in worker processes, forked from
  one preloaded forkserver, so the crypto hot path uses real cores.

Selected from the scenario harness and CLI via ``--runtime={sim,asyncio,mp}``.

Unlike the protocol tiers, these transports read the active tracer
themselves: an ``rpc.call`` span's id travels in the wire format (the
:class:`~repro.obs.distributed.TraceContext` trailer) so the server's
``rpc.serve`` span can link to it, and an ``mp`` worker runs its own tracer
whose spans the parent harvests.  Every other in-process span is installed
from outside by :mod:`repro.obs.instrument`.
"""

from repro.runtime.mp import EndpointSpec, MultiprocessTransport, mix_endpoint_spec
from repro.runtime.transport import AsyncioTransport

__all__ = [
    "AsyncioTransport",
    "EndpointSpec",
    "MultiprocessTransport",
    "mix_endpoint_spec",
]
