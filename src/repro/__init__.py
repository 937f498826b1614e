"""repro: a Python reproduction of Alpenhorn (OSDI 2016).

Alpenhorn bootstraps secure communication between two users without leaking
metadata: it lets Alice add Bob as a friend knowing only his email address,
and later "call" him to establish a fresh session key, while hiding from a
global adversary (controlling all but one server) who is friending or calling
whom, and providing forward secrecy for that metadata.

The top-level package lazily exposes the pieces most users need:

* :class:`repro.api.session.ClientSession` -- the embeddable client session
  (typed request handles, lifecycle events, sender-side retry).
* :class:`repro.core.client.Client` -- the Alpenhorn client (Figure 1 API).
* :class:`repro.core.coordinator.Deployment` -- an in-process deployment of
  PKG servers, the mixnet chain, the entry server and a CDN, driven in
  rounds.
* :mod:`repro.analysis` -- the bandwidth / latency / differential-privacy
  models used to regenerate the paper's evaluation figures.
* :mod:`repro.net` -- the transport layer: framed RPCs over either a
  zero-latency in-process dispatch or a simulated network.
* :mod:`repro.sim` -- the scenario harness driving whole deployments over
  the simulated network (``python -m repro.sim list``).

See README.md for a quickstart; its Architecture and Layout sections are the
system inventory.
"""

__version__ = "0.2.0"

__all__ = [
    "AlpenhornConfig",
    "CallHandle",
    "Client",
    "ClientSession",
    "Deployment",
    "EventBus",
    "FriendRequestHandle",
    "RequestState",
    "__version__",
]

_API_NAMES = {"ClientSession", "FriendRequestHandle", "CallHandle", "EventBus", "RequestState"}


def __getattr__(name):
    # Lazy imports keep `import repro.crypto...` cheap and avoid importing
    # the whole client stack when only a substrate module is needed.
    if name == "AlpenhornConfig":
        from repro.core.config import AlpenhornConfig

        return AlpenhornConfig
    if name == "Client":
        from repro.core.client import Client

        return Client
    if name == "Deployment":
        from repro.core.coordinator import Deployment

        return Deployment
    if name in _API_NAMES:
        import repro.api as api

        return getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
