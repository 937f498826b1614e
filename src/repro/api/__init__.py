"""repro.api: the client session API.

The Figure-1 surface: every client owns one :class:`ClientSession`, which
returns typed, observable handles (:class:`FriendRequestHandle`,
:class:`CallHandle`), publishes lifecycle events on an :class:`EventBus`,
carries the ``NewFriend`` policy (``accept_friend``) and the received calls,
and runs sender-side retry for unconfirmed friend requests.  A deployment
hands it out::

    session = deployment.session("alice@example.org")
    handle = session.add_friend("bob@example.org")
    deployment.run_addfriend_round(); deployment.run_addfriend_round()
    assert handle.confirmed

See README.md ("Embedding the client") for the full walkthrough.
"""

from repro.api.events import EventBus, SessionEvent
from repro.api.handles import CallHandle, FriendRequestHandle, RequestState
from repro.api.session import ClientSession

__all__ = [
    "CallHandle",
    "ClientSession",
    "EventBus",
    "FriendRequestHandle",
    "RequestState",
    "SessionEvent",
]
