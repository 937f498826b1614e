"""The Alpenhorn client library and the in-process deployment simulator.

This package implements the paper's primary contribution: the client-side
add-friend and dialing protocols, the keywheel, and the Figure-1 API
(``register`` / ``add_friend`` / ``call``; the ``NewFriend`` and
``IncomingCall`` callbacks live on each client's one
:class:`~repro.api.session.ClientSession`), together with a
:class:`Deployment` that wires clients to the PKG, mixnet, entry and CDN
substrates and drives everything in rounds.
"""

from repro.core.config import AlpenhornConfig
from repro.core.client import Client
from repro.core.coordinator import Deployment
from repro.core.keywheel import Keywheel, KeywheelEntry
from repro.core.addressbook import AddressBook, Friend
from repro.core.friendrequest import FriendRequest

__all__ = [
    "AlpenhornConfig",
    "Client",
    "Deployment",
    "Keywheel",
    "KeywheelEntry",
    "AddressBook",
    "Friend",
    "FriendRequest",
]
