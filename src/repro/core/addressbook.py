"""The client's address book: friends, pending requests, and trust state.

The address book tracks, for each friend, how the friendship was
established and which long-term key we believe belongs to them.  Alpenhorn's
worst-case guarantees (§3.2) depend on this state:

* a key supplied out-of-band is ``VERIFIED`` -- man-in-the-middle attacks
  are defeated even if every server is compromised;
* otherwise the key from the first add-friend exchange is remembered
  (``TOFU``, trust-on-first-use) -- a later compromise of all servers cannot
  rewrite history.

The keywheel itself lives in :mod:`repro.core.keywheel`; this module keeps
the metadata around it (pending outgoing requests, confirmation state, and
the ephemeral Diffie-Hellman secrets awaiting a reply).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ProtocolError


class TrustLevel(enum.Enum):
    """How much we trust the long-term key stored for a friend."""

    TOFU = "trust-on-first-use"
    VERIFIED = "verified-out-of-band"


class FriendshipState(enum.Enum):
    """Lifecycle of a friendship from the local client's point of view."""

    REQUEST_SENT = "request-sent"          # we sent an add-friend request
    REQUEST_RECEIVED = "request-received"  # they sent one; we haven't accepted yet
    CONFIRMED = "confirmed"                # both sides exchanged requests


@dataclass
class Friend:
    """Everything the address book stores about one friend."""

    email: str
    signing_key: bytes | None = None
    trust: TrustLevel = TrustLevel.TOFU
    state: FriendshipState = FriendshipState.REQUEST_SENT
    established_round: int | None = None


@dataclass
class PendingOutgoing:
    """An add-friend request we sent and have not yet seen answered.

    ``dialing_private`` is the ephemeral Diffie-Hellman secret whose public
    half, ``dialing_public``, went out in the request (kept so a re-send or
    a remembered reply does not pay a base multiplication to re-derive it);
    ``dialing_round`` is the keywheel anchor round we proposed (the
    ``DialingRound`` field of Figure 3).
    """

    email: str
    dialing_private: bytes
    dialing_public: bytes
    dialing_round: int
    expected_key: bytes | None = None  # out-of-band key, if the caller had one


class AddressBook:
    """Friend metadata and in-flight add-friend state for one client."""

    def __init__(self) -> None:
        self._friends: dict[str, Friend] = {}
        self._pending_outgoing: dict[str, PendingOutgoing] = {}

    # -- friends ----------------------------------------------------------
    def friends(self) -> list[Friend]:
        return [self._friends[email] for email in sorted(self._friends)]

    def friend(self, email: str) -> Friend:
        email = email.lower()
        if email not in self._friends:
            raise ProtocolError(f"{email} is not in the address book")
        return self._friends[email]

    def has_friend(self, email: str) -> bool:
        return email.lower() in self._friends

    def confirmed_friends(self) -> list[Friend]:
        return [f for f in self.friends() if f.state is FriendshipState.CONFIRMED]

    def upsert_friend(self, email: str, **fields) -> Friend:
        email = email.lower()
        friend = self._friends.get(email)
        if friend is None:
            friend = Friend(email=email)
            self._friends[email] = friend
        for name, value in fields.items():
            if not hasattr(friend, name):
                raise ProtocolError(f"unknown friend field {name!r}")
            setattr(friend, name, value)
        return friend

    def remove_friend(self, email: str) -> None:
        """Drop a friend entirely (with the keywheel erased separately)."""
        self._friends.pop(email.lower(), None)
        self._pending_outgoing.pop(email.lower(), None)

    # -- trust management ---------------------------------------------------
    def record_observed_key(self, email: str, signing_key: bytes) -> bool:
        """Record the key observed in an incoming request.

        Returns True if the key is consistent with what we already know
        (first sighting, or a match); False if it *conflicts* with a stored
        key, which callers treat as a possible man-in-the-middle.
        """
        email = email.lower()
        friend = self._friends.get(email)
        if friend is None or friend.signing_key is None:
            self.upsert_friend(email, signing_key=signing_key)
            return True
        return friend.signing_key == signing_key

    # -- pending outgoing requests --------------------------------------------
    def add_pending_outgoing(self, pending: PendingOutgoing) -> None:
        self._pending_outgoing[pending.email.lower()] = pending

    def pending_outgoing(self, email: str) -> PendingOutgoing | None:
        return self._pending_outgoing.get(email.lower())

    def pop_pending_outgoing(self, email: str) -> PendingOutgoing | None:
        return self._pending_outgoing.pop(email.lower(), None)

    def pending_count(self) -> int:
        return len(self._pending_outgoing)
