"""Typed handles for in-flight requests: the pull half of the session API.

``ClientSession.add_friend`` / ``ClientSession.call`` return a handle the
application keeps; the round engine moves it through its lifecycle as rounds
run.  A handle answers the question the raw Figure-1 API could not: *did my
friend request ever get confirmed, and if not, where is it stuck?*

Friend-request lifecycle::

    QUEUED ──submit──> SUBMITTED ──round closes──> DELIVERED ──confirmation──> CONFIRMED
       ▲                   │                            │
       └──── retry (unconfirmed after K rounds) ────────┘        (terminal: CONFIRMED / FAILED)

* ``SUBMITTED``: the request's envelope was accepted by the entry server for
  round ``round_submitted`` (``attempts`` incremented).
* ``DELIVERED``: that round's mixnet ran and the mailboxes were published --
  the request is sitting in the recipient's mailbox, but a recipient who
  missed the round never held the round's IBE key, so delivery alone proves
  nothing (forward secrecy).
* ``CONFIRMED``: the recipient's confirming request came back and the shared
  keywheel is anchored; ``confirmed_by`` holds their long-term signing key.
* ``FAILED``: the session's retry budget ran out (see
  :class:`~repro.api.session.ClientSession`).

A call handle uses the same states minus ``CONFIRMED`` (dialing has no
acknowledgement leg): ``DELIVERED`` means the Bloom filter carrying the dial
token was published, and ``placed`` carries the session key.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # type-only: keeps repro.api importable before repro.core
    from repro.core.addfriend import QueuedFriendRequest
    from repro.core.dialtoken import OutgoingCall, PlacedCall


class RequestState(enum.Enum):
    """Where an in-flight request currently is (see module docstring)."""

    QUEUED = "queued"
    SUBMITTED = "submitted"
    DELIVERED = "delivered"
    CONFIRMED = "confirmed"
    FAILED = "failed"

    def terminal(self) -> bool:
        return self in (RequestState.CONFIRMED, RequestState.FAILED)


@dataclass
class FriendRequestHandle:
    """One ``AddFriend`` as the application sees it, across retries."""

    email: str
    expected_key: bytes | None = None
    state: RequestState = RequestState.QUEUED
    #: How many times the request entered a round (1 on the first submit).
    attempts: int = 0
    #: The most recent add-friend round the request was submitted into.
    round_submitted: int | None = None
    #: Every round the request (or a retry of it) was submitted into.
    rounds_submitted: list[int] = field(default_factory=list)
    #: The friend's long-term signing key, once confirmed.
    confirmed_by: bytes | None = None
    #: The add-friend round whose mailbox carried the confirmation.
    confirmed_round: int | None = None
    #: The queue entry currently representing this request client-side
    #: (replaced on every retry; matched by identity, never by value).
    request: QueuedFriendRequest | None = None

    def done(self) -> bool:
        return self.state.terminal()

    @property
    def confirmed(self) -> bool:
        return self.state is RequestState.CONFIRMED

    def __repr__(self) -> str:
        return (
            f"FriendRequestHandle({self.email!r}, {self.state.value}, "
            f"attempts={self.attempts}, round={self.round_submitted})"
        )


@dataclass
class CallHandle:
    """One ``Call`` as the application sees it, across re-dials.

    With the session's dialing retry enabled (``dialing_redial_attempts``), a call
    whose round aborted returns to ``QUEUED`` and is re-dialed next round
    instead of failing terminally; ``attempts`` counts the dials.
    """

    friend: str
    intent: int = 0
    state: RequestState = RequestState.QUEUED
    #: How many dialing rounds a token for this call entered (1 on the first).
    attempts: int = 0
    #: The dialing round the token was submitted into.
    round_submitted: int | None = None
    #: The queue entry for this call (matched by identity on submit).
    outgoing: OutgoingCall | None = None
    #: Set once the token goes out; carries the derived session key.
    placed: PlacedCall | None = None

    @property
    def session_key(self) -> bytes | None:
        return self.placed.session_key if self.placed is not None else None

    def __repr__(self) -> str:
        return (
            f"CallHandle({self.friend!r}, intent={self.intent}, "
            f"{self.state.value}, round={self.round_submitted})"
        )
