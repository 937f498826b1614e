"""The session event bus: the push half of the embeddable client API.

The paper's Figure-1 API hands the application two callbacks (``NewFriend``
and ``IncomingCall``).  Real integrations need more: they want to observe a
friend request's lifecycle (was it submitted? delivered? ever confirmed?),
learn when the library re-sends an unconfirmed request, and wire several
independent components to the same client without fighting over one callback
slot.  :class:`EventBus` provides that surface -- typed, multi-subscriber,
and recordable.  ``IncomingCall`` is its ``call_received`` event; the
``NewFriend`` decision is the session's ``accept_friend`` policy, and its
outcome is the ``friend_request_received`` event.

Event types emitted by a :class:`~repro.api.session.ClientSession`:

========================== ===========================================================
``request_queued``          ``AddFriend`` accepted a request into the outbox
``request_submitted``       the request entered a round (``round``, ``attempts``)
``request_delivered``       that round's mixnet delivered its mailboxes
``request_retrying``        unconfirmed past the retry horizon; re-enqueued
``request_requeued``        the entry tier's batch flush lost the envelope;
                            back in the queue (attempt not counted)
``request_failed``          retry budget exhausted; the outbox gave up
``friend_request_received`` an incoming request decrypted (``email``, ``accepted``)
``friend_request_declined`` we declined an incoming request
``friend_request_rejected`` an incoming request failed verification (``reason``)
``friend_confirmed``        the handshake completed (``email``, ``round``)
``call_placed``             a queued call's dial token entered a round
``call_delivered``          the dialing round carrying the token completed
``call_retrying``           the round aborted; the dialing outbox re-dials
``call_requeued``           the entry tier's batch flush lost the token
``call_failed``             the round carrying the token aborted (no redial)
``call_received``           a friend's dial token addressed us (``call``)
========================== ===========================================================

Handlers run synchronously on the simulated client's thread, in subscription
order; an ``emit`` is the session-layer analogue of the Go library invoking
an application callback.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class SessionEvent:
    """One observable fact about a session, e.g. ``request_submitted``."""

    type: str
    #: The counterparty the event is about (friend / caller email), if any.
    email: str | None = None
    #: The protocol round the event is anchored to, if any.
    round_number: int | None = None
    #: Event-specific payload (signing keys, handles, attempt counts, ...).
    data: dict = field(default_factory=dict)

    def __getitem__(self, key: str):
        return self.data[key]


EventHandler = Callable[[SessionEvent], None]


class EventBus:
    """Multi-subscriber event dispatch with a queryable history.

    The history is a ring buffer (``max_history`` newest events) so a
    long-lived session's bus stays O(1) in memory; subscribers always see
    every event regardless of the cap.
    """

    DEFAULT_MAX_HISTORY = 10_000

    def __init__(self, max_history: int = DEFAULT_MAX_HISTORY) -> None:
        self._subscribers: dict[str, list[EventHandler]] = {}
        self._all: list[EventHandler] = []
        self._history: deque[SessionEvent] = deque(maxlen=max_history)

    # -- subscription ------------------------------------------------------
    def subscribe(self, event_type: str, handler: EventHandler) -> None:
        """Invoke ``handler(event)`` for every event of ``event_type``."""
        self._subscribers.setdefault(event_type, []).append(handler)

    def subscribe_all(self, handler: EventHandler) -> None:
        """Invoke ``handler`` for every event regardless of type."""
        self._all.append(handler)

    # -- emission ----------------------------------------------------------
    def emit(
        self,
        event_type: str,
        email: str | None = None,
        round_number: int | None = None,
        **data,
    ) -> SessionEvent:
        """Record and dispatch one event; returns it for convenience."""
        event = SessionEvent(
            type=event_type, email=email, round_number=round_number, data=data
        )
        self._history.append(event)
        for handler in list(self._subscribers.get(event_type, ())):
            handler(event)
        for handler in list(self._all):
            handler(event)
        return event

    # -- history (what tests and simple applications poll) ------------------
    def history(self, event_type: str | None = None) -> list[SessionEvent]:
        if event_type is None:
            return list(self._history)
        return [e for e in self._history if e.type == event_type]
