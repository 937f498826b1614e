"""Application callbacks (the bottom half of the legacy Figure 1 API).

An application embedding the Alpenhorn client historically supplied two
callbacks:

* ``new_friend(email, signing_key) -> bool`` -- invoked when a friend
  request arrives; returning True accepts it (which makes the library send
  the confirming request back).
* ``incoming_call(email, intent, session_key)`` -- invoked when a dial token
  from a friend is found in the dialing mailbox.

This surface is superseded by :class:`repro.api.session.ClientSession` and
its :class:`~repro.api.events.EventBus` (multi-subscriber, typed events,
request lifecycle).  The :class:`CallbackBridge` below remains as the
client-internal seam the scan paths call into: it keeps the legacy
single-slot callbacks working, records events for tests, and feeds a ``tap``
the session layer installs to translate callback invocations into bus
events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.dialtoken import IncomingCall

NewFriendCallback = Callable[[str, bytes], bool]
IncomingCallCallback = Callable[[str, int, bytes], None]
#: Installed by the session layer: ``tap(kind, payload)`` with kinds
#: ``friend_request_received`` and ``call_received``.
CallbackTap = Callable[[str, dict], None]


@dataclass
class CallbackBridge:
    """Holds the application-supplied callbacks plus convenience recording."""

    new_friend: NewFriendCallback | None = None
    incoming_call: IncomingCallCallback | None = None
    #: Session-layer listener; see :class:`repro.api.session.ClientSession`.
    tap: CallbackTap | None = None

    # Recorded events, useful for tests and simple applications.
    friend_requests_seen: list[tuple[str, bytes]] = field(default_factory=list)
    calls_received: list[IncomingCall] = field(default_factory=list)

    def on_new_friend(self, email: str, signing_key: bytes) -> bool:
        self.friend_requests_seen.append((email, signing_key))
        accepted = True if self.new_friend is None else bool(self.new_friend(email, signing_key))
        if self.tap is not None:
            self.tap(
                "friend_request_received",
                {"email": email, "signing_key": signing_key, "accepted": accepted},
            )
        return accepted

    def on_incoming_call(self, call: IncomingCall) -> None:
        self.calls_received.append(call)
        if self.incoming_call is not None:
            self.incoming_call(call.caller, call.intent, call.session_key)
        if self.tap is not None:
            self.tap("call_received", {"call": call})
