"""The client session: typed handles, events, and sender retry.

:class:`ClientSession` is the client API.  Every
:class:`~repro.core.client.Client` owns exactly one, built with it as
``client.session`` (``Deployment.session(email)`` returns it).  Where the
client's own ``add_friend`` / ``call`` are fire-and-forget, a session returns
:class:`~repro.api.handles.FriendRequestHandle` and
:class:`~repro.api.handles.CallHandle` objects whose lifecycle the round
engine advances, and publishes every observable state change on an
:class:`~repro.api.events.EventBus`.  The paper's two Figure-1 callbacks are
the session's too: ``accept_friend`` is the ``NewFriend`` policy, and every
``IncomingCall`` is recorded (:meth:`ClientSession.received_calls`) and
published as ``call_received``.

The session also runs the *outbox state machine* the paper leaves to
applications: a friend request still unconfirmed ``retry_horizon``
add-friend rounds after its last submission is re-enqueued automatically (a
request delivered into a round its recipient missed is unrecoverable -- the
recipient never held that round's IBE key -- so sender-side retry is the
only liveness mechanism).

The client's scan paths and :class:`~repro.core.roundengine.RoundEngine`
call the session directly (what was submitted, what each round delivered,
which scans produced confirmations, which rounds aborted); those hooks are
the underscored methods below.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.api.events import EventBus
from repro.api.handles import CallHandle, FriendRequestHandle, RequestState
from repro.core.addfriend import QueuedFriendRequest
from repro.core.dialtoken import IncomingCall
from repro.errors import ProtocolError
from repro.obs.privacy import PAPER_ACTION_BUDGETS

if TYPE_CHECKING:  # the client builds its session: no import cycle at load time
    from repro.core.client import Client

__all__ = ["ClientSession"]


class ClientSession:
    """One application's view of its embedded Alpenhorn client.

    The outbox reads the client's :class:`~repro.core.config.AlpenhornConfig`:
    ``retry_horizon`` re-enqueues a friend request still unconfirmed this
    many add-friend rounds after its last submission (``None`` disables
    retry, matching the paper's bare library);
    ``dialing_redial_attempts`` re-dials a call whose round aborted (deduped
    by (friend, intent)) until it has entered that many rounds in total
    (``None`` keeps a dead round's calls terminally FAILED, the paper's
    bare-library behavior).

    Two plain attributes are the application's to set:
    ``accept_friend(email, signing_key) -> bool`` is the ``NewFriend``
    policy (``None``: every request is accepted), and ``max_attempts``
    bounds the total submissions per friend request (``None``: unbounded).
    """

    def __init__(self, client: Client) -> None:
        self.client = client
        self.events = EventBus()
        self.accept_friend: Callable[[str, bytes], bool] | None = None
        self.max_attempts: int | None = None
        self._requests: dict[str, FriendRequestHandle] = {}
        self._calls: list[CallHandle] = []
        #: Every call received, in arrival order (the bus history is capped).
        self._received: list[IncomingCall] = []
        #: Privacy-relevant actions this session actually submitted: real
        #: friend requests and placed dials (cover traffic excluded).  The
        #: privacy ledger reads these against the §8.1 lifetime budgets.
        self.action_counts: dict[str, int] = {"add-friend": 0, "dialing": 0}
        #: Lifetime budgets the counts are judged against; crossing one
        #: emits a ``privacy_budget_exceeded`` event on this session's bus.
        self.action_budgets: dict[str, int] = dict(PAPER_ACTION_BUDGETS)

    @property
    def retry_horizon(self) -> int | None:
        return self.client.config.retry_horizon

    # ------------------------------------------------------------------ #
    # The application-facing API
    # ------------------------------------------------------------------ #
    def friends(self) -> list[str]:
        return self.client.friends()

    def add_friend(self, email: str, expected_key: bytes | None = None) -> FriendRequestHandle:
        """Queue a friend request; returns its lifecycle handle.

        Idempotent while a request for ``email`` is in flight: the existing
        handle is returned rather than a duplicate queued.  Supplying a
        *different* ``expected_key`` for an in-flight request raises -- the
        trust level of an outstanding request cannot be upgraded silently.
        """
        email = email.lower()
        active = self._requests.get(email)
        if active is not None and not active.done():
            if expected_key is not None and expected_key != active.expected_key:
                raise ProtocolError(
                    f"a request to {email} is already in flight with a different "
                    "expected key; wait for it to finish (or remove the friend) "
                    "before re-adding with verified trust"
                )
            return active
        request = self.client.add_friend(email, expected_key)
        handle = FriendRequestHandle(email=email, expected_key=expected_key, request=request)
        self._requests[email] = handle
        self.events.emit("request_queued", email=email)
        return handle

    def call(self, email: str, intent: int = 0) -> CallHandle:
        """Queue a call to a confirmed friend; returns its lifecycle handle."""
        email = email.lower()
        outgoing = self.client.call(email, intent)
        handle = CallHandle(friend=email, intent=intent, outgoing=outgoing)
        self._calls.append(handle)
        return handle

    def pending_requests(self) -> list[FriendRequestHandle]:
        return [h for h in self._requests.values() if not h.done()]

    def received_calls(self) -> list[IncomingCall]:
        return list(self._received)

    # ------------------------------------------------------------------ #
    # Privacy budget accounting (§8.1)
    # ------------------------------------------------------------------ #
    def _note_action(self, protocol: str, round_number: int) -> None:
        """Count one real submitted action against the lifetime budget.

        Cover-only rounds never reach here (the submitted hooks bail out
        before emitting), so the counts track exactly the actions the DP
        budget protects.  Crossing the budget is announced once.
        """
        self.action_counts[protocol] = self.action_counts.get(protocol, 0) + 1
        budget = self.action_budgets.get(protocol)
        if budget is not None and self.action_counts[protocol] == budget + 1:
            self.events.emit(
                "privacy_budget_exceeded",
                round_number=round_number,
                protocol=protocol,
                actions=self.action_counts[protocol],
                budget=budget,
            )

    # ------------------------------------------------------------------ #
    # Scan-time hooks (the client's mailbox scans)
    # ------------------------------------------------------------------ #
    def _on_friend_request(self, email: str, signing_key: bytes) -> bool:
        """An incoming request decrypted and verified: apply the policy."""
        accepted = self.accept_friend is None or bool(self.accept_friend(email, signing_key))
        self.events.emit(
            "friend_request_received", email=email, signing_key=signing_key, accepted=accepted
        )
        return accepted

    def _on_incoming_call(self, call: IncomingCall) -> None:
        self._received.append(call)
        self.events.emit(
            "call_received", email=call.caller, round_number=call.round_number, call=call
        )

    # ------------------------------------------------------------------ #
    # Round-engine feed
    # ------------------------------------------------------------------ #
    def _submitted(self, protocol: str, round_number: int) -> None:
        if protocol == "add-friend":
            self._addfriend_submitted(round_number)
        else:
            self._dialing_submitted(round_number)

    def _addfriend_submitted(self, round_number: int) -> None:
        consumed = self.client.addfriend.last_consumed
        if consumed is None or consumed[1].is_reply:
            return
        request = consumed[1]
        handle = self._requests.get(request.email.lower())
        if handle is None or handle.request is not request or handle.done():
            return
        handle.state = RequestState.SUBMITTED
        handle.round_submitted = round_number
        handle.rounds_submitted.append(round_number)
        handle.attempts += 1
        self._note_action("add-friend", round_number)
        self.events.emit(
            "request_submitted",
            email=handle.email,
            round_number=round_number,
            attempts=handle.attempts,
        )

    def _dialing_submitted(self, round_number: int) -> None:
        built = self.client.dialing.last_built
        if built is None:
            return
        # Every real dial counts against the budget, whether it was placed
        # through a handle or through the client's bare ``call``.
        self._note_action("dialing", round_number)
        outgoing, placed, _ = built
        for handle in self._calls:
            if handle.outgoing is outgoing and handle.state is RequestState.QUEUED:
                handle.state = RequestState.SUBMITTED
                handle.round_submitted = round_number
                handle.placed = placed
                handle.attempts += 1
                self.events.emit(
                    "call_placed",
                    email=handle.friend,
                    round_number=round_number,
                    intent=handle.intent,
                )
                return

    def _round_delivered(self, protocol: str, round_number: int) -> None:
        if protocol == "add-friend":
            for handle in self._requests.values():
                if (
                    handle.state is RequestState.SUBMITTED
                    and handle.round_submitted == round_number
                ):
                    handle.state = RequestState.DELIVERED
                    self.events.emit(
                        "request_delivered", email=handle.email, round_number=round_number
                    )
        else:
            for handle in self._calls:
                if (
                    handle.state is RequestState.SUBMITTED
                    and handle.round_submitted == round_number
                ):
                    handle.state = RequestState.DELIVERED
                    self.events.emit(
                        "call_delivered", email=handle.friend, round_number=round_number
                    )

    def _round_aborted(self, protocol: str, round_number: int) -> None:
        if protocol == "add-friend":
            for handle in self._requests.values():
                if (
                    handle.state is not RequestState.SUBMITTED
                    or handle.round_submitted != round_number
                ):
                    continue
                if self.retry_horizon:
                    # The envelope died with the round; the handle stays
                    # SUBMITTED and the retry pass re-enqueues it later.
                    continue
                # No retry: the request is provably lost (the round erased
                # every envelope), so the handle must reach a terminal state
                # rather than hang non-terminal forever.
                handle.state = RequestState.FAILED
                self.events.emit(
                    "request_failed",
                    email=handle.email,
                    round_number=round_number,
                    attempts=handle.attempts,
                    reason="round aborted",
                )
            return
        for handle in self._calls:
            if handle.state is RequestState.SUBMITTED and handle.round_submitted == round_number:
                # The token died with the round: the callee never derived
                # this key, so the handle must not advertise one.
                handle.placed = None
                if self._try_redial(handle, round_number):
                    continue
                handle.state = RequestState.FAILED
                self.events.emit("call_failed", email=handle.friend, round_number=round_number)

    def _try_redial(self, handle: CallHandle, round_number: int) -> bool:
        """The dialing outbox: re-enqueue an aborted call for the next round.

        Bounded by ``dialing_redial_attempts`` total dials and deduped by
        ``(friend, intent)``: if another live handle already covers the same
        intent, this one is left to fail -- a second dial would either burn
        a round slot or ring the callee twice for one intention.
        """
        limit = self.client.config.dialing_redial_attempts
        if not limit or handle.attempts >= limit:
            return False
        for other in self._calls:
            if (
                other is not handle
                and other.friend == handle.friend
                and other.intent == handle.intent
                and other.state in (RequestState.QUEUED, RequestState.SUBMITTED)
            ):
                return False
        try:
            outgoing = self.client.call(handle.friend, handle.intent)
        except ProtocolError:
            # The keywheel is gone (friend removed mid-flight): nothing to
            # re-dial with; let the handle fail.
            return False
        handle.outgoing = outgoing
        handle.state = RequestState.QUEUED
        self.events.emit(
            "call_retrying",
            email=handle.friend,
            round_number=round_number,
            attempts=handle.attempts,
        )
        return True

    def _apply_scan_events(self, round_number: int, events: list[dict]) -> None:
        for event in events:
            kind = event.get("type")
            email = event.get("email", "")
            if kind == "confirmed":
                self._confirm(email, round_number, event.get("dialing_round"))
            elif kind == "declined":
                self.events.emit("friend_request_declined", email=email, round_number=round_number)
            elif kind == "rejected":
                self.events.emit(
                    "friend_request_rejected",
                    email=email,
                    round_number=round_number,
                    reason=event.get("reason"),
                )
            # "accepted" already surfaced as friend_request_received at scan
            # time (_on_friend_request); nothing handle-side to do.

    def _confirm(self, email: str, round_number: int, keywheel_round: int | None) -> None:
        handle = self._requests.get(email.lower())
        friend = (
            self.client.address_book.friend(email)
            if self.client.address_book.has_friend(email)
            else None
        )
        signing_key = friend.signing_key if friend is not None else None
        if handle is not None and handle.state is not RequestState.CONFIRMED:
            # A confirmation overrides FAILED too: the retry budget may run
            # out while the last copy's confirmation is still in flight, and
            # the handle must end up agreeing with the address book.
            handle.state = RequestState.CONFIRMED
            handle.confirmed_round = round_number
            handle.confirmed_by = signing_key
        self.events.emit(
            "friend_confirmed",
            email=email,
            round_number=round_number,
            signing_key=signing_key,
            keywheel_round=keywheel_round,
        )

    def _retry_pass(self, round_number: int) -> None:
        """Re-enqueue requests unconfirmed past the horizon (outbox machine)."""
        if not self.retry_horizon:
            return
        for handle in self._requests.values():
            if handle.state not in (RequestState.SUBMITTED, RequestState.DELIVERED):
                continue
            if handle.round_submitted is None:
                continue
            if round_number - handle.round_submitted < self.retry_horizon:
                continue
            if self.max_attempts is not None and handle.attempts >= self.max_attempts:
                handle.state = RequestState.FAILED
                self.events.emit(
                    "request_failed",
                    email=handle.email,
                    round_number=round_number,
                    attempts=handle.attempts,
                    reason="retry budget exhausted",
                )
                continue
            request = QueuedFriendRequest(email=handle.email, expected_key=handle.expected_key)
            self.client.addfriend.enqueue(request)
            handle.request = request
            handle.state = RequestState.QUEUED
            self.events.emit(
                "request_retrying",
                email=handle.email,
                round_number=round_number,
                attempts=handle.attempts,
            )
