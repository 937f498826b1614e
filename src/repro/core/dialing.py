"""Client-side dialing protocol logic (§5 of the paper).

The dialing protocol is the cheap, symmetric-key half of Alpenhorn: once a
keywheel is established, calling a friend means sending a single 256-bit
dial token through the mixnet to the friend's dialing mailbox; checking for
incoming calls means downloading one Bloom filter and testing the tokens
every friend could have sent this round.

Each dialing round a client:

1. submits one fixed-size request -- the dial token for at most one queued
   call, otherwise cover traffic;
2. downloads its Bloom-filter mailbox and scans it with every
   (friend, intent) token derivable from its keywheels;
3. advances every keywheel past the round and erases the old secrets
   (forward secrecy for dialing metadata).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dialtoken import DIAL_TOKEN_SIZE, IncomingCall, OutgoingCall, PlacedCall
from repro.core.keywheel import Keywheel
from repro.errors import ProtocolError
from repro.mixnet.mailbox import COVER_MAILBOX_ID, DialingMailbox, mailbox_for_identity
from repro.mixnet.server import encode_inner_payload


@dataclass
class DialingEngine:
    """Implements the dialing rounds for one client."""

    keywheel: Keywheel
    num_intents: int
    queue: list[OutgoingCall] = field(default_factory=list)
    placed_calls: list[PlacedCall] = field(default_factory=list)
    # Tokens we sent this round, so we do not mistake them for incoming calls
    # when our own mailbox happens to coincide with the callee's.
    _sent_tokens: dict[int, set[bytes]] = field(default_factory=dict)
    #: The (outgoing call, placed record, token) of the most recent build,
    #: or None for cover traffic.  The session layer attributes a standing
    #: submission to its CallHandle from it, and :meth:`requeue` withdraws a
    #: lost one.
    last_built: tuple[OutgoingCall, PlacedCall, bytes] | None = None

    # -- queueing ---------------------------------------------------------
    def enqueue(self, call: OutgoingCall) -> None:
        if call.intent < 0 or call.intent >= self.num_intents:
            raise ProtocolError(
                f"intent {call.intent} outside the configured range "
                f"[0, {self.num_intents})"
            )
        if not self.keywheel.has_friend(call.friend):
            raise ProtocolError(
                f"cannot call {call.friend}: no keywheel entry (add them as a friend first)"
            )
        self.queue.append(call)

    def pending_in_queue(self) -> int:
        return len(self.queue)

    # -- step 1: build this round's request -----------------------------------
    def build_request_payload(self, round_number: int, mailbox_count: int) -> tuple[bytes, PlacedCall | None]:
        """One payload per round: a real dial token or cover traffic."""
        ready = None
        for index, call in enumerate(self.queue):
            entry = self.keywheel.entry(call.friend)
            if entry.round_number <= round_number:
                ready = self.queue.pop(index)
                break
        if ready is None:
            self.last_built = None
            body = b"\x00" * DIAL_TOKEN_SIZE
            return encode_inner_payload(COVER_MAILBOX_ID, body), None

        token = self.keywheel.dial_token(ready.friend, round_number, ready.intent)
        session_key = self.keywheel.session_key(ready.friend, round_number, ready.intent)
        placed = PlacedCall(
            friend=ready.friend,
            intent=ready.intent,
            round_number=round_number,
            session_key=session_key,
        )
        self.placed_calls.append(placed)
        self._sent_tokens.setdefault(round_number, set()).add(token)
        self.last_built = (ready, placed, token)
        mailbox_id = mailbox_for_identity(ready.friend, mailbox_count)
        return encode_inner_payload(mailbox_id, token), placed

    def requeue(self, round_number: int) -> None:
        """Undo ``round_number``'s build: its token never entered the round.

        The call returns to the front of the queue and the speculative
        placed-call record and sent-token marker are withdrawn.  A call
        built in an earlier round entered that round and never comes back.
        """
        if self.last_built is None or self.last_built[1].round_number != round_number:
            return
        call, placed, token = self.last_built
        self.last_built = None
        self.queue.insert(0, call)
        self.placed_calls.remove(placed)
        self._sent_tokens.get(round_number, set()).discard(token)

    # -- step 2: scan the Bloom filter -----------------------------------------
    def scan_mailbox(self, round_number: int, mailbox: DialingMailbox) -> list[IncomingCall]:
        """Check every (friend, intent) token against the round's Bloom filter."""
        expected = self.keywheel.expected_tokens(round_number, self.num_intents)
        sent = self._sent_tokens.get(round_number, set())
        calls: list[IncomingCall] = []
        for token, (friend, intent) in expected.items():
            if token in sent:
                continue
            if token in mailbox:
                calls.append(
                    IncomingCall(
                        caller=friend,
                        intent=intent,
                        round_number=round_number,
                        session_key=self.keywheel.session_key(friend, round_number, intent),
                    )
                )
        return calls

    # -- step 3: move the wheels forward ------------------------------------------
    def finish_round(self, round_number: int) -> None:
        """Advance all keywheels past ``round_number`` and erase old state."""
        self.keywheel.advance_to(round_number + 1)
        self._sent_tokens.pop(round_number, None)
