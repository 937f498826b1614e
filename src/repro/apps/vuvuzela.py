"""A minimal Vuvuzela-style conversation layer bootstrapped by Alpenhorn.

The paper integrates Alpenhorn into Vuvuzela by replacing Vuvuzela's own
dialing protocol (which assumed out-of-band key distribution and lacked
forward secrecy) with Alpenhorn's ``Call`` (§8.5).  This module provides the
minimal conversation substrate needed to demonstrate that integration:

* a *dead-drop* service where both parties of a conversation deposit and
  fetch fixed-size encrypted messages at a location derived from their
  shared session key (as in Vuvuzela's conversation protocol), and
* a :class:`VuvuzelaMessenger` wrapper around an Alpenhorn client exposing
  ``/addfriend``, ``/call`` and ``send_message`` in the spirit of the two
  commands the paper added to the Vuvuzela client.

The dead-drop service models only what the integration needs (rendezvous by
session key, fixed-size encrypted exchanges); it does not re-implement
Vuvuzela's own mixnet, which is orthogonal to what Alpenhorn contributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.handles import CallHandle, FriendRequestHandle
from repro.api.session import ClientSession
from repro.core.dialtoken import IncomingCall, PlacedCall
from repro.crypto.aead import open_sealed, seal
from repro.crypto.hashing import hkdf
from repro.errors import ProtocolError

MESSAGE_SIZE = 240  # fixed-size conversation messages, Vuvuzela-style


def _dead_drop_id(session_key: bytes, exchange: int) -> bytes:
    """Both ends derive the same drop location from the session key."""
    return hkdf(session_key, info=b"vuvuzela/dead-drop" + exchange.to_bytes(8, "big"), length=32)


def _message_key(session_key: bytes) -> bytes:
    return hkdf(session_key, info=b"vuvuzela/message-key", length=32)


@dataclass
class VuvuzelaConversationService:
    """The dead-drop server: stores one blob per (drop id, participant slot)."""

    _drops: dict[bytes, dict[int, bytes]] = field(default_factory=dict)

    def deposit(self, drop_id: bytes, slot: int, blob: bytes) -> None:
        if slot not in (0, 1):
            raise ProtocolError("a dead drop has exactly two slots")
        self._drops.setdefault(drop_id, {})[slot] = blob

    def fetch(self, drop_id: bytes, slot: int) -> bytes | None:
        return self._drops.get(drop_id, {}).get(slot)

    def exchange_count(self) -> int:
        return len(self._drops)


@dataclass
class Conversation:
    """One end's view of an active conversation."""

    peer: str
    session_key: bytes
    slot: int              # 0 for the caller, 1 for the callee
    exchange: int = 0
    transcript: list[tuple[str, str]] = field(default_factory=list)


class VuvuzelaMessenger:
    """An Alpenhorn-backed messenger: add friends, call, then chat.

    This is the shape of the §8.5 integration: the application keeps its own
    conversation protocol and swaps its bootstrap for Alpenhorn's
    ``AddFriend``/``Call``, wiring ``IncomingCall`` to conversation setup.
    The messenger wraps a client's
    :class:`~repro.api.session.ClientSession`: it subscribes to
    ``call_received`` on the session's event bus, and ``addfriend`` /
    ``call`` return the session's typed handles.
    """

    def __init__(self, session: ClientSession, service: VuvuzelaConversationService) -> None:
        self.service = service
        self.conversations: dict[str, Conversation] = {}
        self.session = session
        session.events.subscribe("call_received", self._on_call_event)

    # -- Alpenhorn-facing side -------------------------------------------
    def _on_call_event(self, event) -> None:
        call: IncomingCall = event["call"]
        self._start_conversation(call.caller, call.session_key, slot=1)

    def addfriend(self, email: str, their_key: bytes | None = None) -> FriendRequestHandle:
        """The ``/addfriend`` command added to the Vuvuzela client."""
        return self.session.add_friend(email, their_key)

    def call(self, email: str, intent: int = 0) -> CallHandle:
        """The ``/call`` command added to the Vuvuzela client."""
        return self.session.call(email, intent)

    def adopt_placed_call(self, placed: PlacedCall) -> Conversation:
        """Caller side: once the call went out, open the conversation."""
        return self._start_conversation(placed.friend, placed.session_key, slot=0)

    def adopt_call_handle(self, handle: CallHandle) -> Conversation:
        """Caller side, session API: open the conversation from a handle."""
        if handle.placed is None:
            raise ProtocolError(
                f"call to {handle.friend} has not gone out yet (state {handle.state.value})"
            )
        return self.adopt_placed_call(handle.placed)

    def _start_conversation(self, peer: str, session_key: bytes, slot: int) -> Conversation:
        conversation = Conversation(peer=peer, session_key=session_key, slot=slot)
        self.conversations[peer] = conversation
        return conversation

    # -- conversation protocol ------------------------------------------------
    def send_message(self, peer: str, text: str) -> None:
        """Seal a fixed-size message into the current exchange's dead drop."""
        conversation = self._conversation(peer)
        payload = text.encode("utf-8")
        if len(payload) > MESSAGE_SIZE - 2:
            raise ProtocolError(f"message longer than {MESSAGE_SIZE - 2} bytes")
        framed = len(payload).to_bytes(2, "big") + payload
        framed += b"\x00" * (MESSAGE_SIZE - len(framed))
        blob = seal(_message_key(conversation.session_key), framed)
        drop = _dead_drop_id(conversation.session_key, conversation.exchange)
        self.service.deposit(drop, conversation.slot, blob)
        conversation.transcript.append(("me", text))

    def receive_message(self, peer: str) -> str | None:
        """Fetch and open the peer's message for the current exchange."""
        conversation = self._conversation(peer)
        drop = _dead_drop_id(conversation.session_key, conversation.exchange)
        blob = self.service.fetch(drop, 1 - conversation.slot)
        if blob is None:
            return None
        framed = open_sealed(_message_key(conversation.session_key), blob)
        length = int.from_bytes(framed[:2], "big")
        text = framed[2 : 2 + length].decode("utf-8")
        conversation.transcript.append((peer, text))
        return text

    def next_exchange(self, peer: str) -> None:
        """Advance to the next dead-drop exchange (both sides must do this)."""
        self._conversation(peer).exchange += 1

    def _conversation(self, peer: str) -> Conversation:
        peer = peer.lower()
        if peer not in self.conversations:
            raise ProtocolError(f"no active conversation with {peer}")
        return self.conversations[peer]
