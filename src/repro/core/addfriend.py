"""Client-side add-friend protocol logic (Algorithm 1 of the paper).

This module is the per-round engine the :class:`~repro.core.client.Client`
delegates to.  For every add-friend round a client:

1. acquires its per-round IBE private-key shares (and PKG attestations) from
   every PKG, authenticating with its long-term signing key;
2. submits exactly one fixed-size request to the mixnet -- a real, IBE
   encrypted friend request if one is queued, otherwise cover traffic;
3. downloads its mailbox, attempts to decrypt every ciphertext with the
   combined identity private key, verifies any requests that decrypt, and
   updates the address book / keywheel accordingly;
4. erases the round's private key shares.

Keywheel anchoring: both sides must agree on the round at which the new
wheel starts.  The rule implemented here is symmetric -- each side anchors
at ``max(dialing round it proposed, dialing round the other side proposed)``
-- which makes the initiator/responder flow and the simultaneous-add flow
converge on the same anchor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.addressbook import AddressBook, FriendshipState, PendingOutgoing, TrustLevel
from repro.core.friendrequest import FriendRequest
from repro.core.identity import UserIdentity
from repro.core.keywheel import Keywheel
from repro.crypto import x25519
from repro.crypto.aead import AEAD_OVERHEAD
from repro.crypto.attestation import DEFAULT_SCHEME, AttestationScheme
from repro.crypto.engine import active_backend
from repro.crypto.ibe.anytrust import AnytrustIbe
from repro.crypto.ibe.interface import IbeCiphertext
from repro.errors import CryptoError, ProtocolError
from repro.mixnet.mailbox import COVER_MAILBOX_ID, mailbox_for_identity
from repro.mixnet.server import encode_inner_payload
from repro.pkg.server import extraction_request_statement
from repro.utils.serialization import Bytes, Message, Rest

# Both IBE backends produce a 128-byte header (uncompressed G2 point for the
# pairing backend, same-sized opaque header for the simulated one), so the
# ciphertext size is plaintext + this constant.
_IBE_HEADER_SIZE = 128
_IBE_FRAMING = 2


def addfriend_body_length(plaintext_size: int) -> int:
    """The fixed on-the-wire body size of one add-friend request.

    Derived purely from wire-format constants, so a round can be announced
    with the correct envelope size before any client exists (the deployment
    must not sample an arbitrary client to learn it).
    """
    return _IBE_FRAMING + _IBE_HEADER_SIZE + AEAD_OVERHEAD + plaintext_size


@dataclass(frozen=True)
class QueuedFriendRequest:
    """An ``AddFriend`` call made by the application, awaiting the next round."""

    email: str
    expected_key: bytes | None = None
    is_reply: bool = False


@dataclass
class RoundKeyMaterial:
    """Per-round secrets a client holds only while the round is in flight."""

    round_number: int
    private_key: object  # combined identity private key (all PKG shares summed)
    attestations: list = field(default_factory=list)


@dataclass
class PreparedReply:
    """The ephemeral key pair generated when accepting an incoming request.

    The confirming request sent in the next round must carry exactly this
    public key (the wheel was already anchored with it).
    """

    dialing_private: bytes
    dialing_public: bytes
    dialing_round: int


#: What add-friend IBE encrypts: the friend request, zero-padded so every
#: request of a round has the same size.
ADDFRIEND_PLAINTEXT = Message("addfriend_plaintext", Bytes("friend_request"), Rest("padding"))


def padded_plaintext(request: FriendRequest, target_size: int) -> bytes:
    """Pad a serialized friend request to the round's fixed plaintext size."""
    raw = request.to_bytes()
    size = ADDFRIEND_PLAINTEXT.fixed_size + len(raw)
    if size > target_size:
        raise ProtocolError(
            f"friend request ({size} bytes) exceeds the configured "
            f"plaintext size ({target_size} bytes)"
        )
    return ADDFRIEND_PLAINTEXT.encode(raw, bytes(target_size - size))


def unpad_plaintext(plaintext: bytes) -> FriendRequest:
    raw, _padding = ADDFRIEND_PLAINTEXT.decode(plaintext)
    return FriendRequest.from_bytes(raw)


class AddFriendEngine:
    """Implements Algorithm 1 for one client."""

    def __init__(
        self,
        identity: UserIdentity,
        address_book: AddressBook,
        keywheel: Keywheel,
        ibe: AnytrustIbe,
        plaintext_size: int,
        attestation: AttestationScheme | None = None,
    ) -> None:
        self.identity = identity
        self.address_book = address_book
        self.keywheel = keywheel
        self.ibe = ibe
        self.plaintext_size = plaintext_size
        self.attestation = attestation if attestation is not None else DEFAULT_SCHEME
        self.queue: list[QueuedFriendRequest] = []
        self._round_keys: dict[int, RoundKeyMaterial] = {}
        self._prepared_replies: dict[str, PreparedReply] = {}
        # Idempotency state for re-sent requests (sender-side retry): the
        # dialing key of the last request we accepted/answered per sender,
        # and the reply key material we already used, so a duplicate of an
        # already-answered request re-sends the *same* reply instead of
        # re-anchoring the wheel with fresh keys (which would desync a
        # recipient who answered the first copy).
        self._accepted_requests: dict[str, bytes] = {}
        self._sent_replies: dict[str, PreparedReply] = {}
        #: What the most recent build consumed: ``(round, request, prepared
        #: reply or None)``, or None for cover traffic.  The session layer
        #: attributes a standing submission to its handle from it, and
        #: :meth:`requeue` puts a lost one back.
        self.last_consumed: (
            tuple[int, QueuedFriendRequest, PreparedReply | None] | None
        ) = None

    # -- queueing (driven by the public API) ------------------------------
    def enqueue(self, request: QueuedFriendRequest) -> None:
        self.queue.append(request)

    def pending_in_queue(self) -> int:
        return len(self.queue)

    # -- step 1: acquire round keys -----------------------------------------
    def extraction_signature(self, round_number: int) -> bytes:
        """Sign this round's extraction request (shared by every PKG's RPC)."""
        statement = extraction_request_statement(self.identity.email, round_number)
        return self.identity.sign(statement)

    def install_round_keys(self, round_number: int, responses: list) -> RoundKeyMaterial:
        """Combine per-PKG extraction responses into this round's material.

        The round driver issues the extraction RPCs (one transport wave per
        PKG across all clients) and hands each client's responses here.
        """
        shares = [response.private_key_share for response in responses]
        attestations = [response.attestation for response in responses]
        combined = self.ibe.aggregate_private(shares)
        material = RoundKeyMaterial(
            round_number=round_number, private_key=combined, attestations=attestations
        )
        self._round_keys[round_number] = material
        return material

    def has_round_keys(self, round_number: int) -> bool:
        return round_number in self._round_keys

    def erase_round_keys(self, round_number: int) -> None:
        """Forward secrecy: drop the identity key once the mailbox is scanned."""
        self._round_keys.pop(round_number, None)

    # -- step 2: build this round's request ------------------------------------
    def body_length(self) -> int:
        """The fixed length of every add-friend request body this client sends."""
        return addfriend_body_length(self.plaintext_size)

    def build_request_payload(
        self,
        round_number: int,
        dialing_round: int,
        pkg_public_keys: list,
        mailbox_count: int,
    ) -> tuple[bytes, QueuedFriendRequest | None]:
        """Return the inner payload (mailbox id + body) for this round.

        Consumes at most one queued friend request; with an empty queue the
        payload is cover traffic addressed to the cover mailbox.
        """
        material = self._round_keys.get(round_number)
        if material is None:
            raise ProtocolError(f"round {round_number} keys were not acquired")

        if not self.queue:
            self.last_consumed = None
            body = b"\x00" * self.body_length()
            return encode_inner_payload(COVER_MAILBOX_ID, body), None

        queued = self.queue.pop(0)
        prepared = self._prepared_replies.pop(queued.email.lower(), None)
        self.last_consumed = (round_number, queued, prepared)
        if prepared is not None:
            dialing_private = prepared.dialing_private
            dialing_public = prepared.dialing_public
            request_dialing_round = prepared.dialing_round
            # Keep the reply re-sendable: if the recipient retries their
            # request because this reply got lost, we must answer with the
            # same key material (the wheel is already anchored with it).
            self._sent_replies[queued.email.lower()] = prepared
        else:
            pending = self.address_book.pending_outgoing(queued.email)
            if pending is not None:
                # A re-send (sender-side retry, or a requeue after a lost
                # envelope) of a request that is still outstanding: reuse
                # the pending ephemeral so every copy carries the same key
                # and proposed round.  A recipient who answered an earlier
                # copy anchored their wheel with exactly this key; a fresh
                # one would silently desync the two wheels.
                dialing_private = pending.dialing_private
                dialing_public = pending.dialing_public
                request_dialing_round = pending.dialing_round
            else:
                dialing_private = x25519.generate_private_key()
                dialing_public = active_backend().public_key(dialing_private)
                request_dialing_round = dialing_round

        request = FriendRequest.build(
            sender_email=self.identity.email,
            sender_signing_private=self.identity.signing_private,
            sender_signing_public=self.identity.signing_public,
            pkg_attestations=material.attestations,
            pkg_round=round_number,
            dialing_key=dialing_public,
            dialing_round=request_dialing_round,
            is_confirmation=prepared is not None,
            attestation_scheme=self.attestation,
        )
        plaintext = padded_plaintext(request, self.plaintext_size)
        ciphertext = self.ibe.encrypt(pkg_public_keys, queued.email, plaintext)
        body = ciphertext.to_bytes()
        if len(body) != self.body_length():
            raise ProtocolError(
                f"IBE ciphertext size {len(body)} does not match the fixed "
                f"request size {self.body_length()}"
            )

        if not queued.is_reply:
            # Only an *initial* request creates pending state; a confirming
            # reply corresponds to a wheel that is already anchored.
            self.address_book.add_pending_outgoing(
                PendingOutgoing(
                    email=queued.email,
                    dialing_private=dialing_private,
                    dialing_public=dialing_public,
                    dialing_round=request_dialing_round,
                    expected_key=queued.expected_key,
                )
            )
            self.address_book.upsert_friend(
                queued.email,
                state=FriendshipState.REQUEST_SENT,
                trust=TrustLevel.VERIFIED if queued.expected_key else TrustLevel.TOFU,
                signing_key=queued.expected_key,
            )
        mailbox_id = mailbox_for_identity(queued.email, mailbox_count)
        return encode_inner_payload(mailbox_id, body), queued

    def requeue(self, round_number: int) -> None:
        """Undo ``round_number``'s build: its envelope never entered the round.

        The request goes back to the front of the queue (and a confirming
        reply's prepared key pair is restored, since the wheel is already
        anchored with it), so the next round re-sends it.  The
        pending-outgoing record an initial request created is left in place;
        the re-send *reuses* its ephemeral key (see build_request_payload),
        so every copy of an outstanding request carries identical key
        material and a recipient can answer any of them.  A request built in
        an earlier round entered that round and never comes back.
        """
        if self.last_consumed is None or self.last_consumed[0] != round_number:
            return
        _, queued, prepared = self.last_consumed
        self.last_consumed = None
        self.queue.insert(0, queued)
        if prepared is not None:
            self._prepared_replies[queued.email.lower()] = prepared

    # -- step 3: scan the mailbox ------------------------------------------------
    def scan_mailbox(
        self,
        round_number: int,
        ciphertexts: list[bytes],
        aggregate_pkg_public,
        accept_friend,
        current_dialing_round: int,
    ) -> list[dict]:
        """Try to decrypt and process every ciphertext in the mailbox.

        ``accept_friend(email, signing_key) -> bool`` is the client
        session's accept hook, which applies its ``accept_friend`` policy
        and publishes the request.  Returns a list of event dicts describing
        what happened (confirmations, new friendships, declines,
        rejections); the session turns these into API-level effects.
        """
        material = self._round_keys.get(round_number)
        if material is None:
            raise ProtocolError(f"round {round_number} keys were not acquired")

        events: list[dict] = []
        for blob in ciphertexts:
            request = self._try_decode(blob, material)
            if request is None:
                continue
            event = self._process_request(
                request, aggregate_pkg_public, accept_friend, current_dialing_round
            )
            if event is not None:
                events.append(event)
        return events

    def _try_decode(self, blob: bytes, material: RoundKeyMaterial) -> FriendRequest | None:
        """Attempt to decrypt one mailbox entry; None if it is not for us."""
        try:
            ciphertext = IbeCiphertext.from_bytes(blob)
        except ValueError:
            return None
        plaintext = self.ibe.backend.decrypt(material.private_key, ciphertext)
        if plaintext is None:
            return None
        try:
            return unpad_plaintext(plaintext)
        except Exception:
            return None

    def _process_request(
        self,
        request: FriendRequest,
        aggregate_pkg_public,
        accept_friend,
        current_dialing_round: int,
    ) -> dict | None:
        sender = request.sender_email.lower()
        if sender == self.identity.email:
            return None

        pending = self.address_book.pending_outgoing(sender)
        expected_key = pending.expected_key if pending is not None else None
        if expected_key is None and self.address_book.has_friend(sender):
            friend = self.address_book.friend(sender)
            if friend.trust is TrustLevel.VERIFIED:
                expected_key = friend.signing_key

        if not request.verify(
            aggregate_pkg_public,
            expected_sender_key=expected_key,
            attestation_scheme=self.attestation,
        ):
            return {"type": "rejected", "email": sender, "reason": "verification failed"}

        # TOFU: a key that conflicts with one we already recorded is an alarm.
        if not self.address_book.record_observed_key(sender, request.sender_key):
            return {"type": "rejected", "email": sender, "reason": "key mismatch (possible MITM)"}

        if pending is not None:
            # We previously sent them a request: this is the confirmation leg
            # (or a simultaneous add from both sides -- same math either way).
            shared = active_backend().shared_secret(pending.dialing_private, request.dialing_key)
            anchor = max(pending.dialing_round, request.dialing_round)
            self.keywheel.add_friend(sender, shared, anchor)
            self.address_book.pop_pending_outgoing(sender)
            self.address_book.upsert_friend(
                sender,
                state=FriendshipState.CONFIRMED,
                signing_key=request.sender_key,
                established_round=anchor,
            )
            # Remember what we answered (and with which of our keys) so a
            # duplicate of this request -- the other side retrying because
            # our own request/reply has not reached them -- is answered
            # identically instead of re-anchoring the wheel.
            self._accepted_requests[sender] = request.dialing_key
            self._sent_replies[sender] = PreparedReply(
                dialing_private=pending.dialing_private,
                dialing_public=pending.dialing_public,
                dialing_round=pending.dialing_round,
            )
            return {"type": "confirmed", "email": sender, "dialing_round": anchor}

        if (
            self.keywheel.has_friend(sender)
            and self._accepted_requests.get(sender) == request.dialing_key
        ):
            # A duplicate of a request we already answered.  If it is an
            # *initial* request, the sender retried because our confirming
            # reply has not reached them: the wheel is already anchored, so
            # re-send the same reply (unless one is still queued) rather
            # than accepting afresh.  A duplicated *confirmation* is never
            # answered -- the confirmed initiator needs nothing, and
            # responding would make two confirmed peers answer each other's
            # re-sends forever.
            if not request.is_confirmation and sender not in self._prepared_replies:
                sent = self._sent_replies.get(sender)
                if sent is not None:
                    self._prepared_replies[sender] = sent
                    self.queue.append(QueuedFriendRequest(email=sender, is_reply=True))
            return {"type": "duplicate", "email": sender}

        # A brand-new incoming request: ask the application.
        if not accept_friend(sender, request.sender_key):
            self.address_book.upsert_friend(
                sender, state=FriendshipState.REQUEST_RECEIVED, signing_key=request.sender_key
            )
            return {"type": "declined", "email": sender}

        # Accepting: generate our ephemeral key now, anchor the wheel, and
        # queue the confirming request for the next round (Algorithm 1 step 5).
        dialing_private = x25519.generate_private_key()
        [(dialing_public, shared)] = active_backend().keypair_exchange_many(
            [dialing_private], request.dialing_key
        )
        if shared is None:
            raise CryptoError("X25519 produced the all-zero shared secret")
        reply_round = max(request.dialing_round, current_dialing_round + 1)
        anchor = max(request.dialing_round, reply_round)
        self.keywheel.add_friend(sender, shared, anchor)
        self.address_book.upsert_friend(
            sender,
            state=FriendshipState.CONFIRMED,
            signing_key=request.sender_key,
            established_round=anchor,
        )
        self._accepted_requests[sender] = request.dialing_key
        self._prepared_replies[sender] = PreparedReply(
            dialing_private=dialing_private,
            dialing_public=dialing_public,
            dialing_round=reply_round,
        )
        self.queue.append(QueuedFriendRequest(email=sender, is_reply=True))
        return {"type": "accepted", "email": sender, "dialing_round": anchor}
