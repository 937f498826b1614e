"""The Alpenhorn client: the Figure 1 API on top of the round engines.

A :class:`Client` owns a user identity, an address book, a keywheel table,
and the add-friend / dialing engines.  Applications interact with it through
the same surface the paper's Go library exposes:

* :meth:`register`       -- create the account (email confirmation at every PKG;
  :func:`register_clients` brings any number of clients up in the same two
  waves),
* :meth:`my_signing_key` -- the long-term key to print on a business card,
* :meth:`add_friend`     -- queue a friend request to an email address,
* :meth:`call`           -- queue a call to an established friend,
* :attr:`session`        -- the client's one
  :class:`~repro.api.session.ClientSession`, which holds the paper's two
  callbacks: the ``NewFriend`` policy (``session.accept_friend``) and every
  ``IncomingCall`` (``call_received`` on ``session.events``).

The client is driven in rounds by a :class:`~repro.core.coordinator.Deployment`
(or by an application's own loop).  The round driver owns every RPC and the
onion wrapping (both are waves over all clients, see
:mod:`repro.core.roundengine`); the client contributes the per-user steps:
``build_addfriend_inner`` / ``process_addfriend_mailbox`` and
``build_dialing_inner`` / ``process_dialing_mailbox``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.addfriend import AddFriendEngine, QueuedFriendRequest
from repro.core.addressbook import AddressBook, FriendshipState
from repro.core.config import ADDFRIEND_REQUEST_SIZE, AlpenhornConfig
from repro.core.dialing import DialingEngine
from repro.core.dialtoken import IncomingCall, OutgoingCall, PlacedCall
from repro.core.identity import UserIdentity
from repro.core.keywheel import Keywheel
from repro.crypto.attestation import get_scheme
from repro.crypto.ibe.anytrust import AnytrustIbe
from repro.errors import ProtocolError
from repro.net.transport import raise_first_error
from repro.pkg.registration import confirmation_sender
from repro.pkg.server import PkgServer


@dataclass
class ClientStats:
    """Counters used by tests and the bandwidth accounting."""

    addfriend_rounds: int = 0
    dialing_rounds: int = 0
    real_friend_requests_sent: int = 0
    cover_friend_requests_sent: int = 0
    real_dials_sent: int = 0
    cover_dials_sent: int = 0
    mailbox_bytes_downloaded: int = 0
    bloom_bytes_downloaded: int = 0


class Client:
    """One user's Alpenhorn client."""

    def __init__(
        self,
        email: str,
        config: AlpenhornConfig,
        ibe: AnytrustIbe,
        signing_seed: bytes | None = None,
    ) -> None:
        # Imported here: repro.api.session imports repro.core, so a
        # module-level import would close a cycle at load time.
        from repro.api.session import ClientSession

        self.config = config
        self.identity = UserIdentity.create(email, seed=signing_seed)
        self.address_book = AddressBook()
        self.keywheel = Keywheel()
        self.ibe = ibe
        self.attestation = get_scheme(config.attestation_backend)
        self.addfriend = AddFriendEngine(
            identity=self.identity,
            address_book=self.address_book,
            keywheel=self.keywheel,
            ibe=ibe,
            plaintext_size=ADDFRIEND_REQUEST_SIZE,
            attestation=self.attestation,
        )
        self.dialing = DialingEngine(keywheel=self.keywheel, num_intents=config.num_intents)
        self.stats = ClientStats()
        self.registered = False
        self.session = ClientSession(self)

    # ------------------------------------------------------------------ #
    # Figure 1 API
    # ------------------------------------------------------------------ #
    @property
    def email(self) -> str:
        return self.identity.email

    def my_signing_key(self) -> bytes:
        """``MySigningKey()``: the long-term public key to share out-of-band."""
        return self.identity.signing_public

    def register(self, pkg_stubs: list, email_network) -> None:
        """``Register()``: prove ownership of the email address to every PKG.

        ``pkg_stubs`` are the :class:`~repro.net.rpc.PkgStub`\\ s a deployment
        hands out.  This is :func:`register_clients` for one client: two
        waves, begin then confirm, each to every PKG at once.
        """
        register_clients([self], pkg_stubs, email_network)

    def add_friend(self, email: str, their_signing_key: bytes | None = None) -> QueuedFriendRequest:
        """``AddFriend()``: queue a friend request for the next add-friend round.

        Returns the queue entry, which the session layer uses to correlate
        the eventual submission with its handle.
        """
        email = email.lower()
        if email == self.email:
            raise ProtocolError("cannot add yourself as a friend")
        try:
            email.encode()
        except UnicodeEncodeError:
            raise ProtocolError(f"{email!r} is not a UTF-8 encodable address") from None
        if self.keywheel.has_friend(email):
            raise ProtocolError(f"{email} is already a friend")
        request = QueuedFriendRequest(email=email, expected_key=their_signing_key)
        self.addfriend.enqueue(request)
        return request

    def call(self, email: str, intent: int = 0) -> OutgoingCall:
        """``Call()``: queue a call; the session key is delivered when the
        next dialing round in which the keywheel is live completes.

        Returns the queue entry, which the session layer uses to correlate
        the eventual dial with its handle.
        """
        outgoing = OutgoingCall(friend=email.lower(), intent=intent)
        self.dialing.enqueue(outgoing)
        return outgoing

    def friends(self) -> list[str]:
        """Confirmed friends (those with an established keywheel)."""
        return [f.email for f in self.address_book.confirmed_friends()]

    def remove_friend(self, email: str) -> None:
        """Erase a friendship and its keywheel (§3.2's unlinking escape hatch)."""
        self.address_book.remove_friend(email)
        self.keywheel.remove_friend(email)

    def placed_calls(self) -> list[PlacedCall]:
        return list(self.dialing.placed_calls)

    def received_calls(self) -> list[IncomingCall]:
        return self.session.received_calls()

    # ------------------------------------------------------------------ #
    # Compromise recovery (§9)
    # ------------------------------------------------------------------ #
    def recover_from_compromise(self, pkg_stubs: list, email_network) -> None:
        """Deregister, rotate the signing key, re-register, and drop keywheels.

        After recovery the user re-runs ``add_friend`` with each friend to
        establish fresh keywheels (the paper recommends restoring friends'
        long-term keys from an offline backup, which maps to passing
        ``their_signing_key`` when re-adding).
        """
        signature = self.identity.sign(PkgServer.deregistration_statement(self.email))
        (outcomes,) = _pkg_wave(pkg_stubs, "deregister", [(self.email, [signature] * len(pkg_stubs))])
        raise_first_error(outcomes)
        old_friends = [friend.email for friend in self.address_book.friends()]
        self.identity = self.identity.rotate()
        self.address_book = AddressBook()
        self.keywheel = Keywheel()
        self.addfriend = AddFriendEngine(
            identity=self.identity,
            address_book=self.address_book,
            keywheel=self.keywheel,
            ibe=self.ibe,
            plaintext_size=ADDFRIEND_REQUEST_SIZE,
            attestation=self.attestation,
        )
        self.dialing = DialingEngine(keywheel=self.keywheel, num_intents=self.config.num_intents)
        self.registered = False
        self._friends_to_re_add = old_friends

    # ------------------------------------------------------------------ #
    # Round participation (driven by the Deployment)
    # ------------------------------------------------------------------ #
    def build_addfriend_inner(self, announcement, next_dialing_round: int) -> bytes:
        """Step 2 of Algorithm 1: build this round's inner payload.

        Round keys must be installed already: the round driver runs the
        extraction RPCs (step 1) and wraps all clients' inners in one onion
        batch (step 3).
        """
        inner, queued = self.addfriend.build_request_payload(
            round_number=announcement.round_number,
            dialing_round=next_dialing_round,
            pkg_public_keys=announcement.pkg_public_keys,
            mailbox_count=announcement.mailbox_count,
        )
        if queued is None:
            self.stats.cover_friend_requests_sent += 1
        else:
            self.stats.real_friend_requests_sent += 1
        self.stats.addfriend_rounds += 1
        return inner

    def process_addfriend_mailbox(
        self,
        round_number: int,
        mailbox,
        pkg_bls_public_keys: list,
        current_dialing_round: int,
    ) -> list[dict]:
        """Steps 4-5 of Algorithm 1: scan the mailbox, verify, update state.

        ``mailbox`` is this client's downloaded add-friend mailbox: the round
        driver fetches every participant's mailbox in one transport wave and
        hands each client its copy.  ``pkg_bls_public_keys`` are the PKGs'
        *long-term* attestation keys (distributed with the client software,
        like CA certificates); their aggregate verifies the ``PKGSigs`` field
        of incoming requests.
        """
        self.stats.mailbox_bytes_downloaded += mailbox.size_bytes()
        aggregate = self.attestation.aggregate_publics(pkg_bls_public_keys)
        events = self.addfriend.scan_mailbox(
            round_number=round_number,
            ciphertexts=mailbox.ciphertexts,
            aggregate_pkg_public=aggregate,
            accept_friend=self.session._on_friend_request,
            current_dialing_round=current_dialing_round,
        )
        self.addfriend.erase_round_keys(round_number)
        return events

    def build_dialing_inner(self, announcement) -> bytes:
        """This round's dialing inner payload (token or cover); the round
        driver wraps all clients' inners in one onion batch."""
        inner, placed = self.dialing.build_request_payload(
            round_number=announcement.round_number,
            mailbox_count=announcement.mailbox_count,
        )
        if placed is None:
            self.stats.cover_dials_sent += 1
        else:
            self.stats.real_dials_sent += 1
        self.stats.dialing_rounds += 1
        return inner

    def process_dialing_mailbox(self, round_number: int, mailbox) -> list[IncomingCall]:
        """Scan the downloaded Bloom filter for incoming calls, advance wheels."""
        self.stats.bloom_bytes_downloaded += mailbox.size_bytes()
        calls = self.dialing.scan_mailbox(round_number, mailbox)
        for call in calls:
            self.session._on_incoming_call(call)
        self.dialing.finish_round(round_number)
        return calls


def register_clients(clients: list[Client], pkg_stubs: list, email_network) -> None:
    """``Register()`` for any number of clients, in two waves (§4.6).

    One ``begin_registration`` wave carries every (client, PKG) pair, and each
    PKG emails a confirmation token to the address.  Every client reads its
    tokens from its inbox, and one ``confirm_registration`` wave echoes them
    all back, after which each address is locked to its client's long-term
    signing key.  Each PKG stamps a request with its own clock on arrival.

    Outcomes are per client: a client whose every leg succeeded is marked
    ``registered``; one whose begin leg failed, or whose token is missing,
    sits out the confirm wave.  After both waves the first failed client's
    error is raised.
    """
    failed: dict[Client, Exception] = {}
    tokens: dict[Client, list[bytes]] = {}
    begin = [(client.email, [client.identity.signing_public] * len(pkg_stubs)) for client in clients]
    for client, outcomes in zip(clients, _pkg_wave(pkg_stubs, "begin_registration", begin)):
        try:
            raise_first_error(outcomes)
            tokens[client] = _confirmation_tokens(client.email, pkg_stubs, email_network)
        except Exception as exc:  # noqa: BLE001 - one client's failure is its own
            failed[client] = exc
    confirm = [(client.email, blobs) for client, blobs in tokens.items()]
    for client, outcomes in zip(tokens, _pkg_wave(pkg_stubs, "confirm_registration", confirm)):
        try:
            raise_first_error(outcomes)
        except Exception as exc:  # noqa: BLE001 - one client's failure is its own
            failed[client] = exc
        else:
            client.registered = True
    for client in clients:
        if client in failed:
            raise failed[client]


def _confirmation_tokens(email: str, pkg_stubs: list, email_network) -> list[bytes]:
    """The newest token each PKG emailed to ``email``, in ``pkg_stubs`` order."""
    newest = {message.sender: message.body for message in email_network.read_inbox(email)}
    tokens = []
    for pkg in pkg_stubs:
        token = newest.get(confirmation_sender(pkg.name))
        if token is None:
            raise ProtocolError(f"no confirmation email from {pkg.name} for {email}")
        tokens.append(token.encode("utf-8"))
    return tokens


def _pkg_wave(pkg_stubs: list, method: str, requests: list[tuple[str, list[bytes]]]) -> list:
    """One registration RPC per (request, PKG) pair, as one wave.

    ``requests`` are ``(email, blobs)`` with one blob per PKG; returns each
    request's outcomes, one per PKG.  No requests, no wave.
    """
    calls = [
        stub.registration_call(method, email, blob)
        for email, blobs in requests
        for stub, blob in zip(pkg_stubs, blobs)
    ]
    if not calls:
        return []
    outcomes = pkg_stubs[0].transport.call_batch(calls)
    width = len(pkg_stubs)
    return [outcomes[start : start + width] for start in range(0, len(outcomes), width)]
