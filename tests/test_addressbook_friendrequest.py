"""Tests for the address book and the friend-request wire format."""

from __future__ import annotations

import pytest

from conftest import keypair
from repro.core.addressbook import AddressBook, FriendshipState, PendingOutgoing, TrustLevel
from repro.core.friendrequest import FriendRequest, sender_statement
from repro.core.identity import UserIdentity
from repro.crypto import bls, ed25519, x25519
from repro.errors import ProtocolError, SerializationError
from repro.pkg.server import pkg_statement


class TestAddressBook:
    def test_upsert_and_lookup(self):
        book = AddressBook()
        book.upsert_friend("Bob@Example.org", signing_key=b"\x01" * 32)
        assert book.has_friend("bob@example.org")
        assert book.friend("bob@example.org").signing_key == b"\x01" * 32

    def test_unknown_friend_raises(self):
        with pytest.raises(ProtocolError):
            AddressBook().friend("ghost@example.org")

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError):
            AddressBook().upsert_friend("bob@example.org", bogus_field=1)

    def test_confirmed_friends_filter(self):
        book = AddressBook()
        book.upsert_friend("a@example.org", state=FriendshipState.CONFIRMED)
        book.upsert_friend("b@example.org", state=FriendshipState.REQUEST_SENT)
        assert [f.email for f in book.confirmed_friends()] == ["a@example.org"]

    def test_record_observed_key_tofu(self):
        book = AddressBook()
        assert book.record_observed_key("bob@example.org", b"\x01" * 32)
        assert book.record_observed_key("bob@example.org", b"\x01" * 32)
        # A different key later is a conflict (possible MITM).
        assert not book.record_observed_key("bob@example.org", b"\x02" * 32)

    def test_pending_outgoing_lifecycle(self):
        book = AddressBook()
        pending = PendingOutgoing(
            email="bob@example.org",
            dialing_private=b"\x01" * 32,
            dialing_public=b"\x02" * 32,
            dialing_round=7,
        )
        book.add_pending_outgoing(pending)
        assert book.pending_outgoing("BOB@example.org") is pending
        assert book.pop_pending_outgoing("bob@example.org") is pending
        assert book.pending_outgoing("bob@example.org") is None

    def test_remove_friend_clears_pending(self):
        book = AddressBook()
        book.upsert_friend("bob@example.org")
        book.add_pending_outgoing(
            PendingOutgoing(
                email="bob@example.org",
                dialing_private=b"\x01" * 32,
                dialing_public=b"\x02" * 32,
                dialing_round=7,
            )
        )
        book.remove_friend("bob@example.org")
        assert not book.has_friend("bob@example.org")
        assert book.pending_outgoing("bob@example.org") is None

    def test_default_trust_is_tofu(self):
        book = AddressBook()
        friend = book.upsert_friend("bob@example.org")
        assert friend.trust is TrustLevel.TOFU


def build_request(num_pkgs: int = 2, round_number: int = 4, email: str = "alice@example.org"):
    """Build a verifiable friend request plus the keys needed to check it."""
    signing_private, signing_public = keypair(ed25519)
    pkg_keys = [bls.generate_keypair(seed=bytes([i + 1]) * 32) for i in range(num_pkgs)]
    statement = pkg_statement(email, signing_public, round_number)
    attestations = [bls.sign(kp.secret, statement) for kp in pkg_keys]
    _, dialing_public = keypair(x25519)
    request = FriendRequest.build(
        sender_email=email,
        sender_signing_private=signing_private,
        sender_signing_public=signing_public,
        pkg_attestations=attestations,
        pkg_round=round_number,
        dialing_key=dialing_public,
        dialing_round=9,
    )
    aggregate = bls.aggregate_publics([kp.public for kp in pkg_keys])
    return request, aggregate, signing_public


class TestFriendRequest:
    def test_roundtrip_serialization(self):
        request, _, _ = build_request()
        restored = FriendRequest.from_bytes(request.to_bytes())
        assert restored == request

    def test_wire_size_close_to_paper(self):
        """The paper reports a 244-byte request before IBE; ours is within a
        small margin (field sizes differ slightly by curve encoding)."""
        request, _, _ = build_request()
        assert 220 <= len(request.to_bytes()) <= 320

    def test_valid_request_verifies(self):
        request, aggregate, _ = build_request()
        assert request.verify(aggregate)

    def test_verification_binds_pkg_round(self):
        request, aggregate, _ = build_request(round_number=4)
        tampered = FriendRequest.from_bytes(request.to_bytes())
        tampered.pkg_round = 5
        assert not tampered.verify(aggregate)

    def test_wrong_aggregate_rejected(self):
        request, _, _ = build_request(num_pkgs=2)
        rogue = bls.aggregate_publics([bls.generate_keypair().public])
        assert not request.verify(rogue)

    def test_out_of_band_key_match_required_when_supplied(self):
        request, aggregate, signing_public = build_request()
        assert request.verify(aggregate, expected_sender_key=signing_public)
        assert not request.verify(aggregate, expected_sender_key=b"\x07" * 32)

    def test_tampered_dialing_key_rejected(self):
        """Changing the Diffie-Hellman key breaks the sender signature -- the
        protection against a malicious server swapping in its own key."""
        request, aggregate, _ = build_request()
        tampered = FriendRequest.from_bytes(request.to_bytes())
        tampered.dialing_key = b"\x09" * 32
        assert not tampered.verify(aggregate)

    def test_tampered_sender_email_rejected(self):
        request, aggregate, _ = build_request()
        tampered = FriendRequest.from_bytes(request.to_bytes())
        tampered.sender_email = "mallory@example.org"
        assert not tampered.verify(aggregate)

    def test_missing_pkg_signature_rejected(self):
        """An aggregate missing one PKG's signature must not verify: this is
        what makes a single honest PKG sufficient for authentication."""
        email, round_number = "alice@example.org", 4
        signing_private, signing_public = keypair(ed25519)
        pkg_keys = [bls.generate_keypair() for _ in range(3)]
        statement = pkg_statement(email, signing_public, round_number)
        attestations = [bls.sign(kp.secret, statement) for kp in pkg_keys[:2]]  # one missing
        _, dialing_public = keypair(x25519)
        request = FriendRequest.build(
            sender_email=email,
            sender_signing_private=signing_private,
            sender_signing_public=signing_public,
            pkg_attestations=attestations,
            pkg_round=round_number,
            dialing_key=dialing_public,
            dialing_round=1,
        )
        aggregate = bls.aggregate_publics([kp.public for kp in pkg_keys])
        assert not request.verify(aggregate)

    def test_malformed_bytes_rejected(self):
        with pytest.raises(SerializationError):
            FriendRequest.from_bytes(b"\x00\x01\x02")

    def test_sender_statement_is_canonical(self):
        a = sender_statement("Alice@Example.org", b"\x01" * 32, 5)
        b = sender_statement("alice@example.org", b"\x01" * 32, 5)
        assert a == b
        assert a != sender_statement("alice@example.org", b"\x01" * 32, 6)


class TestUserIdentity:
    def test_repr_keeps_the_signing_key_out(self):
        identity = UserIdentity.create("Alice@Example.org", seed=b"\x07" * 32)
        text = repr(identity)
        assert text == "UserIdentity('alice@example.org')"
        assert identity.signing_private.hex() not in text
