"""End-to-end integration tests of the Alpenhorn client and deployment.

These drive the whole stack -- PKGs, mixnet, entry server, CDN -- through
complete add-friend and dialing rounds.  Most tests use the real pairing
backend with a small deployment; a couple use the simulated backend to
exercise larger populations cheaply.
"""

from __future__ import annotations

import pytest

from repro.core.addressbook import FriendshipState, TrustLevel
from repro.core.config import AlpenhornConfig
from repro.core.coordinator import Deployment
from repro.errors import ProtocolError


@pytest.fixture(scope="module")
def befriended():
    """A deployment where alice and bob are already mutual friends.

    Module-scoped because setting it up costs a handful of pairings; tests
    that mutate state build their own deployments.
    """
    deployment = Deployment(AlpenhornConfig.for_tests(), seed="module-befriended")
    alice = deployment.create_client("alice@example.org")
    bob = deployment.create_client("bob@example.org")
    deployment.session("alice@example.org").add_friend("bob@example.org")
    deployment.run_addfriend_round()  # Alice's request reaches Bob, Bob accepts
    deployment.run_addfriend_round()  # Bob's confirmation reaches Alice
    deployment.run_dialing_round()  # the wheels anchor at dialing round 2: live from here on
    return deployment, alice, bob


class TestAddFriendFlow:
    def test_mutual_friendship_and_keywheel_sync(self, befriended):
        deployment, alice, bob = befriended
        assert alice.friends() == ["bob@example.org"]
        assert bob.friends() == ["alice@example.org"]
        wheel_a = alice.keywheel.entry("bob@example.org")
        wheel_b = bob.keywheel.entry("alice@example.org")
        assert wheel_a.secret == wheel_b.secret
        assert wheel_a.round_number == wheel_b.round_number

    def test_tofu_keys_recorded(self, befriended):
        _, alice, bob = befriended
        assert alice.address_book.friend("bob@example.org").signing_key == bob.my_signing_key()
        assert bob.address_book.friend("alice@example.org").signing_key == alice.my_signing_key()
        assert bob.address_book.friend("alice@example.org").trust is TrustLevel.TOFU

    def test_new_friend_callback_saw_request(self, befriended):
        _, _, bob = befriended
        received = bob.session.events.history("friend_request_received")
        assert any(event.email == "alice@example.org" for event in received)

    def test_cover_traffic_sent_when_idle(self, befriended):
        deployment, alice, _ = befriended
        before = alice.stats.cover_friend_requests_sent
        deployment.run_addfriend_round()
        assert alice.stats.cover_friend_requests_sent == before + 1

    def test_every_client_submits_every_round(self, befriended):
        deployment, _, _ = befriended
        summary = deployment.run_addfriend_round()
        assert summary.submissions == len(deployment.clients)

    def test_add_self_rejected(self, befriended):
        _, alice, _ = befriended
        with pytest.raises(ProtocolError):
            alice.add_friend("alice@example.org")

    def test_add_existing_friend_rejected(self, befriended):
        _, alice, _ = befriended
        with pytest.raises(ProtocolError):
            alice.add_friend("bob@example.org")


class TestDialingFlow:
    def test_call_delivers_matching_session_keys(self, befriended):
        deployment, alice, bob = befriended
        call = deployment.session("alice@example.org").call("bob@example.org", intent=1)
        deployment.run_dialing_round()
        assert call.placed is not None
        received = bob.received_calls()[-1]
        assert received.caller == "alice@example.org"
        assert received.intent == 1
        assert received.session_key == call.session_key

    def test_call_in_both_directions(self, befriended):
        deployment, alice, bob = befriended
        call = deployment.session("bob@example.org").call("alice@example.org", intent=0)
        deployment.run_dialing_round()
        received = alice.received_calls()[-1]
        assert received.caller == "bob@example.org"
        assert received.session_key == call.session_key

    def test_session_keys_are_fresh_each_call(self, befriended):
        deployment, alice, bob = befriended
        session = deployment.session("alice@example.org")
        first = session.call("bob@example.org", intent=0)
        deployment.run_dialing_round()
        second = session.call("bob@example.org", intent=0)
        deployment.run_dialing_round()
        assert first.session_key != second.session_key

    def test_call_to_non_friend_rejected(self, befriended):
        _, alice, _ = befriended
        with pytest.raises(ProtocolError):
            alice.call("stranger@example.org")

    def test_invalid_intent_rejected(self, befriended):
        _, alice, _ = befriended
        with pytest.raises(ProtocolError):
            alice.call("bob@example.org", intent=99)

    def test_keywheels_advance_every_round(self, befriended):
        deployment, alice, _ = befriended
        before = alice.keywheel.entry("bob@example.org").round_number
        deployment.run_dialing_round()
        after = alice.keywheel.entry("bob@example.org").round_number
        assert after == max(before, deployment.dialing_round + 1)


class TestDecline:
    def test_declined_request_creates_no_keywheel(self):
        config = AlpenhornConfig.for_tests()
        deployment = Deployment(config, seed="decline")
        alice = deployment.create_client("alice@example.org")
        bob = deployment.create_client("bob@example.org")
        deployment.session("bob@example.org").accept_friend = lambda email, key: False
        alice.add_friend("bob@example.org")
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()
        assert bob.friends() == []
        assert alice.friends() == []
        assert not bob.keywheel.has_friend("alice@example.org")
        # Bob still remembers that a request arrived, and his bus says he declined it.
        assert bob.address_book.friend("alice@example.org").state is FriendshipState.REQUEST_RECEIVED
        received = bob.session.events.history("friend_request_received")[-1]
        assert received.email == "alice@example.org" and received["accepted"] is False


class TestSimultaneousAdd:
    def test_both_sides_add_in_same_round(self):
        config = AlpenhornConfig.for_tests()
        deployment = Deployment(config, seed="simultaneous")
        alice = deployment.create_client("alice@example.org")
        bob = deployment.create_client("bob@example.org")
        alice.add_friend("bob@example.org")
        bob.add_friend("alice@example.org")
        deployment.run_addfriend_round()
        wheel_a = alice.keywheel.entry("bob@example.org")
        wheel_b = bob.keywheel.entry("alice@example.org")
        assert wheel_a.secret == wheel_b.secret
        assert wheel_a.round_number == wheel_b.round_number


class TestOutOfBandKeys:
    def test_correct_out_of_band_key_verifies(self):
        config = AlpenhornConfig.for_tests()
        deployment = Deployment(config, seed="oob-good")
        alice = deployment.create_client("alice@example.org")
        bob = deployment.create_client("bob@example.org")
        alice.add_friend("bob@example.org", their_signing_key=bob.my_signing_key())
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()
        assert alice.friends() == ["bob@example.org"]
        assert alice.address_book.friend("bob@example.org").trust is TrustLevel.VERIFIED

    def test_wrong_out_of_band_key_blocks_friendship(self):
        """If the key Bob presents does not match what Alice got out-of-band,
        the confirmation is rejected (MITM defence, §3.2)."""
        config = AlpenhornConfig.for_tests()
        deployment = Deployment(config, seed="oob-bad")
        alice = deployment.create_client("alice@example.org")
        deployment.create_client("bob@example.org")
        alice.add_friend("bob@example.org", their_signing_key=b"\x13" * 32)
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()
        assert alice.friends() == []
        assert not alice.keywheel.has_friend("bob@example.org")


class TestForwardSecrecyAcrossTheSystem:
    def test_servers_hold_no_round_secrets_after_rounds_complete(self):
        config = AlpenhornConfig.for_tests()
        deployment = Deployment(config, seed="fs")
        deployment.create_client("alice@example.org")
        deployment.create_client("bob@example.org")
        deployment.client("alice@example.org").add_friend("bob@example.org")
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()
        for round_number in (1, 2):
            assert all(not pkg.has_master_secret(round_number) for pkg in deployment.pkgs)
            assert all(not mix.has_round_key("add-friend", round_number) for mix in deployment.mix_servers)

    def test_clients_hold_no_round_ibe_keys_after_scanning(self):
        config = AlpenhornConfig.for_tests()
        deployment = Deployment(config, seed="fs2")
        alice = deployment.create_client("alice@example.org")
        deployment.create_client("bob@example.org")
        alice.add_friend("bob@example.org")
        deployment.run_addfriend_round()
        assert not alice.addfriend.has_round_keys(1)

    def test_keywheel_state_before_call_is_erased_after(self):
        """An adversary compromising a client after round r learns nothing
        about tokens from rounds < r (the wheel no longer contains them)."""
        config = AlpenhornConfig.for_tests()
        deployment = Deployment(config, seed="fs3")
        alice = deployment.create_client("alice@example.org")
        bob = deployment.create_client("bob@example.org")
        deployment.session("alice@example.org").add_friend("bob@example.org")
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()
        call = deployment.session("alice@example.org").call("bob@example.org")
        deployment.run_dialing_round()  # cover: the wheel anchors at round 2
        deployment.run_dialing_round()
        call_round = call.placed.round_number
        # After the round completes, neither wheel can re-derive that round.
        with pytest.raises(ProtocolError):
            alice.keywheel.dial_token("bob@example.org", call_round, 0)
        with pytest.raises(ProtocolError):
            bob.keywheel.dial_token("alice@example.org", call_round, 0)


class TestRemoveAndRecover:
    def test_remove_friend_erases_wheel(self):
        config = AlpenhornConfig.for_tests()
        deployment = Deployment(config, seed="remove")
        alice = deployment.create_client("alice@example.org")
        deployment.create_client("bob@example.org")
        deployment.session("alice@example.org").add_friend("bob@example.org")
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()
        alice.remove_friend("bob@example.org")
        assert not alice.keywheel.has_friend("bob@example.org")
        assert not alice.address_book.has_friend("bob@example.org")

    def test_compromise_recovery_rotates_key_and_reestablishes(self):
        """§9: deregister with the old key, rotate, re-register, re-add friends."""
        config = AlpenhornConfig.for_tests()
        deployment = Deployment(config, seed="recover")
        alice = deployment.create_client("alice@example.org")
        bob = deployment.create_client("bob@example.org")
        deployment.session("alice@example.org").add_friend("bob@example.org")
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()
        old_key = alice.my_signing_key()

        alice.recover_from_compromise(deployment.pkg_stubs, deployment.email_network)
        assert alice.my_signing_key() != old_key
        assert alice.friends() == []

        # Deregistration starts the 30-day lockout (§9): immediate
        # re-registration is refused, and succeeds once the window passes.
        from repro.errors import LockoutError
        from repro.pkg.registration import LOCKOUT_SECONDS

        with pytest.raises(LockoutError):
            alice.register(deployment.pkg_stubs, deployment.email_network)
        deployment.advance_clock(LOCKOUT_SECONDS + 1)
        alice.register(deployment.pkg_stubs, deployment.email_network)
        # Bob removes the stale friendship and they re-run add-friend.
        bob.remove_friend("alice@example.org")
        deployment.session("alice@example.org").add_friend("bob@example.org")
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()
        call = deployment.session("alice@example.org").call("bob@example.org")
        deployment.run_dialing_round()  # cover: the new wheel anchors at round 2
        deployment.run_dialing_round()
        assert call.placed is not None
        assert bob.received_calls()[-1].session_key == call.session_key


class TestLargerPopulationSimulatedBackend:
    def test_ten_clients_pairwise_calls(self):
        """A larger deployment on the simulated backend: several friendships
        and calls complete, and every round has full cover-traffic
        participation."""
        config = AlpenhornConfig.for_tests(backend="simulated")
        deployment = Deployment(config, seed="population")
        emails = [f"user{i}@example.org" for i in range(10)]
        for email in emails:
            deployment.create_client(email)
        for i in range(0, 10, 2):
            deployment.client(emails[i]).add_friend(emails[i + 1])
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()
        for i in range(0, 10, 2):
            assert deployment.client(emails[i]).friends() == [emails[i + 1]]
        for i in range(0, 10, 2):
            deployment.client(emails[i]).call(emails[i + 1])
        deployment.run_dialing_round()
        deployment.run_dialing_round()
        deployment.run_dialing_round()
        received_total = sum(len(deployment.client(e).received_calls()) for e in emails)
        assert received_total >= 5
