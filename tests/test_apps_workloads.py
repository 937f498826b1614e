"""Tests for the application integrations (§8.5) and the Zipf workload weights."""

from __future__ import annotations

import pytest

from repro.api import CallHandle
from repro.apps.pond_panda import (
    MeetingPointServer,
    PandaExchange,
    bootstrap_panda_from_call,
    bootstrap_panda_from_handles,
)
from repro.apps.vuvuzela import VuvuzelaConversationService, VuvuzelaMessenger
from repro.sim.workloads import top_k_share, zipf_recipient_weights
from repro.core.config import AlpenhornConfig
from repro.core.coordinator import Deployment
from repro.errors import ProtocolError


@pytest.fixture(scope="module")
def messaging_pair():
    """Alice and Bob, friends via Alpenhorn, each wrapped in a messenger."""
    deployment = Deployment(AlpenhornConfig.for_tests(), seed="vuvuzela-app")
    alice = deployment.create_client("alice@example.org")
    bob = deployment.create_client("bob@example.org")
    service = VuvuzelaConversationService()
    alice_app = VuvuzelaMessenger(alice.session, service)
    bob_app = VuvuzelaMessenger(bob.session, service)
    alice_app.addfriend("bob@example.org")
    deployment.run_addfriend_round()
    deployment.run_addfriend_round()
    return deployment, alice_app, bob_app


class TestVuvuzelaIntegration:
    def test_call_bootstraps_conversation_and_messages_flow(self, messaging_pair):
        deployment, alice_app, bob_app = messaging_pair
        call = deployment.session("alice@example.org").call("bob@example.org", intent=0)
        deployment.run_dialing_round()  # cover: the wheel anchors at round 2
        deployment.run_dialing_round()
        conversation = alice_app.adopt_call_handle(call)
        # Bob's side was opened automatically by the IncomingCall callback.
        assert "alice@example.org" in bob_app.conversations
        assert conversation.session_key == bob_app.conversations["alice@example.org"].session_key

        alice_app.send_message("bob@example.org", "hello from alice")
        bob_app.send_message("alice@example.org", "hi alice, bob here")
        assert bob_app.receive_message("alice@example.org") == "hello from alice"
        assert alice_app.receive_message("bob@example.org") == "hi alice, bob here"

    def test_multiple_exchanges_use_distinct_dead_drops(self, messaging_pair):
        deployment, alice_app, bob_app = messaging_pair
        service_before = alice_app.service.exchange_count()
        alice_app.next_exchange("bob@example.org")
        bob_app.next_exchange("alice@example.org")
        alice_app.send_message("bob@example.org", "second exchange")
        assert bob_app.receive_message("alice@example.org") == "second exchange"
        assert alice_app.service.exchange_count() > service_before

    def test_oversized_message_rejected(self, messaging_pair):
        _, alice_app, _ = messaging_pair
        with pytest.raises(ProtocolError):
            alice_app.send_message("bob@example.org", "x" * 1000)

    def test_message_to_unknown_peer_rejected(self, messaging_pair):
        _, alice_app, _ = messaging_pair
        with pytest.raises(ProtocolError):
            alice_app.send_message("stranger@example.org", "hello?")

    def test_call_command_places_a_call_the_messenger_adopts(self, messaging_pair):
        deployment, alice_app, bob_app = messaging_pair
        handle = alice_app.call("bob@example.org", intent=1)
        with pytest.raises(ProtocolError, match="has not gone out yet"):
            alice_app.adopt_call_handle(handle)
        while alice_app.session.client.dialing.pending_in_queue():
            deployment.run_dialing_round()
        conversation = alice_app.adopt_call_handle(handle)
        assert conversation.session_key == handle.session_key
        assert conversation.session_key == bob_app.conversations["alice@example.org"].session_key


class TestPandaIntegration:
    def test_bootstrap_from_matching_session_keys(self):
        key = b"\x11" * 32
        caller, callee = bootstrap_panda_from_call(
            key, key, caller_payload=b"alice-pond-key", callee_payload=b"bob-pond-key"
        )
        assert caller.peer_payload == b"bob-pond-key"
        assert callee.peer_payload == b"alice-pond-key"
        assert caller.pairwise_key == callee.pairwise_key

    def test_mismatched_secrets_fail(self):
        with pytest.raises(ProtocolError):
            bootstrap_panda_from_call(b"\x11" * 32, b"\x22" * 32, b"a", b"b")

    def test_collect_before_peer_posts_returns_none(self):
        server = MeetingPointServer()
        side = PandaExchange("caller", b"\x03" * 32, server)
        side.post_payload(b"material")
        assert side.collect() is None

    def test_short_secret_rejected(self):
        with pytest.raises(ProtocolError):
            PandaExchange("caller", b"short", MeetingPointServer())

    def test_end_to_end_with_real_alpenhorn_call(self):
        """The full §8.5 Pond flow: Alpenhorn call -> PANDA pairing."""
        deployment = Deployment(AlpenhornConfig.for_tests(backend="simulated"), seed="panda")
        deployment.create_client("alice@example.org")
        bob = deployment.create_client("bob@example.org")
        session = deployment.session("alice@example.org")
        session.add_friend("bob@example.org")
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()
        call = session.call("bob@example.org")
        deployment.run_dialing_round()  # cover: the wheel anchors at round 2
        deployment.run_dialing_round()
        received = bob.received_calls()[-1]
        caller, callee = bootstrap_panda_from_call(
            call.session_key, received.session_key, b"alice-pond", b"bob-pond"
        )
        assert caller.peer_payload == b"bob-pond"
        assert callee.peer_payload == b"alice-pond"

    def test_bootstrap_from_handles_pairs_both_sides(self):
        """The session-API form of the flow above: a CallHandle and the
        callee's IncomingCall seed PANDA."""
        deployment = Deployment(AlpenhornConfig.for_tests(backend="simulated"), seed="panda-handles")
        deployment.create_client("alice@example.org")
        bob = deployment.create_client("bob@example.org")
        session = deployment.session("alice@example.org")
        session.add_friend("bob@example.org")
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()
        handle = session.call("bob@example.org")
        while session.client.dialing.pending_in_queue():
            deployment.run_dialing_round()
        caller, callee = bootstrap_panda_from_handles(
            handle, bob.received_calls()[-1], b"alice-pond", b"bob-pond"
        )
        assert caller.peer_payload == b"bob-pond"
        assert callee.peer_payload == b"alice-pond"
        assert caller.pairwise_key == callee.pairwise_key

    def test_bootstrap_from_handles_refuses_a_call_not_yet_placed(self):
        with pytest.raises(ProtocolError, match="has not gone out yet"):
            bootstrap_panda_from_handles(CallHandle("bob@example.org"), None, b"a", b"b")


class TestWorkloads:
    def test_zipf_weights_normalised_and_monotone(self):
        weights = zipf_recipient_weights(1000, 1.5)
        assert abs(sum(weights) - 1.0) < 1e-9
        assert weights == sorted(weights, reverse=True)

    def test_uniform_case(self):
        weights = zipf_recipient_weights(100, 0.0)
        assert all(abs(w - 0.01) < 1e-12 for w in weights)

    def test_paper_top10_share_at_s2(self):
        """§8.4: at s = 2 the top 10 users receive 94.2% of requests."""
        assert 0.91 < top_k_share(zipf_recipient_weights(100_000, 2.0), 10) < 0.96

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            zipf_recipient_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_recipient_weights(10, -1.0)

    def test_top_k_share_monotone_in_k(self):
        weights = zipf_recipient_weights(100, 1.0)
        assert top_k_share(weights, 5) < top_k_share(weights, 50)
