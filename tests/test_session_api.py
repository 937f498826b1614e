"""The redesigned client API: sessions, handles, events, retry, fan-out.

Covers the contracts the api_redesign introduced:

* the EventBus (subscription, history),
* FriendRequestHandle / CallHandle lifecycle as rounds run,
* friend-request liveness under churn -- retry recovers a request delivered
  into a round its recipient missed; without retry the test demonstrates
  the loss the paper accepts,
* the retry budget (max_attempts) terminating a hopeless
  request,
* one session per client: every client's bus carries its scan-time events,
  a deployment-wide subscriber reaches late clients, and one bus fans out,
* the parallel per-PKG fan-out: RPC *counts* still scale linearly in PKG
  count (TransportStats.calls_by_method) while the stage's simulated
  wall-clock no longer does; bring-up is two waves for any client count,
  with per-client outcomes.
"""

from __future__ import annotations

import json

import pytest

from repro.api import CallHandle, EventBus, RequestState
from repro.core.client import Client
from repro.core.config import AlpenhornConfig
from repro.core.coordinator import Deployment
from repro.errors import LockoutError, ProtocolError
from repro.net.links import LinkSpec, NetworkTopology
from repro.net.simulated import SimulatedNetwork
from repro.net.transport import DirectTransport
from repro.runtime import AsyncioTransport
from repro.sim.scenarios import run_scenario


def make_deployment(seed: str = "session-test", retry: int | None = None, **config_kwargs):
    config = AlpenhornConfig.for_tests(backend="simulated")
    config.retry_horizon = retry
    for key, value in config_kwargs.items():
        setattr(config, key, value)
    config.validate()
    return Deployment(config, seed=seed)


def make_sim_deployment(
    pkgs: int = 2, latency_ms: float = 200, seed: str = "session-sim"
) -> Deployment:
    servers = (
        ["entry", "cdn", "coordinator"]
        + [f"mix{i}" for i in range(2)]
        + [f"pkg{i}" for i in range(pkgs)]
    )
    topology = NetworkTopology(default=LinkSpec.of(latency_ms=latency_ms, bandwidth_mbps=50))
    for i, a in enumerate(servers):
        for b in servers[i + 1 :]:
            topology.set_link(a, b, LinkSpec.of(latency_ms=2, bandwidth_mbps=1000))
    net = SimulatedNetwork(topology=topology, seed=f"{seed}/net")
    config = AlpenhornConfig.for_tests(num_pkg_servers=pkgs, backend="simulated")
    return Deployment(config, seed=seed, transport=net)


def count_waves(transport) -> list[int]:
    """Record the size of every ``call_batch`` wave ``transport`` issues from
    here on."""
    waves: list[int] = []
    issue = transport.call_batch

    def counting(calls):
        waves.append(len(calls))
        return issue(calls)

    transport.call_batch = counting
    return waves


class TestEventBus:
    def test_subscribe_and_emit(self):
        bus = EventBus()
        seen = []
        bus.subscribe("ping", seen.append)
        event = bus.emit("ping", email="a@x.org", round_number=3, extra=1)
        assert seen == [event]
        assert event.email == "a@x.org" and event["extra"] == 1

    def test_subscribe_all_sees_every_type(self):
        bus = EventBus()
        seen = []
        bus.subscribe_all(lambda e: seen.append(e.type))
        bus.emit("a")
        bus.emit("b")
        assert seen == ["a", "b"]

    def test_history_filters(self):
        bus = EventBus()
        bus.emit("a", email="1")
        bus.emit("b")
        bus.emit("a", email="2")
        assert [e.email for e in bus.history("a")] == ["1", "2"]
        assert len(bus.history()) == 3
        assert bus.history("a")[-1].email == "2"
        assert bus.history("missing") == []


class TestFriendRequestHandleLifecycle:
    @pytest.fixture(scope="class")
    def confirmed(self):
        deployment = make_deployment("handle-lifecycle")
        deployment.create_client("alice@x.org")
        bob = deployment.create_client("bob@x.org")
        alice = deployment.session("alice@x.org")
        bob_session = deployment.session("bob@x.org")
        handle = alice.add_friend("bob@x.org")
        states = [handle.state]
        deployment.run_addfriend_round()
        states.append(handle.state)
        deployment.run_addfriend_round()
        states.append(handle.state)
        return deployment, alice, bob_session, bob, handle, states

    def test_states_progress_to_confirmed(self, confirmed):
        *_, handle, states = confirmed
        assert states == [RequestState.QUEUED, RequestState.DELIVERED, RequestState.CONFIRMED]
        assert handle.confirmed and handle.done()

    def test_submission_metadata(self, confirmed):
        *_, handle, _ = confirmed
        assert handle.attempts == 1
        assert handle.round_submitted == 1
        assert handle.rounds_submitted == [1]
        assert handle.confirmed_round == 2

    def test_confirmed_by_is_the_friends_signing_key(self, confirmed):
        _, _, _, bob, handle, _ = confirmed
        assert handle.confirmed_by == bob.my_signing_key()

    def test_sender_event_order(self, confirmed):
        _, alice, *_ = confirmed
        assert [e.type for e in alice.events.history()] == [
            "request_queued",
            "request_submitted",
            "request_delivered",
            "friend_confirmed",
        ]

    def test_recipient_saw_friend_request_received(self, confirmed):
        _, _, bob_session, *_ = confirmed
        received = bob_session.events.history("friend_request_received")[-1]
        assert received is not None
        assert received.email == "alice@x.org" and received["accepted"] is True

    def test_friends_lists_the_confirmed_friend_on_both_sides(self, confirmed):
        _, alice, bob_session, *_ = confirmed
        assert alice.friends() == ["bob@x.org"]
        assert bob_session.friends() == ["alice@x.org"]

    def test_repr_shows_friend_state_attempts_and_round(self, confirmed):
        *_, handle, _ = confirmed
        assert repr(handle) == "FriendRequestHandle('bob@x.org', confirmed, attempts=1, round=1)"

    def test_add_friend_is_idempotent(self):
        deployment = make_deployment("handle-idempotent")
        deployment.create_client("alice@x.org")
        deployment.create_client("bob@x.org")
        alice = deployment.session("alice@x.org")
        handle = alice.add_friend("bob@x.org")
        assert alice.add_friend("bob@x.org") is handle  # still in flight
        assert alice.pending_requests() == [handle]
        assert alice.client.addfriend.pending_in_queue() == 1  # no duplicate queued

    def test_add_friend_still_validates(self):
        deployment = make_deployment("handle-validate")
        deployment.create_client("alice@x.org")
        with pytest.raises(ProtocolError):
            deployment.session("alice@x.org").add_friend("alice@x.org")


class TestCallHandleLifecycle:
    def test_call_handle_delivers_session_key(self):
        deployment = make_deployment("call-handle")
        deployment.create_client("alice@x.org")
        bob_client = deployment.create_client("bob@x.org")
        alice = deployment.session("alice@x.org")
        bob = deployment.session("bob@x.org")
        alice.add_friend("bob@x.org")
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()

        handle = alice.call("bob@x.org", intent=1)
        assert handle.state is RequestState.QUEUED and handle.session_key is None
        while alice.client.dialing.pending_in_queue():
            deployment.run_dialing_round()
        assert handle.state is RequestState.DELIVERED
        assert handle.placed is not None and handle.placed.intent == 1
        incoming = bob_client.received_calls()[-1]
        assert handle.session_key == incoming.session_key

        event = bob.events.history("call_received")[-1]
        assert event is not None and event["call"].caller == "alice@x.org"
        placed_event = alice.events.history("call_placed")[-1]
        delivered_event = alice.events.history("call_delivered")[-1]
        assert placed_event.round_number == delivered_event.round_number == handle.round_submitted

    def test_repr_shows_friend_intent_state_and_round(self):
        handle = CallHandle("bob@x.org", intent=1)
        assert repr(handle) == "CallHandle('bob@x.org', intent=1, queued, round=None)"
        handle.state, handle.round_submitted = RequestState.DELIVERED, 3
        assert repr(handle) == "CallHandle('bob@x.org', intent=1, delivered, round=3)"

    def test_call_still_validates_through_session(self):
        deployment = make_deployment("call-validate")
        deployment.create_client("alice@x.org")
        with pytest.raises(ProtocolError):
            deployment.session("alice@x.org").call("stranger@x.org")


class TestRetryLiveness:
    """The ROADMAP item: engine-level re-enqueue of unconfirmed requests."""

    def drive(self, retry: int | None, rounds_after_miss: int = 4):
        deployment = make_deployment("retry-liveness", retry=retry)
        deployment.create_client("alice@x.org")
        deployment.create_client("bob@x.org")
        alice = deployment.session("alice@x.org")
        handle = alice.add_friend("bob@x.org")
        # Round 1: bob offline.  Alice's request is delivered into a round
        # whose IBE key bob never held -- unrecoverable by bob.
        deployment.run_addfriend_round(participants=["alice@x.org"])
        # Later rounds: everyone online.
        for _ in range(rounds_after_miss):
            deployment.run_addfriend_round()
        return deployment, alice, handle

    def test_without_retry_the_request_is_lost(self):
        deployment, alice, handle = self.drive(retry=None)
        assert handle.state is RequestState.DELIVERED  # stuck forever
        assert handle.attempts == 1
        assert deployment.client("bob@x.org").friends() == []
        assert alice.events.history("request_retrying") == []

    def test_with_retry_the_request_confirms(self):
        deployment, alice, handle = self.drive(retry=1)
        assert handle.state is RequestState.CONFIRMED
        assert handle.attempts == 2
        assert deployment.client("bob@x.org").friends() == ["alice@x.org"]
        retrying = alice.events.history("request_retrying")
        assert len(retrying) == 1 and retrying[0].email == "bob@x.org"

    def test_resend_and_confirmation_reuse_the_stored_dialing_public(self, monkeypatch):
        """The pending record keeps the public half: only the first send
        derives it (one base multiplication), never the re-send or the
        confirmation leg's remembered reply."""
        from repro.core import addfriend
        from repro.crypto.engine import PureBackend

        class CountingPublicKey(PureBackend):
            """Counts public halves on every path that derives one: the pure
            batch ops derive theirs without calling ``public_key``."""

            derivations = 0

            def public_key(self, private_key: bytes) -> bytes:
                self.derivations += 1
                return super().public_key(private_key)

            def public_key_many(self, private_keys):
                self.derivations += len(private_keys)
                return super().public_key_many(private_keys)

            def keypair_exchange_many(self, private_keys, peer_public_key):
                self.derivations += len(private_keys)
                return super().keypair_exchange_many(private_keys, peer_public_key)

        counting = CountingPublicKey()
        monkeypatch.setattr(addfriend, "active_backend", lambda: counting)
        deployment = make_deployment("retry-stored-public", retry=1)
        deployment.create_client("alice@x.org")
        deployment.create_client("bob@x.org")
        alice = deployment.session("alice@x.org")
        handle = alice.add_friend("bob@x.org")
        deployment.run_addfriend_round(participants=["alice@x.org"])
        pending = alice.client.address_book.pending_outgoing("bob@x.org")
        assert pending.dialing_public == counting.public_key(pending.dialing_private)
        counting.derivations = 0
        for _ in range(4):  # the re-send, bob's acceptance, alice's confirmation leg
            deployment.run_addfriend_round()
        assert handle.state is RequestState.CONFIRMED and handle.attempts == 2
        # One new key pair was made in those rounds -- bob's reply key -- and
        # nothing else was derived (the parent re-derived alice's twice).
        assert counting.derivations == 1
        sent = alice.client.addfriend._sent_replies["bob@x.org"]
        assert sent.dialing_public == pending.dialing_public

    def test_retry_budget_exhaustion_fails_the_handle(self):
        deployment = make_deployment("retry-budget", retry=1)
        deployment.create_client("alice@x.org")
        deployment.create_client("bob@x.org")
        alice = deployment.session("alice@x.org")
        alice.max_attempts = 2
        handle = alice.add_friend("bob@x.org")
        # Bob never comes online: every delivery is into a missed round.
        for _ in range(6):
            deployment.run_addfriend_round(participants=["alice@x.org"])
        assert handle.state is RequestState.FAILED
        assert handle.attempts == 2  # the budget
        assert alice.events.history("request_failed")
        # The outbox stopped: no queued request lingers.
        assert alice.client.addfriend.pending_in_queue() == 0

    def test_churn_scenario_liveness_with_and_without_retry(self):
        """Always-online senders: 100% confirmed with retry, loss without."""
        kwargs = dict(
            num_clients=16, addfriend_rounds=6, dialing_rounds=0,
            friend_pairs=8, seed="live1", num_mix_servers=1, num_pkg_servers=1,
        )
        with_retry = run_scenario("client_churn", retry_horizon=1, **kwargs)
        without = run_scenario("client_churn", retry_horizon=None, **kwargs)
        assert with_retry.friend_requests["initial"]["confirmed_fraction"] == 1.0
        assert without.friend_requests["initial"]["confirmed_fraction"] < 1.0
        assert with_retry.friend_requests["retries"] > 0
        assert without.friend_requests["retries"] == 0
        # The report is JSON-serializable with the liveness section included.
        parsed = json.loads(json.dumps(with_retry.to_dict()))
        assert parsed["retry_horizon"] == 1
        assert parsed["friend_requests"]["initial"]["total"] == 8


class TestRetryIdempotency:
    """Re-sent requests must not desync keywheels (same ephemeral, dedupe)."""

    def test_retry_after_recipient_accepted_first_copy_keeps_wheels_synced(self):
        """The desync scenario: bob answers copy #1, misses a round, alice
        retries.  Copy #2 must carry the same ephemeral and bob must answer
        it identically (not re-anchor), or dialing breaks silently."""
        deployment = make_deployment("retry-idempotent", retry=1)
        deployment.create_client("alice@x.org")
        bob_client = deployment.create_client("bob@x.org")
        alice = deployment.session("alice@x.org")
        handle = alice.add_friend("bob@x.org")
        # Round 1: both online; bob accepts and queues his reply.
        deployment.run_addfriend_round()
        assert bob_client.friends() == ["alice@x.org"]
        # Round 2: bob offline -- his reply cannot go out, alice's handle is
        # past the horizon at round end, so the outbox re-sends.
        deployment.run_addfriend_round(participants=["alice@x.org"])
        # Rounds 3-4: both online; bob's reply and the duplicate resolve.
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()
        assert handle.confirmed and handle.attempts == 2
        wheel_a = alice.client.keywheel.entry("bob@x.org")
        wheel_b = bob_client.keywheel.entry("alice@x.org")
        assert wheel_a.secret == wheel_b.secret
        assert wheel_a.round_number == wheel_b.round_number
        # The synced wheels actually dial.
        call = alice.call("bob@x.org")
        while alice.client.dialing.pending_in_queue():
            deployment.run_dialing_round()
        assert call.session_key == bob_client.received_calls()[-1].session_key

    def test_duplicate_request_is_not_reaccepted(self):
        """Bob reports a duplicate instead of re-anchoring; no reply storm."""
        deployment = make_deployment("retry-dup", retry=1)
        deployment.create_client("alice@x.org")
        bob_client = deployment.create_client("bob@x.org")
        alice = deployment.session("alice@x.org")
        bob = deployment.session("bob@x.org")
        alice.add_friend("bob@x.org")
        deployment.run_addfriend_round()
        deployment.run_addfriend_round(participants=["alice@x.org"])
        for _ in range(3):
            deployment.run_addfriend_round()
        # Bob saw the original and the duplicate, but accepted only once.
        received = bob.events.history("friend_request_received")
        assert len(received) == 1
        # Quiescence: nobody keeps queueing follow-up requests.
        assert alice.client.addfriend.pending_in_queue() == 0
        assert bob_client.addfriend.pending_in_queue() == 0


class TestAbortedRoundHandles:
    def drive_to_abort(self, retry: int | None):
        from repro.errors import NetworkError

        deployment = make_sim_deployment(pkgs=2, latency_ms=20, seed=f"abort-{retry}")
        deployment.config.retry_horizon = retry
        deployment.create_client("alice@x.org")
        deployment.create_client("bob@x.org")
        alice = deployment.session("alice@x.org")
        handle = alice.add_friend("bob@x.org")
        # The CDN partitions after submissions: close/publish fails, the
        # round aborts, and every envelope dies with it.
        deployment.transport.topology.partition_endpoint("cdn")
        with pytest.raises(NetworkError):
            deployment.run_addfriend_round()
        deployment.transport.topology.heal_endpoint("cdn")
        return deployment, alice, handle

    def test_abort_without_retry_fails_the_handle(self):
        _, alice, handle = self.drive_to_abort(retry=None)
        assert handle.state is RequestState.FAILED
        failed = alice.events.history("request_failed")[-1]
        assert failed is not None and failed["reason"] == "round aborted"

    def test_abort_with_retry_recovers(self):
        deployment, alice, handle = self.drive_to_abort(retry=1)
        assert handle.state is RequestState.SUBMITTED  # awaiting the retry pass
        for _ in range(3):
            deployment.run_addfriend_round()
        assert handle.confirmed
        assert len(alice.events.history("request_retrying")) == 1


class TestLateConfirmation:
    def test_confirmation_in_flight_overrides_failed(self):
        """Budget runs out while bob's reply is in transit: the handle must
        end up agreeing with the address book (CONFIRMED, not FAILED)."""
        deployment = make_deployment("late-confirm", retry=1)
        deployment.create_client("alice@x.org")
        deployment.create_client("bob@x.org")
        alice = deployment.session("alice@x.org")
        alice.max_attempts = 1
        handle = alice.add_friend("bob@x.org")
        deployment.run_addfriend_round()  # bob accepts, queues his reply
        # Bob offline: the reply stalls, the budget (1 attempt) expires.
        deployment.run_addfriend_round(participants=["alice@x.org"])
        assert handle.state is RequestState.FAILED
        deployment.run_addfriend_round()  # bob's reply finally lands
        assert handle.confirmed
        assert alice.client.friends() == ["bob@x.org"]


def befriend(deployment, a: str, b: str) -> None:
    deployment.client(a).add_friend(b)
    deployment.run_addfriend_round()
    deployment.run_addfriend_round()


class TestOneSessionPerClient:
    def test_a_client_nobody_asked_for_still_publishes_its_scan_events(self):
        deployment = make_deployment("one-session")
        alice = deployment.create_client("alice@x.org")
        bob = deployment.create_client("bob@x.org")
        befriend(deployment, "alice@x.org", "bob@x.org")
        alice.call("bob@x.org")
        while alice.dialing.pending_in_queue():
            deployment.run_dialing_round()
        assert bob.session is deployment.session("bob@x.org")
        received = bob.session.events.history("friend_request_received")[-1]
        assert received.email == "alice@x.org" and received["accepted"] is True
        call = bob.session.events.history("call_received")[-1]
        assert call["call"] is bob.received_calls()[-1]
        assert call.email == "alice@x.org"

    def test_the_deployment_wide_subscriber_reaches_a_later_client(self):
        deployment = make_deployment("subscribe-late")
        deployment.create_client("alice@x.org")
        seen = []
        deployment.subscribe_all(seen.append)
        deployment.create_client("bob@x.org")  # created after the subscription
        deployment.session("alice@x.org").add_friend("bob@x.org")
        deployment.run_addfriend_round()
        assert ("friend_request_received", "alice@x.org") in [(e.type, e.email) for e in seen]
        assert seen[0].type == "request_queued"

    def test_two_subscribers_to_one_call_received_both_fire(self):
        deployment = make_deployment("two-subscribers")
        alice = deployment.create_client("alice@x.org")
        deployment.create_client("bob@x.org")
        befriend(deployment, "alice@x.org", "bob@x.org")
        bob = deployment.session("bob@x.org")
        first, second = [], []
        bob.events.subscribe("call_received", first.append)
        bob.events.subscribe("call_received", second.append)
        alice.call("bob@x.org")
        while alice.dialing.pending_in_queue():
            deployment.run_dialing_round()
        assert len(first) == len(second) == 1
        assert first[0] is second[0]

    def test_received_calls_are_uncapped_and_survive_recovery(self):
        deployment = make_deployment("received-record")
        alice = deployment.create_client("alice@x.org")
        bob = deployment.create_client("bob@x.org")
        befriend(deployment, "alice@x.org", "bob@x.org")
        alice.session.events = EventBus(max_history=1)  # the bus forgets; the record must not
        for intent in (0, 1):
            bob.call("alice@x.org", intent)
            while bob.dialing.pending_in_queue():
                deployment.run_dialing_round()
        received = alice.received_calls()
        assert [call.intent for call in received] == [0, 1]
        assert len(alice.session.events.history()) == 1
        alice.recover_from_compromise(deployment.pkg_stubs, deployment.email_network)
        assert alice.received_calls() == received


class TestParallelPkgFanout:
    """RPC counts scale with PKG count; simulated wall-clock must not."""

    def one_round(self, pkgs: int):
        deployment = make_sim_deployment(pkgs=pkgs, seed="fan-parallel")
        for i in range(4):
            deployment.create_client(f"u{i}@x.org")
        deployment.client("u0@x.org").add_friend("u1@x.org")
        summary = deployment.run_addfriend_round()
        return deployment, summary

    def test_extraction_rpcs_scale_but_submit_stage_does_not(self):
        dep2, round2 = self.one_round(2)
        dep4, round4 = self.one_round(4)
        # Linear RPC fan-out: one extract per client per PKG (the stats
        # record both directions, so 2 messages per RPC)...
        assert dep2.transport.stats.calls_by_method["extract"] == 2 * 4 * 2
        assert dep4.transport.stats.calls_by_method["extract"] == 2 * 4 * 4
        # ...but the concurrent phase keeps the submit stage flat.
        assert round4.submit_stage_s < round2.submit_stage_s * 1.25

    def test_wave_skips_remaining_pkgs_after_a_failed_extraction(self):
        """One client cut off from the second of three PKGs: it stops
        extracting there and fails alone; everyone else pays one PKG round
        trip, not three."""
        deployment = make_sim_deployment(pkgs=3, seed="fan-cut")
        clients = [deployment.create_client(f"u{i}@x.org") for i in range(4)]
        cut = clients[0]
        cut.add_friend("u1@x.org")
        deployment.transport.topology.partition(cut.email, "pkg1")
        summary = deployment.run_addfriend_round()
        assert summary.failures == 1
        assert summary.submissions == 3
        # pkg0 answered all four; pkg1 and pkg2 only ever saw the other three
        # (two recorded messages per completed RPC; a partitioned call is not one).
        assert deployment.transport.stats.calls_by_method["extract"] == 2 * (4 + 3 + 3)
        assert cut.addfriend.pending_in_queue() == 1
        assert not cut.addfriend.has_round_keys(summary.round_number)
        # The extraction round trips overlap, then the submission's: two
        # client-link round trips of 2 x 200 ms.
        assert 2 * 0.4 < summary.submit_stage_s < 2 * 0.4 + 0.1

    @pytest.mark.parametrize("runtime", ["direct", "sim", "asyncio"])
    @pytest.mark.parametrize("count", [1, 3, 40])
    def test_any_number_of_clients_registers_in_two_waves(self, runtime, count):
        """Bring-up is one begin wave and one confirm wave, each carrying
        every (client, PKG) pair, whatever the client count."""
        transports = {"direct": DirectTransport, "sim": SimulatedNetwork, "asyncio": AsyncioTransport}
        config = AlpenhornConfig.for_tests(num_pkg_servers=3, backend="simulated")
        with Deployment(config, seed="two-waves", transport=transports[runtime]()) as deployment:
            waves = count_waves(deployment.transport)
            clients = deployment.create_clients([f"u{i}@x.org" for i in range(count)])
            assert waves == [3 * count, 3 * count]
            assert all(client.registered for client in clients)
            assert list(deployment.clients) == [client.email for client in clients]
            waves.clear()
            deployment.create_client("late@x.org")
            assert waves == [3, 3]

    def test_refused_client_leaves_the_rest_of_its_batch_registered(self):
        """One refused registration fails alone: the other clients of the
        wave are registered and added, befriend each other in an add-friend
        round, and the refusal is raised after both waves."""
        deployment = make_sim_deployment(pkgs=3, seed="partial")
        # Someone else already holds carol's address at every PKG.
        squatter = Client("carol@x.org", config=deployment.config, ibe=deployment.ibe)
        squatter.register(deployment.pkg_stubs, deployment.email_network)
        waves = count_waves(deployment.transport)
        with pytest.raises(LockoutError):
            deployment.create_clients(["alice@x.org", "carol@x.org", "bob@x.org"])
        # carol sits out the confirm wave.
        assert waves == [3 * 3, 3 * 2]
        assert list(deployment.clients) == ["alice@x.org", "bob@x.org"]
        assert all(client.registered for client in deployment.clients.values())
        request = deployment.session("alice@x.org").add_friend("bob@x.org")
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()
        assert request.confirmed

    def test_registration_fans_out_too(self):
        def registration_cost(pkgs: int) -> tuple[float, int]:
            deployment = make_sim_deployment(pkgs=pkgs, seed="reg")
            before = deployment.clock
            deployment.create_client("alice@x.org")
            return (
                deployment.clock - before,
                deployment.transport.stats.calls_by_method["begin_registration"],
            )

        cost2, begins2 = registration_cost(2)
        cost4, begins4 = registration_cost(4)
        assert (begins2, begins4) == (2 * 2, 2 * 4)  # both directions recorded
        assert cost4 < cost2 * 1.25

    def test_eleven_pkgs_each_get_their_own_token(self):
        """``pkg1`` must not echo ``pkg10``'s token: a sender is matched
        exactly, not by prefix."""
        deployment = make_deployment(seed="eleven-pkgs", num_pkg_servers=11)
        alice = deployment.create_client("alice@x.org")
        assert alice.registered
        assert all(
            pkg.registration.lookup("alice@x.org").deregistered_at is None for pkg in deployment.pkgs
        )

    def test_recovery_deregisters_all_pkgs_concurrently(self):
        deployment = make_sim_deployment(pkgs=4, seed="recover")
        deployment.create_client("alice@x.org")
        alice = deployment.client("alice@x.org")
        before = deployment.clock
        alice.recover_from_compromise(deployment.pkg_stubs, deployment.email_network)
        elapsed = deployment.clock - before
        assert deployment.transport.stats.calls_by_method["deregister"] == 2 * 4
        # One concurrent phase: ~one client-link round trip, not four.
        single_rtt = 2 * 0.2
        assert elapsed < single_rtt * 2.5
