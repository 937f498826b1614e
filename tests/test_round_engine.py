"""The unified round engine: collision fix, failure paths, and pipelining.

Covers the regressions this layer exists to prevent:

* the cross-protocol mix-round key collision (add-friend round N and dialing
  round N used to share -- and erase -- each other's onion keys),
* mailbox sizing from the round's *participants* rather than every client
  ever created,
* the announced request size coming from wire-format constants instead of an
  arbitrary sampled client,
* a call handle reporting a stale earlier call when its dial never went out,
* the ack-lost (``request_delivered``) submit paths, and
* the pipelined multi-round driver (equivalence on a direct transport,
  speedup on a simulated one, abort isolation mid-schedule).
"""

from __future__ import annotations

import pytest

from repro.core.addfriend import addfriend_body_length
from repro.core.client import Client
from repro.core.config import ADDFRIEND_REQUEST_SIZE, AlpenhornConfig
from repro.core.coordinator import Deployment
from repro.errors import NetworkError, RoundError
from repro.mixnet.chain import MixChain
from repro.mixnet.noise import NoiseConfig
from repro.mixnet.server import MixServer
from repro.net.links import LinkSpec, NetworkTopology
from repro.net.simulated import SimulatedNetwork
from repro.net.transport import DirectTransport
from repro.pkg.server import PkgServer
from repro.sim.scenarios import run_scenario
from repro.utils.rng import DeterministicRng


def make_deployment(seed: str = "engine-test", transport=None) -> Deployment:
    return Deployment(
        AlpenhornConfig.for_tests(backend="simulated"), seed=seed, transport=transport
    )


def make_sim_deployment(latency_ms: float = 20, seed: str = "engine-sim") -> Deployment:
    topo = NetworkTopology(default=LinkSpec.of(latency_ms=latency_ms, bandwidth_mbps=100))
    net = SimulatedNetwork(topology=topo, seed=f"{seed}/net")
    return make_deployment(seed=seed, transport=net)


class TestCrossProtocolRoundCollision:
    """The headline bugfix: mix rounds are namespaced by (protocol, round)."""

    def make_entry(self):
        from repro.crypto.ibe.simulated import SimulatedIbe, SimulatedPkgOracle
        from repro.emailsim.provider import EmailNetwork
        from repro.entry.server import EntryServer

        servers = [
            MixServer(f"mix{i}", rng=DeterministicRng(f"collide/{i}")) for i in range(2)
        ]
        chain = MixChain(servers, noise_config=NoiseConfig(0, 0, 0, 0))
        pkgs = [
            PkgServer(
                name="pkg0",
                ibe_backend=SimulatedIbe(SimulatedPkgOracle()),
                email_network=EmailNetwork(),
            )
        ]
        return EntryServer(chain, pkgs), servers

    def test_abort_of_one_protocol_leaves_the_other_round_intact(self):
        """Both protocols have a round N open; aborting one must not erase
        the other's mix round keys.  (Pre-fix, ``abort_round("dialing", N)``
        closed the bare round N on every mix server, so the add-friend
        round N could no longer run its batch.)"""
        entry, servers = self.make_entry()
        round_number = 7
        entry.announce_round("add-friend", round_number, 1, 64)
        entry.announce_round("dialing", round_number, 1, 32)
        entry.submit("add-friend", round_number, "alice", b"\x01" * 64)

        entry.abort_round("dialing", round_number)
        assert all(not s.has_round_key("dialing", round_number) for s in servers)
        # The concurrently open add-friend round still holds its keys and
        # closes cleanly.
        assert all(s.has_round_key("add-friend", round_number) for s in servers)
        result = entry.close_round("add-friend", round_number)
        assert result.round_number == round_number
        assert all(not s.has_round_key("add-friend", round_number) for s in servers)

    def test_abort_is_idempotent_and_scoped(self):
        entry, servers = self.make_entry()
        entry.announce_round("add-friend", 3, 1, 64)
        entry.abort_round("dialing", 3)  # nothing of this name is open
        entry.abort_round("dialing", 3)
        assert all(s.has_round_key("add-friend", 3) for s in servers)
        entry.close_round("add-friend", 3)

    def test_same_number_rounds_mix_independently(self):
        """Each protocol's round N has its own onion keys end-to-end."""
        entry, servers = self.make_entry()
        entry.announce_round("dialing", 1, 1, 32)
        entry.announce_round("add-friend", 1, 1, 64)
        dialing_publics = [s.round_public_key("dialing", 1) for s in servers]
        addfriend_publics = [s.round_public_key("add-friend", 1) for s in servers]
        assert dialing_publics != addfriend_publics
        entry.close_round("dialing", 1)
        with pytest.raises(RoundError):
            servers[0].round_public_key("dialing", 1)
        entry.close_round("add-friend", 1)

    def test_deployment_interleaves_both_protocols_at_same_round_number(self):
        """Driving both protocols to the same round number works end to end."""
        deployment = make_deployment(seed="interleave")
        alice = deployment.create_client("alice@example.org")
        deployment.create_client("bob@example.org")
        alice.add_friend("bob@example.org")
        deployment.run_addfriend_round()  # add-friend round 1
        deployment.run_dialing_round()  # dialing round 1
        deployment.run_addfriend_round()  # confirmation leg
        assert alice.friends() == ["bob@example.org"]


class TestParticipantScopedMailboxSizing:
    def test_mailbox_count_ignores_offline_clients_queues(self):
        """Queued requests of clients who are offline this round must not
        inflate the round's mailbox count (they cannot submit)."""
        deployment = make_deployment(seed="sizing")
        clients = [
            deployment.create_client(f"user{i}@example.org") for i in range(40)
        ]
        # Every client queues one friend request (simultaneous-add pairs).
        for a, b in zip(clients[0::2], clients[1::2]):
            a.add_friend(b.email)
            b.add_friend(a.email)

        online = clients[:4]  # four queued requests among them
        driver = deployment.round_engine("add-friend").driver
        assert driver.mailbox_count(clients) == 2  # 40 queued to 16 per box
        assert driver.mailbox_count(online) == 1

        summary = deployment.run_addfriend_round(participants=online)
        assert summary.mailbox_count == 1
        assert summary.participants == 4

    def test_churn_scenario_shard_sizing_stays_stable(self):
        """Under churn the shard count tracks the online population's queues:
        at this scale every round fits one mailbox, pre- and post-churn."""
        result = run_scenario(
            "client_churn", num_clients=16, addfriend_rounds=2, dialing_rounds=2,
            friend_pairs=2, seed="churn-sizing",
        )
        assert all(r.mailbox_count == 1 for r in result.rounds)


class TestAnnouncedBodyLength:
    def test_body_length_comes_from_wire_format_constants(self):
        deployment = make_deployment(seed="bodylen")
        client = deployment.create_client("alice@example.org")
        driver = deployment.round_engine("add-friend").driver
        expected = addfriend_body_length(ADDFRIEND_REQUEST_SIZE)
        assert driver.body_length() == expected
        assert client.addfriend.body_length() == expected

    def test_round_with_only_external_clients_uses_the_right_size(self):
        """A deployment driven purely with externally constructed clients
        (``deployment.clients`` empty) announces the correct fixed size."""
        deployment = make_deployment(seed="external")
        external = []
        for name in ("ext-a@example.org", "ext-b@example.org"):
            deployment.email_network.ensure_provider(name)
            client = Client(email=name, config=deployment.config, ibe=deployment.ibe)
            client.register(deployment.pkg_stubs, deployment.email_network)
            external.append(client)
        external[0].add_friend(external[1].email)

        summary = deployment.run_addfriend_round(participants=external)
        assert summary.participants == 2
        assert summary.failures == 0
        assert summary.mix_result.submitted == 2
        deployment.run_addfriend_round(participants=external)
        assert external[0].friends() == [external[1].email]


class TestPlaceCall:
    def test_place_call_returns_the_matching_call(self):
        deployment = make_deployment(seed="placecall")
        deployment.create_client("alice@example.org")
        bob = deployment.create_client("bob@example.org")
        deployment.session("alice@example.org").add_friend("bob@example.org")
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()
        call = deployment.session("alice@example.org").call("bob@example.org")
        deployment.run_dialing_round()  # cover: the wheel anchors at round 2
        deployment.run_dialing_round()
        assert call.placed is not None
        assert call.placed.friend == "bob@example.org"
        assert bob.received_calls()[-1].session_key == call.session_key

    def test_failed_dial_after_successful_one_returns_none(self):
        """A dial that never leaves the queue must not report the previous
        call as its result."""
        deployment = make_sim_deployment(latency_ms=10, seed="placecall-fail")
        alice = deployment.create_client("alice@example.org")
        deployment.create_client("bob@example.org")
        session = deployment.session("alice@example.org")
        session.add_friend("bob@example.org")
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()

        first = session.call("bob@example.org", intent=0)
        deployment.run_dialing_round()  # cover: the wheel anchors at round 2
        deployment.run_dialing_round()
        assert first.placed is not None

        # Alice loses the entry server: her token can never be submitted.
        deployment.transport.topology.partition("alice@example.org", "entry")
        second = session.call("bob@example.org", intent=1)
        for _ in range(3):
            deployment.run_dialing_round()
        assert second.placed is None
        assert alice.dialing.pending_in_queue() == 1  # still queued for later
        # Only the first call was ever actually placed.
        assert [c.intent for c in alice.placed_calls()] == [0]


class _AckLossTransport(DirectTransport):
    """Delivers requests but loses the acknowledgement of chosen submits."""

    def __init__(self) -> None:
        super().__init__()
        self.lose_submit_ack_for: set[str] = set()

    def call(self, src, dst, method, payload=b""):
        result = super().call(src, dst, method, payload)
        if method == "submit" and src in self.lose_submit_ack_for:
            self.lose_submit_ack_for.discard(src)
            exc = NetworkError(f"ack to {src} lost")
            exc.request_delivered = True
            raise exc
        return result


class TestAckLostSubmits:
    """The request_delivered paths: the server acted, only the ack died."""

    def test_addfriend_ack_loss_is_not_a_failure_and_not_resent(self):
        transport = _AckLossTransport()
        deployment = make_deployment(seed="acks", transport=transport)
        alice = deployment.create_client("alice@example.org")
        deployment.create_client("bob@example.org")
        alice.add_friend("bob@example.org")

        transport.lose_submit_ack_for.add("alice@example.org")
        summary = deployment.run_addfriend_round()
        # The submission stands: no failure, no requeue, the request arrived.
        assert summary.failures == 0
        assert summary.mix_result.submitted == 2
        assert alice.addfriend.pending_in_queue() == 0
        # Bob accepted; the confirmation leg completes the friendship.
        deployment.run_addfriend_round()
        assert alice.friends() == ["bob@example.org"]

    def test_dialing_ack_loss_still_delivers_the_call(self):
        transport = _AckLossTransport()
        deployment = make_deployment(seed="ackd", transport=transport)
        alice = deployment.create_client("alice@example.org")
        bob = deployment.create_client("bob@example.org")
        deployment.session("alice@example.org").add_friend("bob@example.org")
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()
        alice.call("bob@example.org")

        transport.lose_submit_ack_for.add("alice@example.org")
        for _ in range(24):
            summary = deployment.run_dialing_round()
            if alice.dialing.pending_in_queue() == 0:
                break
        assert summary.failures == 0
        assert alice.dialing.pending_in_queue() == 0
        # Exactly one placed call, and it landed.
        assert len(alice.placed_calls()) == 1
        assert bob.received_calls()[-1].caller == "alice@example.org"


class TestPipelinedRounds:
    def test_pipelined_on_direct_transport_forms_friendships(self):
        """On a zero-latency transport the overlap is pure bookkeeping: the
        same friendships form, with the one-round reply lag pipelining adds
        (round N+1's submissions are built before round N's scan results)."""
        deployment = make_deployment(seed="pipe-direct")
        clients = [deployment.create_client(f"u{i}@example.org") for i in range(6)]
        for a, b in zip(clients[0::2], clients[1::2]):
            a.add_friend(b.email)
        summaries = deployment.run_rounds("add-friend", 3, pipelined=True)
        assert [s.round_number for s in summaries] == [1, 2, 3]
        assert not any(s.aborted for s in summaries)
        assert all(s.submissions == 6 for s in summaries)
        for client in clients:
            assert len(client.friends()) == 1

    def test_pipelined_rounds_overlap_on_simulated_network(self):
        """Back-to-back rounds share simulated time: N rounds take less than
        N times one round's latency, bounded below by the slowest stage."""
        deployment = make_sim_deployment(latency_ms=50, seed="pipe-overlap")
        for i in range(6):
            deployment.create_client(f"u{i}@example.org")
        start = deployment.clock
        summaries = deployment.run_rounds("dialing", 4, pipelined=True)
        elapsed = deployment.clock - start
        per_round = [s.latency_s for s in summaries]
        assert all(latency > 0 for latency in per_round)
        # Strict overlap: the schedule is shorter than the rounds laid end
        # to end (each round's latency spans its whole pipeline residency).
        assert elapsed < sum(per_round) * 0.75

    def test_pipelined_scenario_hits_speedup_target(self):
        """The acceptance bar: at 200 ms links the pipelined driver sustains
        >= 1.5x the dialing rounds/sec of the sequential baseline."""
        common = dict(num_clients=16, addfriend_rounds=2, dialing_rounds=6,
                      friend_pairs=2, seed="speedup")
        sequential = run_scenario("pipelined_rounds", pipelined=False, **common)
        pipelined = run_scenario("pipelined_rounds", pipelined=True, **common)
        seq_rps = sequential.throughput["dialing"]["rounds_per_sec"]
        pipe_rps = pipelined.throughput["dialing"]["rounds_per_sec"]
        assert seq_rps > 0
        assert pipe_rps / seq_rps >= 1.5

    def test_aborted_round_does_not_take_down_the_schedule(self):
        """A failed announce mid-schedule yields one aborted summary; the
        rounds before and after it complete normally."""
        deployment = make_sim_deployment(latency_ms=10, seed="pipe-abort")
        deployment.create_client("alice@example.org")
        deployment.create_client("bob@example.org")
        net = deployment.transport

        def participants_for(index: int):
            if index == 1:
                net.topology.partition_endpoint("pkg1")
            elif index == 2:
                net.topology.heal_endpoint("pkg1")
            return None

        summaries = deployment.run_rounds(
            "add-friend", 4, participants_for=participants_for, pipelined=True
        )
        assert [s.round_number for s in summaries] == [1, 2, 3, 4]
        assert [s.aborted for s in summaries] == [False, True, False, False]
        aborted = summaries[1]
        assert aborted.submissions == 0 and aborted.mix_result is None
        # The aborted round left no keys anywhere.
        assert all(
            not mix.has_round_key("add-friend", aborted.round_number)
            for mix in deployment.mix_servers
        )

    def test_sequential_run_rounds_path_matches_single_round_driver(self):
        deployment = make_deployment(seed="pipe-seq")
        deployment.create_client("a@example.org")
        deployment.create_client("b@example.org")
        summaries = deployment.run_rounds("dialing", 2, pipelined=False)
        assert [s.round_number for s in summaries] == [1, 2]
        assert all(s.submissions == 2 for s in summaries)

    def test_per_round_bytes_do_not_double_count_under_overlap(self):
        """Each summary's bytes_sent covers only that round's own stages:
        the per-round figures must sum to no more than the transport total
        even when rounds share simulated time."""
        deployment = make_sim_deployment(latency_ms=40, seed="pipe-bytes")
        for i in range(8):
            deployment.create_client(f"u{i}@example.org")
        before = deployment.transport.stats.bytes_sent
        summaries = deployment.run_rounds("dialing", 4, pipelined=True)
        total = deployment.transport.stats.bytes_sent - before
        assert sum(s.bytes_sent for s in summaries) <= total
        assert all(s.bytes_sent > 0 for s in summaries)

    def test_pkg_failure_scenario_heals_under_pipelining(self):
        """The scenario's partition/heal hooks run on the pipelined drive
        path too: exactly one aborted round, full recovery after."""
        result = run_scenario("pkg_failure", num_clients=14, dialing_rounds=1,
                              friend_pairs=3, seed="pipe-pkgfail", pipelined=True)
        addfriend = result.rounds_for("add-friend")
        assert [r.aborted for r in addfriend] == [False, True, False, False]
        after = [r for r in addfriend if r.round_number > 2]
        assert all(r.failures == 0 for r in after)
        assert result.friendships_confirmed == 3
