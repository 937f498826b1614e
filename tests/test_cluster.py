"""The sharded entry/CDN tier (repro.cluster).

Covers the shard directory (balanced contiguous ranges, boundary routing,
wire codec), the Zipf mailbox-skew workload generator, end-to-end rounds
through a sharded deployment (including equivalence with the single-shard
tier), ingress envelope batching and its failure/requeue semantics, shared
rate-token enforcement, the unknown-round vs empty-mailbox distinction, the
access-link capacity model, and the dialing redial outbox.
"""

from __future__ import annotations

import pytest

from repro.api.handles import RequestState
from repro.sim.workloads import ZipfMailboxWorkload
from repro.cluster.directory import ShardDirectory, balanced_ranges
from repro.cluster.shard import CdnShard, EntryShard, IngressProxy
from repro.core.config import AlpenhornConfig
from repro.core.coordinator import Deployment
from repro.crypto import blind, bls
from repro.errors import (
    NetworkError,
    RateLimitError,
    RoundError,
    ShardRoutingError,
    UnknownRoundError,
)
from repro.mixnet.mailbox import AddFriendMailbox, MailboxSet, mailbox_for_identity
from repro.mixnet.noise import NoiseConfig
from repro.net import rpc
from repro.net.simulated import SimulatedNetwork
from repro.net.transport import DirectTransport


def email_on_mailbox(mailbox_id: int, mailbox_count: int, tag: str = "u") -> str:
    """Mine an email whose own mailbox is exactly ``mailbox_id``."""
    for n in range(100_000):
        email = f"{tag}{n}@x.org"
        if mailbox_for_identity(email, mailbox_count) == mailbox_id:
            return email
    raise AssertionError("mining failed")  # pragma: no cover


def cluster_config(shards: int = 2, batch: int = 4, fixed_k: int | None = 4, **kwargs):
    return AlpenhornConfig(
        num_mix_servers=2,
        num_pkg_servers=2,
        ibe_backend="simulated",
        noise=NoiseConfig(2, 0, 2, 0),
        addfriend_target_per_mailbox=16,
        dialing_target_per_mailbox=16,
        num_intents=3,
        entry_shards=shards,
        ingress_batch_size=batch,
        fixed_mailbox_count=fixed_k,
        **kwargs,
    )


class TestShardDirectory:
    def test_balanced_ranges_cover_exactly(self):
        for mailbox_count, shard_count in [(8, 4), (10, 4), (7, 3), (1, 1), (5, 8)]:
            ranges = balanced_ranges(mailbox_count, shard_count)
            assert len(ranges) == shard_count
            assert ranges[0][0] == 0
            assert ranges[-1][1] == mailbox_count
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo  # contiguous, no gap or overlap
            widths = [hi - lo for lo, hi in ranges]
            assert max(widths) - min(widths) <= 1  # balanced to one mailbox

    def test_every_mailbox_routes_to_exactly_one_shard(self):
        directory = ShardDirectory.build("dialing", 3, 10, 4)
        owners = [directory.shard_for_mailbox(m).index for m in range(10)]
        assert owners == sorted(owners)  # contiguous ranges => monotone
        assert set(owners) == {0, 1, 2, 3}

    def test_range_boundaries_route_to_the_owner(self):
        directory = ShardDirectory.build("add-friend", 1, 8, 2)
        lo_shard, hi_shard = directory.ranges
        assert directory.shard_for_mailbox(lo_shard.hi - 1) is lo_shard
        assert directory.shard_for_mailbox(hi_shard.lo) is hi_shard

    def test_out_of_range_mailbox_is_a_routing_error(self):
        directory = ShardDirectory.build("dialing", 1, 4, 2)
        with pytest.raises(ShardRoutingError):
            directory.shard_for_mailbox(4)
        with pytest.raises(ShardRoutingError):
            directory.shard_for_mailbox(0xFFFFFFFF)  # the cover mailbox

    def test_identity_routing_matches_mailbox_hash(self):
        directory = ShardDirectory.build("dialing", 1, 8, 4)
        email = email_on_mailbox(5, 8)
        assert directory.shard_for_identity(email) is directory.shard_for_mailbox(5)

    def test_empty_ranges_when_fewer_mailboxes_than_shards(self):
        directory = ShardDirectory.build("dialing", 1, 2, 4)
        assert [r.width() for r in directory.ranges] == [1, 1, 0, 0]
        assert directory.shard_for_mailbox(1).index == 1

    def test_wire_codec_round_trips(self):
        directory = ShardDirectory.build("add-friend", 7, 10, 3)
        encoded = rpc.SHARD_DIRECTORY.encode(*directory.to_fields())
        assert ShardDirectory.from_fields(rpc.SHARD_DIRECTORY.decode(encoded)) == directory

    def test_announce_response_carries_the_directory(self):
        directory = ShardDirectory.build("add-friend", 2, 8, 2)
        payload = rpc.ANNOUNCE_RESPONSE.encode(8, 640, [b"mixkey"], directory.to_fields(), [])
        count, body, mix, decoded, _pkg_keys = rpc.ANNOUNCE_RESPONSE.decode(payload)
        assert (mix, count, body) == ([b"mixkey"], 8, 640)
        assert ShardDirectory.from_fields(decoded) == directory
        # And the single-server form still decodes with no directory.
        payload = rpc.ANNOUNCE_RESPONSE.encode(4, 32, [b"mixkey"], None, [])
        assert rpc.ANNOUNCE_RESPONSE.decode(payload)[3] is None


class TestZipfMailboxWorkload:
    def test_uniform_alpha_uses_plain_emails(self):
        workload = ZipfMailboxWorkload(shard_count=4, mailbox_count=8, alpha=0.0)
        assert workload.email_for(3) == "user3@sim.example.org"

    def test_mined_emails_land_on_the_sampled_shards(self):
        workload = ZipfMailboxWorkload(shard_count=4, mailbox_count=8, alpha=1.5, seed="t")
        directory = ShardDirectory.build("add-friend", 1, 8, 4)
        loads = [0] * 4
        for i in range(40):
            loads[directory.shard_for_identity(workload.email_for(i)).index] += 1
        assert sum(loads) == 40
        # Zipf(1.5) concentrates mass on the first-ranked shard.
        assert loads[0] == max(loads)
        assert loads[0] >= 15

    def test_skew_is_deterministic_per_seed(self):
        a = ZipfMailboxWorkload(shard_count=4, mailbox_count=8, alpha=2.0, seed="d")
        b = ZipfMailboxWorkload(shard_count=4, mailbox_count=8, alpha=2.0, seed="d")
        assert [a.email_for(i) for i in range(10)] == [b.email_for(i) for i in range(10)]

    def test_skew_needs_a_mailbox_per_shard(self):
        with pytest.raises(ValueError):
            ZipfMailboxWorkload(shard_count=8, mailbox_count=4, alpha=1.0)


def make_cluster_deployment(clients: int = 8, transport=None, **config_kwargs) -> Deployment:
    deployment = Deployment(
        cluster_config(**config_kwargs), seed="cluster-test", transport=transport
    )
    for i in range(clients):
        deployment.create_client(f"user{i}@x.org")
    return deployment


class TestShardedDeployment:
    def test_default_config_stays_single_shard(self):
        deployment = Deployment(AlpenhornConfig.for_tests(backend="simulated"), seed="t")
        assert deployment.entry.shard_count == 1
        assert deployment.cdn is not None
        assert "entry" in deployment.transport.endpoints()

    def test_cluster_registers_per_shard_endpoints(self):
        deployment = make_cluster_deployment(clients=0, shards=2)
        endpoints = deployment.transport.endpoints()
        for name in ("entry0", "entry1", "ingress0", "ingress1", "cdn0", "cdn1"):
            assert name in endpoints
        assert "entry" not in endpoints and "cdn" not in endpoints
        assert deployment.cdn is None

    def test_friendship_and_call_across_the_sharded_tier(self):
        deployment = make_cluster_deployment(clients=8, shards=2)
        handle = deployment.session("user0@x.org").add_friend("user1@x.org")
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()
        assert handle.confirmed
        assert deployment.client("user1@x.org").friends() == ["user0@x.org"]
        call = deployment.session("user0@x.org").call("user1@x.org")
        for _ in range(4):
            deployment.run_dialing_round()
        assert call.state is RequestState.DELIVERED
        received = deployment.client("user1@x.org").received_calls()
        assert [c.session_key for c in received] == [call.session_key]

    def test_matches_single_shard_outcomes(self):
        """The same workload forms the same friendships sharded or not."""

        def outcome(shards: int):
            config = cluster_config(shards=shards, fixed_k=4)
            deployment = Deployment(config, seed="equiv")
            for i in range(10):
                deployment.create_client(f"user{i}@x.org")
            handles = [
                deployment.session(f"user{2 * p}@x.org").add_friend(f"user{2 * p + 1}@x.org")
                for p in range(4)
            ]
            deployment.run_addfriend_round()
            deployment.run_addfriend_round()
            return sorted(
                (h.email, h.state.value) for h in handles
            ), sorted(frozenset([c.email] + c.friends()) for c in deployment.clients.values())

        assert outcome(1) == outcome(3)

    def test_submissions_are_counted_across_shards(self):
        deployment = make_cluster_deployment(clients=8, shards=4, fixed_k=8)
        summary = deployment.run_dialing_round()
        assert summary.submissions == 8
        loads = deployment.entry.load_by_round[("dialing", 1)]
        assert len(loads) == 4
        assert sum(loads) == 8
        expected = [0, 0, 0, 0]
        directory = deployment.entry.directory("dialing", 1)
        for email in deployment.clients:
            expected[directory.shard_for_identity(email).index] += 1
        assert loads == expected

    def test_fixed_mailbox_count_pins_every_round(self):
        deployment = make_cluster_deployment(clients=6, shards=2, fixed_k=4)
        af = deployment.run_addfriend_round()
        dial = deployment.run_dialing_round()
        assert af.mailbox_count == 4 and dial.mailbox_count == 4

    def test_boundary_mailbox_client_routes_to_its_shard(self):
        deployment = Deployment(cluster_config(shards=2, fixed_k=4), seed="edge")
        # Shard ranges over K=4: shard0 [0,2), shard1 [2,4).  Mine a client
        # whose mailbox sits exactly on the boundary (id 2, shard1's lo).
        email = email_on_mailbox(2, 4, tag="edge")
        deployment.create_client(email)
        deployment.run_dialing_round()
        assert deployment.entry.load_by_round[("dialing", 1)] == [0, 1]

    def test_wrong_shard_submit_is_a_routing_error(self):
        deployment = make_cluster_deployment(clients=2, shards=2, fixed_k=4)
        deployment.run_addfriend_round()  # allocates round 1 state lazily
        shard0, shard1 = deployment.entry_shard_servers
        directory = ShardDirectory.build("dialing", 99, 4, 2)
        shard0.open_round("dialing", 99, 32, directory)
        misrouted = email_on_mailbox(3, 4, tag="wrong")  # owned by shard1
        with pytest.raises(ShardRoutingError):
            shard0.submit("dialing", 99, misrouted, b"envelope")


class TestIngressBatching:
    def test_batches_amortize_frames(self):
        """Fewer SubmitBatch frames at larger batch sizes, same submissions."""

        def frames(batch: int):
            deployment = make_cluster_deployment(clients=8, shards=2, batch=batch, fixed_k=4)
            summary = deployment.run_dialing_round()
            assert summary.submissions == 8
            return deployment.transport.stats.calls_by_method["submit_batch"]

        assert frames(1) > frames(4)

    def test_lost_batch_rejects_and_requeues(self):
        """A batch the shard never received reports every sender back."""
        transport = DirectTransport()
        proxy = IngressProxy("ingress9", "entry-missing", transport, batch_size=10)
        transport.register(proxy.name, proxy.handle_rpc)
        for n in range(3):
            transport.call(
                f"c{n}",
                proxy.name,
                "submit",
                rpc.SUBMIT_REQUEST.encode("dialing", 1, f"c{n}", b"env", None),
            )
        rejects = proxy.flush("dialing", 1)
        assert [client for client, _ in rejects] == ["c0", "c1", "c2"]
        assert proxy.flush("dialing", 1) == []  # drained

    def test_unflushed_rounds_expire(self):
        """A round whose flush never arrived must not retain envelopes
        forever: later-round activity expires it."""
        transport = DirectTransport()
        shard = EntryShard("entry0", 0)
        transport.register(shard.name, shard.handle_rpc)
        proxy = IngressProxy("ingress0", shard.name, transport, batch_size=10)
        transport.register(proxy.name, proxy.handle_rpc)
        transport.call(
            "c0", proxy.name, "submit", rpc.SUBMIT_REQUEST.encode("dialing", 1, "c0", b"env", None)
        )
        assert proxy.buffered("dialing", 1) == 1
        far_ahead = 1 + IngressProxy.RETAINED_ROUNDS + 1
        transport.call(
            "c1",
            proxy.name,
            "submit",
            rpc.SUBMIT_REQUEST.encode("dialing", far_ahead, "c1", b"env", None),
        )
        assert proxy.buffered("dialing", 1) == 0
        assert proxy.rounds_expired == 1

    def test_entry_shard_expires_unclosed_rounds(self):
        shard = EntryShard("entry0", 0)
        directory = ShardDirectory.build("dialing", 1, 4, 1)
        shard.open_round("dialing", 1, 32, directory)
        far_ahead = 1 + EntryShard.RETAINED_ROUNDS + 1
        shard.open_round(
            "dialing", far_ahead, 32, ShardDirectory.build("dialing", far_ahead, 4, 1)
        )
        assert shard.submissions("dialing", 1) == 0 and shard.rounds_expired == 1

    def test_failed_open_broadcast_tears_down_opened_shards(self):
        """If the open broadcast dies partway, shards that already opened
        the round must still be torn down by the abort."""
        net = SimulatedNetwork(seed="open-fail")
        deployment = Deployment(
            cluster_config(shards=2, fixed_k=4), seed="open-fail", transport=net
        )
        deployment.create_client("a@x.org")
        net.topology.partition("coordinator", "entry1")
        with pytest.raises(NetworkError):
            deployment.run_dialing_round()
        shard0 = deployment.entry_shard_servers[0]
        assert shard0._open_rounds == {}  # opened, then aborted
        net.topology.heal("coordinator", "entry1")
        summary = deployment.run_dialing_round()
        assert not summary.aborted and summary.submissions == 1

    def test_engine_requeues_rejected_submissions(self):
        """A shard partitioned during the submit phase loses only its own
        clients' envelopes; those clients are requeued and confirm after the
        partition heals."""
        net = SimulatedNetwork(seed="partition-test")
        deployment = Deployment(
            cluster_config(shards=2, batch=4, fixed_k=4), seed="partition", transport=net
        )
        # Alice (the sender) lives on shard 1, her friend on shard 0.
        alice = email_on_mailbox(2, 4, tag="a")  # shard1: [2, 4)
        bob = email_on_mailbox(0, 4, tag="b")  # shard0: [0, 2)
        deployment.create_client(alice)
        deployment.create_client(bob)
        handle = deployment.session(alice).add_friend(bob)

        net.topology.partition("ingress1", "entry1")  # submit path only
        summary = deployment.run_addfriend_round()
        assert summary.failures == 1  # alice's envelope died with the batch
        assert summary.submissions == 1  # bob's made it to shard 0
        assert handle.state is RequestState.QUEUED  # revoked, not failed
        assert deployment.client(alice).addfriend.pending_in_queue() == 1

        net.topology.heal("ingress1", "entry1")
        deployment.run_addfriend_round()  # request reaches bob
        deployment.run_addfriend_round()  # bob's confirmation returns
        assert handle.confirmed
        assert handle.attempts == 1  # the revoked attempt was not counted


class TestRateTokensAcrossShards:
    def make_shards(self):
        issuer = bls.generate_keypair(seed=b"\x07" * 32)
        verifier = blind.TokenVerifier(issuer.public)
        shards = [EntryShard(f"entry{i}", i, rate_limit_verifier=verifier) for i in range(2)]
        directory = ShardDirectory.build("dialing", 1, 4, 2)
        for shard in shards:
            shard.open_round("dialing", 1, 32, directory)
        return issuer, shards

    def mint(self, issuer) -> blind.RateToken:
        blinded, state = blind.blind()
        return blind.unblind(state, blind.issue(issuer.secret, blinded))

    def test_token_spent_at_one_shard_is_spent_at_all(self):
        issuer, (shard0, shard1) = self.make_shards()
        token = self.mint(issuer)
        sender0 = email_on_mailbox(0, 4, tag="s0")
        sender1 = email_on_mailbox(2, 4, tag="s1")
        shard0.submit("dialing", 1, sender0, b"env", rate_token=token)
        with pytest.raises(RateLimitError):
            shard1.submit("dialing", 1, sender1, b"env", rate_token=token)
        # A fresh token is accepted at the second shard.
        shard1.submit("dialing", 1, sender1, b"env", rate_token=self.mint(issuer))

    def test_missing_token_rejected_per_shard(self):
        _, (shard0, _) = self.make_shards()
        with pytest.raises(RateLimitError):
            shard0.submit("dialing", 1, email_on_mailbox(0, 4), b"env")


class TestUnknownRoundVsEmptyMailbox:
    def test_cdn_distinguishes_unknown_round_from_empty_mailbox(self):
        from repro.cdn.cdn import Cdn

        cdn = Cdn()
        with pytest.raises(UnknownRoundError):
            cdn.download_blob("add-friend", 1, 0)
        mailboxes = MailboxSet(round_number=1, protocol="add-friend", mailbox_count=4)
        mailboxes.addfriend[0] = AddFriendMailbox(mailbox_id=0, ciphertexts=[b"c"])
        cdn.publish(mailboxes)
        assert cdn.download_blob("add-friend", 1, 1) is None  # empty, known round
        assert cdn.download_blob("add-friend", 1, 0) is not None
        # UnknownRoundError stays catchable as the legacy RoundError.
        with pytest.raises(RoundError):
            cdn.download_blob("dialing", 1, 0)

    def test_sharded_cdn_stub_matches_single_cdn_error_contract(self):
        """A round the directory no longer resolves raises the same
        UnknownRoundError the single CDN raises for unpublished rounds."""
        deployment = make_cluster_deployment(clients=2, shards=2)
        with pytest.raises(UnknownRoundError):
            deployment.cdn_stub.download_many("dialing", 77, [(0, "anonymous")])

    def test_cdn_shard_rejects_out_of_range_downloads(self):
        shard = CdnShard("cdn0", 0)
        shard.store_shard_round(0, 4, "add-friend", 3, 8, {})
        assert shard.download_blob("add-friend", 3, 1) is None  # empty but owned
        with pytest.raises(ShardRoutingError):
            shard.download_blob("add-friend", 3, 5)  # owned by another shard
        with pytest.raises(UnknownRoundError):
            shard.download_blob("add-friend", 4, 1)  # round never published


class TestRevokeSubmission:
    def test_addfriend_revoke_restores_the_queue(self):
        deployment = Deployment(AlpenhornConfig.for_tests(backend="simulated"), seed="rv")
        alice = deployment.create_client("alice@x.org")
        deployment.create_client("bob@x.org")
        alice.add_friend("bob@x.org")
        announcement = deployment.entry.announce_round("add-friend", 1, 4, alice.addfriend.body_length())
        driver = deployment.round_engine("add-friend").driver
        # A wave of one; an accepted submission runs confirm_sent (the ack).
        assert driver.submit_many([alice], announcement) == [(alice, None)]
        assert alice.addfriend.pending_in_queue() == 0
        alice.addfriend.revoke_submission()
        assert alice.addfriend.pending_in_queue() == 1
        assert alice.addfriend.queue[0].email == "bob@x.org"
        alice.addfriend.revoke_submission()  # idempotent
        assert alice.addfriend.pending_in_queue() == 1

    def test_dialing_revoke_withdraws_the_placed_call(self):
        from repro.core.dialing import DialingEngine
        from repro.core.dialtoken import OutgoingCall
        from repro.core.keywheel import Keywheel

        wheel = Keywheel()
        wheel.add_friend("bob@x.org", shared_secret=b"\x11" * 32, round_number=1)
        engine = DialingEngine(keywheel=wheel, num_intents=3)
        engine.enqueue(OutgoingCall(friend="bob@x.org", intent=1))
        engine.build_request_payload(round_number=1, mailbox_count=4)
        engine.confirm_sent()
        assert engine.placed_calls and not engine.queue
        engine.revoke_submission()
        assert not engine.placed_calls
        assert [c.intent for c in engine.queue] == [1]
        assert engine._sent_tokens.get(1, set()) == set()


class TestDialingRedial:
    def make_deployment(self, redial: int | None):
        deployment = Deployment(
            AlpenhornConfig.for_tests(backend="simulated"), seed="redial"
        )
        deployment.config.dialing_redial_attempts = redial
        for email in ("alice@x.org", "bob@x.org"):
            deployment.create_client(email)
        deployment.session("alice@x.org").add_friend("bob@x.org")
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()
        return deployment

    def abort_next_round(self, deployment):
        original = deployment.entry_stub.close_round

        def lost_control(protocol, round_number):
            deployment.entry_stub.close_round = original
            raise NetworkError("control plane died")

        deployment.entry_stub.close_round = lost_control

    def drive_until_keywheel_live(self, deployment):
        # The keywheel anchors a couple of dialing rounds ahead; burn cover
        # rounds until a queued call could actually go out.
        for _ in range(4):
            deployment.run_dialing_round()

    def test_aborted_call_is_redialed_and_delivers(self):
        deployment = self.make_deployment(redial=3)
        self.drive_until_keywheel_live(deployment)
        handle = deployment.session("alice@x.org").call("bob@x.org", intent=1)
        self.abort_next_round(deployment)
        with pytest.raises(NetworkError):
            deployment.run_dialing_round()
        assert handle.state is RequestState.QUEUED  # re-dialing, not FAILED
        assert handle.placed is None
        deployment.run_dialing_round()
        assert handle.state is RequestState.DELIVERED
        assert handle.attempts == 2
        assert handle.session_key is not None
        received = deployment.client("bob@x.org").received_calls()
        assert [c.session_key for c in received] == [handle.session_key]
        events = [e.type for e in deployment.session("alice@x.org").events.history()]
        assert "call_retrying" in events

    def test_redial_budget_is_bounded(self):
        deployment = self.make_deployment(redial=2)
        self.drive_until_keywheel_live(deployment)
        handle = deployment.session("alice@x.org").call("bob@x.org")
        for _ in range(2):  # two aborted rounds exhaust attempts 1 and 2
            self.abort_next_round(deployment)
            with pytest.raises(NetworkError):
                deployment.run_dialing_round()
        assert handle.state is RequestState.FAILED
        assert handle.attempts == 2

    def test_redial_dedupes_by_intent(self):
        deployment = self.make_deployment(redial=3)
        self.drive_until_keywheel_live(deployment)
        session = deployment.session("alice@x.org")
        first = session.call("bob@x.org", intent=1)
        self.abort_next_round(deployment)
        with pytest.raises(NetworkError):
            deployment.run_dialing_round()
        assert first.state is RequestState.QUEUED
        second = session.call("bob@x.org", intent=1)  # same intent, still live
        self.abort_next_round(deployment)
        with pytest.raises(NetworkError):
            deployment.run_dialing_round()
        # Whichever dial rode the aborted round fails rather than duplicate
        # the other live handle's intent.
        states = {first.state, second.state}
        assert RequestState.FAILED in states
        assert states != {RequestState.FAILED}

    def test_without_redial_aborts_stay_terminal(self):
        deployment = self.make_deployment(redial=None)
        self.drive_until_keywheel_live(deployment)
        handle = deployment.session("alice@x.org").call("bob@x.org")
        self.abort_next_round(deployment)
        with pytest.raises(NetworkError):
            deployment.run_dialing_round()
        assert handle.state is RequestState.FAILED


class TestAccessLinkModel:
    def test_concurrent_frames_serialize_through_the_access_link(self):
        def phase_span(capped: bool) -> float:
            net = SimulatedNetwork(seed="access")
            net.register("server", lambda request: b"")
            if capped:
                net.set_access_link("server", ingress_mbps=0.001)  # 1 kbit/s
            start = net.now()
            with net.phase() as phase:
                for n in range(4):
                    phase.run(lambda n=n: net.call(f"c{n}", "server", "m", b"x" * 125))
            return net.now() - start

        uncapped = phase_span(capped=False)
        capped = phase_span(capped=True)
        # 4 concurrent 1000-bit frames through 1 kbit/s serialize to ~4s.
        assert capped >= uncapped + 3.9

    def test_uncapped_endpoints_are_unchanged(self):
        net = SimulatedNetwork(seed="access-free")
        net.register("server", lambda request: b"")
        net.call("c", "server", "m", b"payload")
        assert net.now() == 0.0  # perfect default links, no access queue


class TestShardedScenario:
    def test_sharded_entry_scenario_runs_and_reports_loads(self):
        from repro.sim.scenarios import run_scenario

        result = run_scenario(
            "sharded_entry",
            num_clients=12,
            friend_pairs=3,
            addfriend_rounds=2,
            dialing_rounds=1,
            entry_shards=2,
            shard_access_mbps=0.0,
            fixed_mailbox_count=4,
            seed="t-shard",
        )
        assert result.friendships_confirmed >= 3
        assert result.shard_loads["shards"] == 2
        assert sum(result.shard_loads["submissions_by_shard"]) > 0
        assert result.calls_by_method.get("submit_batch", 0) > 0
        assert result.to_dict()["entry_shards"] == 2

    def test_zipf_skew_shows_up_as_imbalance(self):
        from repro.sim.scenarios import run_scenario

        def imbalance(alpha: float) -> float:
            result = run_scenario(
                "sharded_entry",
                num_clients=24,
                friend_pairs=2,
                addfriend_rounds=1,
                dialing_rounds=0,
                entry_shards=4,
                zipf_alpha=alpha,
                shard_access_mbps=0.0,
                fixed_mailbox_count=8,
                seed="t-zipf",
            )
            return result.shard_loads["imbalance"]

        assert imbalance(2.0) > imbalance(0.0)

    def test_pipelined_rounds_compose_with_sharding(self):
        """Round N+1's announce+submit overlapping round N's mix+scan keeps
        per-round shard state (open rounds, ingress buffers, directories)
        correctly keyed."""
        from repro.sim.scenarios import run_scenario

        result = run_scenario(
            "sharded_entry",
            num_clients=12,
            friend_pairs=3,
            addfriend_rounds=3,
            dialing_rounds=4,
            entry_shards=2,
            shard_access_mbps=0.5,
            fixed_mailbox_count=4,
            pipelined=True,
            seed="t-pipe-shard",
        )
        assert not any(r.aborted for r in result.rounds)
        assert result.friendships_confirmed >= 3
        assert result.calls_delivered >= 3

    def test_zipf_without_fixed_mailboxes_is_rejected(self):
        from repro.sim.scenarios import make_scenario

        with pytest.raises(ValueError):
            make_scenario(
                "sharded_entry", entry_shards=2, zipf_alpha=1.0, fixed_mailbox_count=None
            )

    def test_zipf_over_one_shard_is_rejected(self):
        """One shard has no placement to skew: fail closed, not silently uniform."""
        from repro.errors import ConfigurationError
        from repro.sim.scenarios import make_scenario

        with pytest.raises(ConfigurationError, match="zipf_alpha.*entry_shards"):
            make_scenario("sharded_entry", entry_shards=1, zipf_alpha=1.2)

    def test_every_scenario_honours_zipf_placement(self):
        """Zipf placement is the base scenario's, keyed on the spec alone."""
        from repro.sim.scenarios import SCENARIOS, make_scenario

        baseline = make_scenario("baseline", entry_shards=4, fixed_mailbox_count=8, zipf_alpha=1.2)
        sharded = SCENARIOS["sharded_entry"][0](baseline.spec)
        emails = [baseline.client_email(i) for i in range(16)]
        assert emails == [sharded.client_email(i) for i in range(16)]
        assert emails != [f"user{i}@sim.example.org" for i in range(16)]
