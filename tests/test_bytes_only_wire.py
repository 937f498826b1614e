"""An RPC is its payload, at deployment level.

* bytes are measured: on every transport a method's ``bytes_by_method`` is the
  sum of its requests' and replies' payload lengths plus frame headers;
* mailboxes cross the wire once per round (entry -> CDN), and no
  ``close_round`` reply -- a mix's or a PKG's control frame, an entry shard's
  envelope batch -- grows with what the mailboxes hold;
* a reply a client cannot decode -- garbage from the CDN, a truncated PKG
  reply, a Bloom filter declaring 2**32 - 1 hashes -- fails that client's
  stage and nobody else's;
* every method of ``rpc.METHODS`` fails closed: a request with a trailing byte
  is refused by its handler, and a reply that cannot be decoded -- client wave
  or server to server -- is a ``NetworkError`` that fails its caller or aborts
  the round, after which the next round runs clean;
* the table is the whole dispatch: an endpoint refuses every method its rows
  do not list, the retired entry-tier ``announce_round`` and ``submissions``
  included.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import defaultdict

import pytest

from repro.cdn.cdn import Cdn
from repro.cluster.shard import CdnShard, EntryShard, IngressProxy
from repro.core.config import AlpenhornConfig
from repro.core.coordinator import Deployment
from repro.crypto.ibe import SimulatedIbe
from repro.entry.server import EntryServer
from repro.errors import NetworkError, SerializationError
from repro.mixnet.chain import RoundCounts
from repro.mixnet.mailbox import decode_mailbox, mailbox_for_identity
from repro.mixnet.server import MixServer
from repro.net import DirectTransport, LinkSpec, NetworkTopology, SimulatedNetwork, rpc
from repro.net.frames import frame_overhead
from repro.net.transport import RpcResult, normalize_response
from repro.pkg.server import PkgServer
from repro.primitives.bloom import MAX_NUM_HASHES, BloomFilter, optimal_parameters
from repro.runtime import AsyncioTransport
from repro.utils.serialization import Message
from wire_oracle import Packer, vector_bytes

EMAILS = [f"user{i}@example.org" for i in range(6)]
MAILBOXES = 3


def make_transport(kind: str):
    if kind == "direct":
        return DirectTransport()
    if kind == "simulated":
        topology = NetworkTopology(default=LinkSpec.of(latency_ms=10, bandwidth_mbps=100))
        return SimulatedNetwork(topology=topology, seed="bytes-only/net")
    return AsyncioTransport()


@pytest.fixture(params=["direct", "simulated", "asyncio"])
def any_transport(request):
    transport = make_transport(request.param)
    yield transport
    transport.close()


@pytest.fixture(params=["simulated", "asyncio"])
def network_transport(request):
    transport = make_transport(request.param)
    yield transport
    transport.close()


def make_deployment(transport, **config) -> Deployment:
    base = AlpenhornConfig.for_tests(backend="simulated")
    deployment = Deployment(
        dataclasses.replace(base, fixed_mailbox_count=MAILBOXES, **config),
        seed="bytes-only",
        transport=transport,
    )
    for email in EMAILS:
        deployment.create_client(email)
    return deployment


def corrupt_replies(monkeypatch, server_class, method, victim, corrupt, limit=None):
    """Make ``server_class`` answer ``method`` requests matching ``victim`` with
    ``corrupt(reply payload)`` -- the first ``limit`` of them, or all.  Patched
    on the class, before the deployment registers the bound handler with its
    transport.  Returns the list of payloads it corrupted."""
    original = server_class.handle_rpc
    corrupted: list[bytes] = []

    def handle_rpc(self, request):
        result = normalize_response(original(self, request))
        if request.method == method and victim(request) and len(corrupted) != limit:
            corrupted.append(result.payload)
            return RpcResult(payload=corrupt(result.payload))
        return result

    monkeypatch.setattr(server_class, "handle_rpc", handle_rpc)
    return corrupted


class TestBytesAreMeasured:
    def test_bytes_by_method_is_payload_plus_frame_header(self, any_transport):
        """Nothing rides beside the frame: every byte the accounting reports
        is a payload byte a handler saw or returned, or a frame header."""
        expected: dict[str, int] = defaultdict(int)
        register = any_transport.register

        def recording_register(name, handler):
            def recorded(request):
                result = normalize_response(handler(request))
                src, dst, method = request.src, request.dst, request.method
                expected[method] += (
                    len(request.payload) + frame_overhead(src, dst, method)
                    + len(result.payload) + frame_overhead(dst, src, method)
                )
                return result

            register(name, recorded)

        any_transport.register = recording_register
        deployment = make_deployment(any_transport)
        deployment.session(EMAILS[0]).add_friend(EMAILS[1])
        # Registration traffic above is part of the ledger too; the rounds
        # add every round-path method.
        addfriend = deployment.run_addfriend_round()
        dialing = deployment.run_dialing_round()
        assert addfriend.failures == dialing.failures == 0
        stats = any_transport.stats
        assert dict(stats.bytes_by_method) == dict(expected)
        assert stats.bytes_sent == sum(expected.values())
        assert {
            "extract", "submit", "close_round",
            "process_batch", "publish", "download", "open_round",
        } <= set(expected)


class TestMailboxesCrossOnce:
    COUNTERS = (("calls_by_method", "publish"), ("bytes_by_method", "close_round"),
                ("bytes_by_method", "publish"))

    def run_round(self, deployment, protocol, friend_requests=0):
        """One round; returns its summary and the round's (publish messages,
        close_round bytes, publish bytes)."""
        stats = deployment.transport.stats
        for sender in EMAILS[:friend_requests]:
            deployment.session(sender).add_friend(EMAILS[-1])
        before = [getattr(stats, table)[method] for table, method in self.COUNTERS]
        summary = deployment.run_rounds(protocol, 1)[0]
        after = [getattr(stats, table)[method] for table, method in self.COUNTERS]
        return summary, [b - a for a, b in zip(before, after)]

    def test_one_publish_per_round_and_close_round_frames_of_fixed_size(self):
        """At one shard the only ``close_round`` frames are the mixes' and
        PKGs' fixed-size control frames: the round's counts never cross the
        wire."""
        deployment = make_deployment(DirectTransport())
        quiet, (publishes, close_bytes, publish_bytes) = self.run_round(deployment, "add-friend")
        assert publishes == 2  # one request, one acknowledgement
        counts = quiet.mix_result
        assert type(counts) is RoundCounts and not hasattr(counts, "mailboxes")
        assert len(counts.mailbox_counts) == MAILBOXES
        assert sum(counts.mailbox_counts) == counts.delivered_real + counts.noise_added
        # A busier round publishes more bytes; its close_round costs the same.
        busy, (publishes, busy_close_bytes, busy_publish_bytes) = self.run_round(
            deployment, "add-friend", friend_requests=4
        )
        assert publishes == 2
        assert busy.mix_result.delivered_real > quiet.mix_result.delivered_real
        assert busy_publish_bytes > publish_bytes
        assert busy_close_bytes == close_bytes
        dialing, (publishes, _close_bytes, _publish_bytes) = self.run_round(deployment, "dialing")
        assert publishes == 2 and type(dialing.mix_result) is RoundCounts

    def test_sharded_tier_publishes_once_per_cdn_shard(self):
        """The shards' ``close_round`` reply is their envelope batch
        (``ENVELOPE_BATCH``): with the same participants a busy add-friend
        round's replies are exactly as large as a quiet one's."""
        transport = DirectTransport()
        replies: list[tuple[str, int]] = []
        register = transport.register

        def recording_register(name, handler):
            def recorded(request):
                result = normalize_response(handler(request))
                if request.method == "close_round" and name.startswith("entry"):
                    replies.append((name, len(result.payload)))
                return result

            register(name, recorded)

        transport.register = recording_register
        deployment = make_deployment(transport, entry_shards=2)
        stats = deployment.transport.stats
        summary = deployment.run_dialing_round()
        assert stats.calls_by_method["publish"] == 2 * 2
        assert type(summary.mix_result) is RoundCounts
        assert "close_round" in stats.bytes_by_method  # the shards' collect, not mailboxes
        replies.clear()
        quiet, (_publishes, _close_bytes, quiet_publish_bytes) = self.run_round(
            deployment, "add-friend"
        )
        quiet_replies = list(replies)
        replies.clear()
        busy, (_publishes, _close_bytes, busy_publish_bytes) = self.run_round(
            deployment, "add-friend", friend_requests=4
        )
        assert busy.participants == quiet.participants == len(EMAILS)
        assert busy.mix_result.delivered_real > quiet.mix_result.delivered_real
        assert busy_publish_bytes > quiet_publish_bytes
        assert sorted(name for name, _size in quiet_replies) == ["entry0", "entry1"]
        assert replies == quiet_replies

    def test_the_coordinator_builds_no_mailbox_set(self):
        """Mailboxes reach the coordinator's process only as downloads."""
        import repro.core.coordinator as coordinator
        import repro.core.roundengine as roundengine

        for module in (coordinator, roundengine, rpc):
            assert "MailboxSet" not in vars(module)


class TestHostileBloomFilter:
    #: A 13-byte filter: 8 bits, 2**32 - 1 hashes -- one membership test
    #: would ask SHAKE-256 for 34 GB.
    BLOOM = (8).to_bytes(8, "big") + (2**32 - 1).to_bytes(4, "big") + b"\xff"

    def mailbox(self, mailbox_id: int) -> bytes:
        return Packer().u32(mailbox_id).u32(1).bytes(self.BLOOM).pack()

    def test_rejected_at_decode(self):
        assert len(self.BLOOM) == 13
        with pytest.raises(SerializationError):
            BloomFilter.from_bytes(self.BLOOM)
        with pytest.raises(SerializationError):
            decode_mailbox("dialing", 0, self.mailbox(0))

    def test_the_bound_has_headroom_over_the_operating_point(self):
        _bits, hashes = optimal_parameters(75_000, 1e-10)
        assert hashes == 33 and hashes < MAX_NUM_HASHES
        at_bound = (8).to_bytes(8, "big") + MAX_NUM_HASHES.to_bytes(4, "big") + b"\x00"
        assert b"token" not in BloomFilter.from_bytes(at_bound)
        over = (8).to_bytes(8, "big") + (MAX_NUM_HASHES + 1).to_bytes(4, "big") + b"\x00"
        with pytest.raises(SerializationError):
            BloomFilter.from_bytes(over)

    def test_a_scan_of_it_fails_only_its_readers(self, monkeypatch):
        victim_box = mailbox_for_identity(EMAILS[0], MAILBOXES)
        monkeypatch.setattr(
            Cdn, "download_blob",
            lambda cdn, protocol, round_number, mailbox_id, client: (
                self.mailbox(mailbox_id) if mailbox_id == victim_box else None
            ),
        )
        deployment = make_deployment(DirectTransport())
        summary = deployment.run_dialing_round()
        readers = [e for e in EMAILS if mailbox_for_identity(e, MAILBOXES) == victim_box]
        assert 0 < len(readers) < len(EMAILS)
        assert summary.failures == len(readers)


class TestOneBadReplyFailsOneCaller:
    def test_garbage_mailbox_fails_only_its_readers(self, monkeypatch, network_transport):
        victim_box = mailbox_for_identity(EMAILS[0], MAILBOXES)

        def for_victim_box(request):
            return rpc.DOWNLOAD_REQUEST.decode(request.payload)[2] == victim_box

        corrupt_replies(
            monkeypatch, Cdn, "download", for_victim_box,
            lambda payload: Packer().u8(1).bytes(b"not a mailbox").pack(),
        )
        deployment = make_deployment(network_transport)
        readers = [e for e in EMAILS if mailbox_for_identity(e, MAILBOXES) == victim_box]
        others = [e for e in EMAILS if e not in readers]
        assert readers and others
        sender, recipient = others[0], readers[0]
        deployment.session(sender).add_friend(recipient)

        summary = deployment.run_addfriend_round()
        assert summary.failures == len(readers)  # scan_missed, each of them
        assert summary.participants == len(EMAILS)
        number = summary.round_number
        assert all(
            not deployment.client(e).addfriend.has_round_keys(number) for e in EMAILS
        )
        # Everyone else's scan ran: nobody outside the mailbox failed, and the
        # sender's request is on its way (it left the queue with the round).
        assert deployment.client(sender).addfriend.pending_in_queue() == 0

    def test_truncated_extraction_fails_only_that_client(self, monkeypatch, network_transport):
        victim, friend = EMAILS[0], EMAILS[1]
        corrupt_replies(
            monkeypatch, PkgServer, "extract",
            lambda request: request.src == victim and request.dst == "pkg1",
            lambda payload: payload[:-1],
        )
        deployment = make_deployment(network_transport)
        deployment.session(victim).add_friend(friend)
        bystander = deployment.session(EMAILS[2]).add_friend(EMAILS[3])

        summary = deployment.run_addfriend_round()
        assert summary.failures == 1  # submit_failed for the victim alone
        assert summary.submissions == len(EMAILS) - 1
        client = deployment.client(victim)
        assert client.addfriend.pending_in_queue() == 1  # requeued
        assert not client.addfriend.has_round_keys(summary.round_number)
        deployment.run_addfriend_round()
        assert bystander.confirmed

    def test_undecodable_control_reply_is_a_network_error(self):
        transport = DirectTransport()
        transport.register("mix0", lambda request: RpcResult(payload=b"\x00\x01"))
        with pytest.raises(NetworkError, match="undecodable reply"):
            rpc.MixStub(transport, "mix0").open_round("dialing", 1)


# --------------------------------------------------------------------------- #
# Every method of the table fails closed
# --------------------------------------------------------------------------- #
#: endpoint kind -> (an endpoint of that kind, the class serving it, sharded tier?)
ENDPOINT_KINDS = {
    "entry": ("entry", EntryServer, False),
    "mix": ("mix0", MixServer, False),
    "pkg": ("pkg0", PkgServer, False),
    "cdn": ("cdn", Cdn, False),
    "entry shard": ("entry0", EntryShard, True),
    "ingress": ("ingress0", IngressProxy, True),
    "cdn shard": ("cdn0", CdnShard, True),
}
SERVED = [
    (kind, method, request, response)
    for kinds, methods, request, response in rpc.METHODS
    for kind in kinds
    for method in methods
    if kind in ENDPOINT_KINDS  # a worker's control methods take no payload and need real processes
]
#: Methods the entry tier served before the round driver called the entry
#: server in its own process; no endpoint may answer them now.
RETIRED = ("announce_round", "submissions")
#: Every (kind, method) pair the table does not list, over the table's
#: server-side method names and the retired ones.
UNSERVED = [
    (kind, method)
    for kind in ENDPOINT_KINDS
    for method in sorted(
        {method for kinds, methods, *_ in rpc.METHODS if kinds != ("worker",) for method in methods}
        | set(RETIRED)
    )
    if (kind, method) not in {case[:2] for case in SERVED}
]
#: Replies no round path asks for: their stubs are driven directly below.
OFF_ROUND = {("mix", "round_public_key"), ("pkg", "has_master_secret")}
#: The one reply whose loss is not a failure: `flush` returns the rejects of a
#: batch the proxy already sent; the entry server skips a proxy whose reply it cannot
#: read exactly as it skips an unreachable one.
SWALLOWED = {("ingress", "flush")}
CORRUPTIONS = {"truncated": lambda payload: payload[:-1], "garbage": lambda payload: b"\xff" * 5}


def method_ids(cases):
    return [f"{kind}-{method}".replace(" ", "_") for kind, method, *_ in cases]


@functools.cache
def served_deployment(sharded: bool) -> Deployment:
    """One deployment per front, shared by the refusal cases: a refused
    frame changes nothing it could leave behind."""
    return make_deployment(DirectTransport(), entry_shards=2 if sharded else 1)


class TestEveryMethodFailsClosed:
    def test_the_table_names_every_served_kind(self):
        kinds = {kind for kinds, *_ in rpc.METHODS for kind in kinds}
        assert kinds == set(ENDPOINT_KINDS) | {"worker"}

    WITH_REQUEST = [case for case in SERVED if isinstance(case[2], Message)]

    @pytest.mark.parametrize("kind,method,request_layout,_response", WITH_REQUEST,
                             ids=method_ids(WITH_REQUEST))
    def test_a_request_with_a_trailing_byte_is_refused(self, kind, method, request_layout, _response):
        endpoint, _server, sharded = ENDPOINT_KINDS[kind]
        deployment = make_deployment(DirectTransport(), entry_shards=2 if sharded else 1)
        valid = vector_bytes(request_layout)[0]
        request_layout.decode(valid)
        with pytest.raises(SerializationError, match="trailing"):
            deployment.transport.call("coordinator", endpoint, method, valid + b"\x00")

    @pytest.mark.parametrize("kind,method", UNSERVED, ids=method_ids(UNSERVED))
    def test_a_method_the_table_does_not_give_the_endpoint_is_refused(self, kind, method):
        """The table is the whole dispatch: an endpoint answers no method its
        rows do not list, even with a payload well formed for one it does
        (mix and PKG servers decode a round reference before they dispatch)."""
        endpoint, _server, sharded = ENDPOINT_KINDS[kind]
        layout = rpc.PKG_ROUND_REF if kind == "pkg" else rpc.ROUND_REF
        transport = served_deployment(sharded).transport
        with pytest.raises(NetworkError, match="has no RPC method"):
            transport.call("coordinator", endpoint, method, vector_bytes(layout)[0])

    WITH_REPLY = [case for case in SERVED if case[3] is not None and case[:2] not in OFF_ROUND]

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("kind,method,_request,_response", WITH_REPLY, ids=method_ids(WITH_REPLY))
    def test_a_malformed_reply_fails_its_caller_or_aborts_the_round_and_the_next_round_is_clean(
        self, monkeypatch, kind, method, _request, _response, corruption
    ):
        _endpoint, server, sharded = ENDPOINT_KINDS[kind]
        corrupted = corrupt_replies(
            monkeypatch, server, method, lambda request: True, CORRUPTIONS[corruption], limit=1
        )
        deployment = make_deployment(
            DirectTransport(), entry_shards=2 if sharded else 1, ingress_batch_size=2
        )
        deployment.session(EMAILS[0]).add_friend(EMAILS[1])
        protocol = "add-friend" if kind == "pkg" else "dialing"
        aborted, failures = False, 0
        try:
            failures = deployment.run_rounds(protocol, 1)[0].failures
        except NetworkError as exc:
            assert "undecodable reply" in str(exc)
            aborted = True
        assert len(corrupted) == 1, "the round never asked for this reply"
        # Whatever the layer, the only way out is the NetworkError that aborts
        # the round or fails one caller (a summary with failures).
        assert aborted or failures > 0 or (kind, method) in SWALLOWED, (aborted, failures)
        summary = deployment.run_rounds(protocol, 1)[0]
        assert summary.failures == 0 and summary.participants == len(EMAILS)

    def test_off_round_stubs_fail_closed_too(self):
        transport = DirectTransport()
        for name in ("mix0", "pkg0"):
            transport.register(name, lambda request: RpcResult(payload=b"\x02\x00"))
        mix = rpc.MixStub(transport, "mix0")
        pkg = rpc.PkgStub(transport, "pkg0", SimulatedIbe(), None, None)
        for call in (
            lambda: mix.round_public_key("dialing", 1),
            lambda: pkg.has_master_secret(1),
        ):
            with pytest.raises(NetworkError, match="undecodable reply"):
                call()
