"""Entry-server round lifecycle and rejection branches, on both fronts.

These cover the paths the integration tests never hit: submissions against
unopened or closed rounds, duplicate submissions, announce idempotence and
round expiry -- each on the in-process one-shard front and on a two-shard
front of entry shards behind ingress proxies -- plus the same branches
through the transport RPC path.
"""

from __future__ import annotations

import pytest

from repro.cluster.directory import front_endpoints
from repro.cluster.shard import EntryShard, IngressProxy
from repro.entry.server import EntryServer
from repro.errors import NetworkError, RoundError
from repro.mixnet.chain import MixChain
from repro.mixnet.noise import NoiseConfig
from repro.mixnet.server import MixServer
from repro.net import DirectTransport, rpc
from repro.utils.rng import DeterministicRng

#: Mailboxes per test round: enough that both shards of the sharded front own some.
MAILBOXES = 4


def make_chain() -> MixChain:
    servers = [MixServer(f"mix{i}", rng=DeterministicRng(f"entry-test/{i}")) for i in range(2)]
    return MixChain(servers, noise_config=NoiseConfig(0, 0, 0, 0))


def make_networked_entry() -> EntryServer:
    """A one-shard entry server bound to its ``entry`` endpoint, as the
    deployment binds it: clients submit over the transport."""
    entry = EntryServer(make_chain(), transport=DirectTransport())
    entry.transport.register("entry", entry.handle_rpc)
    return entry


class InProcessFront:
    """The one-shard front: the entry server answers each submission itself."""

    def __init__(self) -> None:
        self.entry = make_networked_entry()

    def submit(self, round_number: int, client_id: str, envelope: bytes) -> None:
        self.entry.submit("dialing", round_number, client_id, envelope)

    def submit_many(self, round_number: int, entries: list) -> list:
        """The round engine's submit wave, as framed RPCs to the server."""
        return self.entry.submit_many("dialing", round_number, entries)

    def submissions(self, round_number: int) -> int:
        return self.entry.submissions("dialing", round_number)


class ShardedFront:
    """Two entry shards behind ingress proxies, driven as the round engine
    drives them: a submit wave, then the end-of-stage flush."""

    def __init__(self) -> None:
        transport = DirectTransport()
        self.entry = EntryServer(make_chain(), transport=transport, shard_count=2)
        self.shards = []
        for index, (entry, ingress, _) in enumerate(front_endpoints(2)):
            self.shards.append(EntryShard(entry, index))
            transport.register(entry, self.shards[-1].handle_rpc)
            transport.register(ingress, IngressProxy(ingress, entry, transport).handle_rpc)

    def submit(self, round_number: int, client_id: str, envelope: bytes) -> None:
        """A late reject from the flush is raised as the round's refusal."""
        (outcome,) = self.entry.submit_many("dialing", round_number, [(client_id, envelope, None)])
        if outcome.error is not None:
            raise outcome.error
        for client, reason in self.entry.flush_submissions("dialing", round_number):
            raise RoundError(f"{client}: {reason}")

    def submit_many(self, round_number: int, entries: list) -> list:
        """The round engine's submit wave, routed to the shards' ingresses."""
        return self.entry.submit_many("dialing", round_number, entries)

    def submissions(self, round_number: int) -> int:
        """The envelopes wait at the shards; the entry server holds none."""
        return sum(shard.submissions("dialing", round_number) for shard in self.shards)


@pytest.fixture(params=[InProcessFront, ShardedFront], ids=["in-process", "2-shard"])
def front(request):
    return request.param()


class TestRoundLifecycle:
    def test_submit_before_announce_raises(self, front):
        with pytest.raises(RoundError):
            front.submit(1, "alice", b"envelope")

    def test_submit_wave_to_unannounced_round_fails_per_entry(self, front):
        """A submit wave is one outcome per entry, never a raise: a round
        the server never announced fails each entry with a RoundError."""
        outcomes = front.submit_many(5, [("alice", b"a", None), ("bob", b"b", None)])
        assert len(outcomes) == 2
        assert all(isinstance(outcome.error, RoundError) for outcome in outcomes)

    def test_close_unopened_round_raises(self, front):
        with pytest.raises(RoundError):
            front.entry.close_round("dialing", 7)

    def test_announce_is_idempotent(self, front):
        first = front.entry.announce_round("dialing", 1, MAILBOXES, 32)
        second = front.entry.announce_round("dialing", 1, 9, 99)  # params ignored
        assert second is first

    def test_submissions_of_unknown_round_is_zero(self, front):
        assert front.submissions(3) == 0

    def test_duplicate_submission_is_dropped(self, front):
        front.entry.announce_round("dialing", 1, MAILBOXES, 32)
        front.submit(1, "alice", b"first")
        front.submit(1, "alice", b"replayed")
        assert front.submissions(1) == 1

    def test_unclosed_round_expires_with_the_front(self, front):
        """A round whose close or abort never arrives must not retain its
        envelopes: the server inherits its front's expiry, announcements
        included."""
        entry = front.entry
        entry.announce_round("dialing", 1, MAILBOXES, 32)
        front.submit(1, "alice", b"envelope")
        entry.announce_round("dialing", 1 + EntryShard.RETAINED_ROUNDS, MAILBOXES, 32)
        assert front.submissions(1) == 1  # still inside the horizon
        entry.announce_round("dialing", 1 + EntryShard.RETAINED_ROUNDS + 1, MAILBOXES, 32)
        assert front.submissions(1) == 0
        assert ("dialing", 1) not in entry._announcements
        with pytest.raises(RoundError):
            entry.close_round("dialing", 1)

    def test_round_cannot_be_reused_after_close(self, front):
        front.entry.announce_round("dialing", 1, MAILBOXES, 32)
        front.entry.close_round("dialing", 1)
        with pytest.raises(RoundError, match="not open on"):
            front.submit(1, "alice", b"late")


class TestEntryOverTransport:
    """The same branches exercised through framed RPCs."""

    @staticmethod
    def submit(entry, client_id: str, envelope: bytes) -> None:
        """One framed ``submit`` RPC."""
        payload = rpc.SUBMIT_REQUEST.encode("dialing", 1, client_id, envelope)
        entry.transport.call(client_id, "entry", "submit", payload)

    def test_submit_and_count_over_rpc(self):
        entry = make_networked_entry()
        entry.announce_round("dialing", 1, 1, 32)
        self.submit(entry, "alice@example.org", b"\x01" * 64)
        assert entry.submissions("dialing", 1) == 1

    def test_duplicate_over_rpc_is_dropped(self):
        """A replayed frame is dropped silently: the first envelope stands."""
        entry = make_networked_entry()
        entry.announce_round("dialing", 1, 1, 32)
        self.submit(entry, "alice@example.org", b"\x01" * 64)
        self.submit(entry, "alice@example.org", b"\x02" * 64)
        assert entry.submissions("dialing", 1) == 1

    def test_unknown_method_raises_network_error(self):
        entry = make_networked_entry()
        with pytest.raises(NetworkError):
            entry.transport.call("x", "entry", "no_such_method")
