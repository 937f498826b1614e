"""Entry-server round lifecycle, rejection branches, and the §9 rate limit.

These cover the paths the integration tests never hit: submissions against
unopened rounds, duplicate submissions, and the blind-signature rate-token
defence (missing, invalid, double-spent, and valid tokens), both through
direct calls and through the transport RPC path.
"""

from __future__ import annotations

import pytest

from repro.cluster.shard import EntryShard
from repro.crypto import blind, bls
from repro.entry.server import EntryServer
from repro.errors import NetworkError, RateLimitError, RoundError
from repro.mixnet.chain import MixChain
from repro.mixnet.noise import NoiseConfig
from repro.mixnet.server import MixServer
from repro.net import DirectTransport, EntryStub, rpc
from repro.utils.rng import DeterministicRng


def make_entry(rate_limit: bool = False) -> tuple[EntryServer, blind.BlindingState | None]:
    servers = [MixServer(f"mix{i}", rng=DeterministicRng(f"entry-test/{i}")) for i in range(2)]
    chain = MixChain(servers, noise_config=NoiseConfig(0, 0, 0, 0))
    verifier = None
    if rate_limit:
        issuer = bls.generate_keypair(seed=b"\x07" * 32)
        verifier = blind.TokenVerifier(issuer.public)
        entry = EntryServer(chain, rate_limit_verifier=verifier)
        entry._test_issuer = issuer  # stashed for token minting in tests
        return entry, verifier
    return EntryServer(chain, rate_limit_verifier=None), None


def mint_token(entry: EntryServer) -> blind.RateToken:
    issuer = entry._test_issuer
    blinded, state = blind.blind()
    return blind.unblind(state, blind.issue(issuer.secret, blinded))


class TestRoundLifecycle:
    def test_submit_before_announce_raises(self):
        entry, _ = make_entry()
        with pytest.raises(RoundError):
            entry.submit("dialing", 1, "alice", b"envelope")

    def test_close_unopened_round_raises(self):
        entry, _ = make_entry()
        with pytest.raises(RoundError):
            entry.close_round("dialing", 7)

    def test_announce_is_idempotent(self):
        entry, _ = make_entry()
        first = entry.announce_round("dialing", 1, 4, 32)
        second = entry.announce_round("dialing", 1, 9, 99)  # params ignored
        assert second is first

    def test_submissions_of_unknown_round_is_zero(self):
        entry, _ = make_entry()
        assert entry.submissions("dialing", 3) == 0

    def test_duplicate_submission_is_dropped(self):
        entry, _ = make_entry()
        entry.announce_round("dialing", 1, 1, 32)
        entry.submit("dialing", 1, "alice", b"first")
        entry.submit("dialing", 1, "alice", b"replayed")
        assert entry.submissions("dialing", 1) == 1

    def test_unclosed_round_expires_with_the_front(self):
        """A round whose close or abort never arrives must not retain its
        envelopes: the server inherits its front's expiry, announcements
        included."""
        entry, _ = make_entry()
        entry.announce_round("dialing", 1, 1, 32)
        entry.submit("dialing", 1, "alice", b"envelope")
        entry.announce_round("dialing", 1 + EntryShard.RETAINED_ROUNDS, 1, 32)
        assert entry.submissions("dialing", 1) == 1  # still inside the horizon
        entry.announce_round("dialing", 1 + EntryShard.RETAINED_ROUNDS + 1, 1, 32)
        assert entry.submissions("dialing", 1) == 0
        assert ("dialing", 1) not in entry._announcements
        with pytest.raises(RoundError):
            entry.close_round("dialing", 1)

    def test_round_cannot_be_reused_after_close(self):
        entry, _ = make_entry()
        entry.announce_round("dialing", 1, 1, 32)
        entry.close_round("dialing", 1)
        with pytest.raises(RoundError):
            entry.submit("dialing", 1, "alice", b"late")


class TestRateLimit:
    def test_missing_token_rejected(self):
        entry, _ = make_entry(rate_limit=True)
        entry.announce_round("dialing", 1, 1, 32)
        with pytest.raises(RateLimitError):
            entry.submit("dialing", 1, "alice", b"envelope")
        assert entry.submissions("dialing", 1) == 0

    def test_valid_token_accepted_and_spent(self):
        entry, verifier = make_entry(rate_limit=True)
        entry.announce_round("dialing", 1, 1, 32)
        entry.submit("dialing", 1, "alice", b"envelope", rate_token=mint_token(entry))
        assert entry.submissions("dialing", 1) == 1
        assert verifier.spent_count == 1

    def test_double_spend_rejected(self):
        entry, _ = make_entry(rate_limit=True)
        entry.announce_round("dialing", 1, 1, 32)
        token = mint_token(entry)
        entry.submit("dialing", 1, "alice", b"envelope", rate_token=token)
        with pytest.raises(RateLimitError):
            entry.submit("dialing", 1, "bob", b"envelope", rate_token=token)
        assert entry.submissions("dialing", 1) == 1

    def test_token_from_wrong_issuer_rejected(self):
        entry, _ = make_entry(rate_limit=True)
        entry.announce_round("dialing", 1, 1, 32)
        rogue = bls.generate_keypair(seed=b"\x66" * 32)
        blinded, state = blind.blind()
        forged = blind.unblind(state, blind.issue(rogue.secret, blinded))
        with pytest.raises(RateLimitError):
            entry.submit("dialing", 1, "alice", b"envelope", rate_token=forged)

    def test_duplicate_client_does_not_burn_a_token(self):
        """A duplicate submission is dropped *before* token verification, so
        replaying a frame cannot exhaust the client's token budget."""
        entry, verifier = make_entry(rate_limit=True)
        entry.announce_round("dialing", 1, 1, 32)
        entry.submit("dialing", 1, "alice", b"envelope", rate_token=mint_token(entry))
        entry.submit("dialing", 1, "alice", b"replay", rate_token=mint_token(entry))
        assert verifier.spent_count == 1
        assert entry.submissions("dialing", 1) == 1

    def test_duplicate_without_token_is_dropped_not_rejected(self):
        """A replayed frame that lost its token rider is still just a
        duplicate: dropped silently, not a rate-limit rejection (the
        client's original submission already stands)."""
        entry, verifier = make_entry(rate_limit=True)
        entry.announce_round("dialing", 1, 1, 32)
        entry.submit("dialing", 1, "alice", b"envelope", rate_token=mint_token(entry))
        entry.submit("dialing", 1, "alice", b"replay")  # no token, no error
        assert entry.submissions("dialing", 1) == 1
        assert verifier.spent_count == 1


class TestEntryOverTransport:
    """The same branches exercised through framed RPCs."""

    def make_networked_entry(self, rate_limit: bool = False):
        entry, verifier = make_entry(rate_limit=rate_limit)
        transport = DirectTransport()
        transport.register("entry", entry.handle_rpc)
        return entry, EntryStub(transport), verifier

    @staticmethod
    def submit(stub, client_id: str, envelope: bytes, rate_token=None) -> None:
        """One framed ``submit`` RPC; the only way a §9 rate token travels."""
        token = rate_token.to_bytes() if rate_token is not None else None
        payload = rpc.SUBMIT_REQUEST.encode("dialing", 1, client_id, envelope, token)
        stub.transport.call(client_id, stub.endpoint, "submit", payload)

    def test_submit_and_count_over_rpc(self):
        entry, stub, _ = self.make_networked_entry()
        entry.announce_round("dialing", 1, 1, 32)
        self.submit(stub, "alice@example.org", b"\x01" * 64)
        assert stub.submissions("dialing", 1) == 1

    def test_rate_token_travels_the_wire(self):
        entry, stub, verifier = self.make_networked_entry(rate_limit=True)
        entry.announce_round("dialing", 1, 1, 32)
        token = mint_token(entry)
        self.submit(stub, "alice@example.org", b"\x01" * 64, rate_token=token)
        assert verifier.spent_count == 1
        with pytest.raises(RateLimitError):
            self.submit(stub, "bob@example.org", b"\x02" * 64, rate_token=token)

    def test_missing_token_rejected_over_rpc(self):
        entry, stub, _ = self.make_networked_entry(rate_limit=True)
        entry.announce_round("dialing", 1, 1, 32)
        with pytest.raises(RateLimitError):
            self.submit(stub, "alice@example.org", b"\x01" * 64)

    def test_duplicate_over_rpc_does_not_burn_token(self):
        """The duplicate-before-token ordering holds on the framed path too."""
        entry, stub, verifier = self.make_networked_entry(rate_limit=True)
        entry.announce_round("dialing", 1, 1, 32)
        self.submit(stub, "alice@example.org", b"\x01" * 64, rate_token=mint_token(entry))
        self.submit(stub, "alice@example.org", b"\x02" * 64, rate_token=mint_token(entry))
        assert stub.submissions("dialing", 1) == 1
        assert verifier.spent_count == 1

    def test_unknown_method_raises_network_error(self):
        _, stub, _ = self.make_networked_entry()
        with pytest.raises(NetworkError):
            stub.transport.call("x", "entry", "no_such_method")
