"""Tests for onion encryption, mix servers, mailboxes, and the full chain."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import engine
from repro.crypto.engine import available_backends, get_backend
from repro.errors import MixnetError, RoundError
from repro.mixnet import onion
from repro.mixnet.chain import MixChain
from repro.mixnet.mailbox import (
    COVER_MAILBOX_ID,
    AddFriendMailbox,
    DialingMailbox,
    MailboxSet,
    choose_mailbox_count,
    mailbox_for_identity,
)
from repro.mixnet.noise import NoiseConfig
from repro.mixnet.onion import (
    LAYER_OVERHEAD,
    OnionKeyPair,
    unwrap_layers,
    wrap_onion,
    wrap_onion_many,
)
from repro.mixnet.server import INNER_PAYLOAD, MixServer, encode_inner_payload
from repro.utils.rng import DeterministicRng


class DroppingMix(MixServer):
    """A faulty mix server: drops each envelope it would forward with
    probability ``drop_fraction``, and counts the drops in its stats."""

    def __init__(self, name: str, drop_fraction: float, **kwargs) -> None:
        super().__init__(name, **kwargs)
        self.drop_fraction = drop_fraction

    def process_batch(self, *args, **kwargs) -> list[bytes]:
        batch = super().process_batch(*args, **kwargs)
        kept = [item for item in batch if self.rng.uniform() >= self.drop_fraction]
        self.last_stats.dropped += len(batch) - len(kept)
        return kept


def make_chain(num_servers: int = 3, noise: NoiseConfig | None = None, seed: str = "chain") -> MixChain:
    servers = [
        MixServer(f"mix{i}", rng=DeterministicRng(f"{seed}-{i}")) for i in range(num_servers)
    ]
    return MixChain(servers, noise_config=noise if noise is not None else NoiseConfig(5, 0, 5, 0))


class TestOnion:
    def test_wrap_unwrap_through_three_servers(self):
        keys = [OnionKeyPair.generate() for _ in range(3)]
        payload = b"inner payload"
        envelope = wrap_onion(payload, [k.public for k in keys])
        assert len(envelope) == len(payload) + 3 * LAYER_OVERHEAD
        for key in keys:
            (envelope,) = unwrap_layers([envelope], key)
        assert envelope == payload

    def test_wrong_server_key_fails(self):
        keys = [OnionKeyPair.generate() for _ in range(2)]
        rogue = OnionKeyPair.generate()
        envelope = wrap_onion(b"payload", [k.public for k in keys])
        assert unwrap_layers([envelope], rogue) == [None]

    def test_out_of_order_unwrap_fails(self):
        keys = [OnionKeyPair.generate() for _ in range(2)]
        envelope = wrap_onion(b"payload", [k.public for k in keys])
        assert unwrap_layers([envelope], keys[1]) == [None]

    def test_short_envelope_rejected(self):
        assert unwrap_layers([b"tiny"], OnionKeyPair.generate()) == [None]

    def test_empty_chain_rejected(self):
        with pytest.raises(MixnetError):
            wrap_onion(b"payload", [])

    @given(st.binary(max_size=300), st.integers(min_value=1, max_value=4))
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_property(self, payload, depth):
        keys = [OnionKeyPair.generate() for _ in range(depth)]
        envelope = wrap_onion(payload, [k.public for k in keys])
        for key in keys:
            (envelope,) = unwrap_layers([envelope], key)
        assert envelope == payload


#: sha256 of each envelope ``wrap_onion_many`` produced at commit 9bfba83
#: (before the fused keypair+exchange op) for the inputs of
#: ``test_wrap_matches_parent_commit_vector``, identical on every backend.
PARENT_WRAP_DIGESTS = [
    "10fbf56095d01f95e47564e9ba5c2b9e89dac3f9cb591b4283606ce2601fd142",
    "03dc12d36b6d58225c8494dde23d49a3ec1fddc70221b9bf43c01cc5915a5dd9",
    "2b447df12e9732d33f1b93584ead3ae620517878d2b64f5a2aa768dd934e6fd0",
]


class TestOnionBatches:
    @pytest.mark.parametrize("backend_name", available_backends())
    def test_wrap_matches_parent_commit_vector(self, backend_name, monkeypatch):
        """Same draws in the same order: ephemerals per layer, then nonces."""
        rng = DeterministicRng("wrap-onion-many/vector")
        monkeypatch.setattr(onion, "random_bytes", rng.read)
        monkeypatch.setattr(engine, "random_bytes", rng.read)
        backend = get_backend(backend_name)
        publics = [backend.public_key(bytes(range(i, i + 32))) for i in (1, 2)]
        payloads = [b"payload-%d" % i + bytes(40) for i in range(3)]
        envelopes = wrap_onion_many(payloads, publics, engine=backend)
        assert [hashlib.sha256(e).hexdigest() for e in envelopes] == PARENT_WRAP_DIGESTS

    def test_small_order_server_key_cannot_be_wrapped_for(self):
        with pytest.raises(MixnetError):
            wrap_onion_many([b"a", b"b"], [OnionKeyPair.generate().public, bytes(32)])

    def test_load_count_wrap_and_peel(self, counting_accelerated):
        """2 hops x N payloads: one import per ephemeral (the parent made
        two); peeling N envelopes imports the round key once (parent: N)."""
        backend = counting_accelerated
        hops = [OnionKeyPair.generate(backend) for _ in range(2)]
        payloads = [b"payload-%d" % i for i in range(9)]
        before = dict(vars(backend))

        backend._private_key.loads = 0
        envelopes = wrap_onion_many(payloads, [hop.public for hop in hops], engine=backend)
        assert backend._private_key.loads == 2 * len(payloads)

        backend._private_key.loads = 0
        peeled = unwrap_layers(envelopes + [b"malformed"], hops[0], backend)
        assert backend._private_key.loads == 1
        assert peeled[-1] is None
        assert unwrap_layers(peeled[:-1], hops[1], backend) == payloads
        assert vars(backend) == before  # no handle, no key bytes kept

    def test_degenerate_or_tampered_envelopes_are_dropped(self):
        keypair = OnionKeyPair.generate()
        envelope = wrap_onion(b"payload", [keypair.public])
        tampered = envelope[:-1] + bytes([envelope[-1] ^ 1])
        peeled = unwrap_layers([bytes(32) + envelope[32:], tampered, envelope], keypair)
        assert peeled == [None, None, b"payload"]


class TestMailboxRouting:
    def test_mailbox_for_identity_is_stable_and_case_insensitive(self):
        assert mailbox_for_identity("Bob@Example.org", 8) == mailbox_for_identity("bob@example.org", 8)

    def test_mailbox_in_range(self):
        for k in (1, 3, 7, 100):
            assert 0 <= mailbox_for_identity("alice@example.org", k) < k

    def test_choose_mailbox_count(self):
        assert choose_mailbox_count(0, 12000) == 1
        assert choose_mailbox_count(50_000, 12_000) == 4
        assert choose_mailbox_count(500_000, 75_000) == 7  # paper's 10M-user dialing point
        with pytest.raises(ValueError):
            choose_mailbox_count(100, 0)

    def test_addfriend_mailbox_serialization(self):
        mailbox = AddFriendMailbox(mailbox_id=3, ciphertexts=[b"aaa", b"bbbb"])
        restored = AddFriendMailbox.from_bytes(mailbox.to_bytes())
        assert restored.mailbox_id == 3
        assert restored.ciphertexts == [b"aaa", b"bbbb"]

    def test_dialing_mailbox_serialization_and_membership(self):
        tokens = [bytes([i]) * 32 for i in range(10)]
        mailbox = DialingMailbox.build(2, tokens)
        restored = DialingMailbox.from_bytes(mailbox.to_bytes())
        assert restored.mailbox_id == 2
        assert restored.token_count == 10
        assert all(token in restored for token in tokens)

    def test_inner_payload_roundtrip(self):
        encoded = encode_inner_payload(7, b"body")
        assert INNER_PAYLOAD.decode(encoded) == (7, b"body")

    def test_message_counts_is_the_observable_vector(self):
        """The per-mailbox count vector the privacy ledger records: message
        counts (noise included), indexed by mailbox ID, zeros for empties."""
        mailboxes = MailboxSet(round_number=1, protocol="add-friend", mailbox_count=3)
        mailboxes.addfriend[0] = AddFriendMailbox(mailbox_id=0, ciphertexts=[b"a", b"b"])
        mailboxes.addfriend[2] = AddFriendMailbox(mailbox_id=2, ciphertexts=[b"c"])
        assert mailboxes.message_counts() == [2, 0, 1]

        dialing = MailboxSet(round_number=2, protocol="dialing", mailbox_count=2)
        dialing.dialing[1] = DialingMailbox.build(1, [bytes([i]) * 32 for i in range(5)])
        assert dialing.message_counts() == [0, 5]


class TestMixServer:
    def test_round_key_lifecycle(self):
        server = MixServer("mix0")
        public = server.open_round("add-friend", 1)
        assert server.round_public_key("add-friend", 1) == public
        assert server.has_round_key("add-friend", 1)
        # The dialing namespace is independent of the add-friend one.
        assert not server.has_round_key("dialing", 1)
        server.close_round("add-friend", 1)
        assert not server.has_round_key("add-friend", 1)
        with pytest.raises(RoundError):
            server.round_public_key("add-friend", 1)

    def test_process_batch_requires_open_round(self):
        server = MixServer("mix0")
        with pytest.raises(RoundError):
            server.process_batch(1, "add-friend", [], [], 1, NoiseConfig(0, 0, 0, 0), 16)

    def test_malformed_envelopes_are_dropped_not_fatal(self):
        server = MixServer("mix0", rng=DeterministicRng("x"))
        server.open_round("add-friend", 1)
        out = server.process_batch(
            1, "add-friend", [b"garbage", b""], [], 1, NoiseConfig(0, 0, 0, 0), 16
        )
        assert out == []
        assert server.last_stats.dropped == 2

    def test_noise_is_added_per_mailbox(self):
        server = MixServer("mix0", rng=DeterministicRng("x"))
        server.open_round("add-friend", 1)
        out = server.process_batch(
            1, "add-friend", [], [], mailbox_count=4,
            noise_config=NoiseConfig(10, 0, 10, 0), noise_body_length=16,
        )
        assert len(out) == 40
        assert server.last_stats.noise_added == 40
        # Noise is well-formed and spread across all mailboxes.
        mailboxes = {INNER_PAYLOAD.decode(payload)[0] for payload in out}
        assert mailboxes == {0, 1, 2, 3}


class TestMixChain:
    def _submit_round(self, chain, round_number, payloads, mailbox_count, protocol="add-friend", body_len=64):
        publics = chain.open_round(protocol, round_number)
        envelopes = [wrap_onion(p, publics) for p in payloads]
        return chain.run_round(round_number, protocol, envelopes, mailbox_count, body_len)

    def test_addfriend_requests_reach_their_mailboxes(self):
        chain = make_chain(3)
        payloads = [
            encode_inner_payload(0, b"request-for-mailbox-0"),
            encode_inner_payload(1, b"request-for-mailbox-1"),
            encode_inner_payload(1, b"another-for-mailbox-1"),
        ]
        result = self._submit_round(chain, 1, payloads, mailbox_count=2)
        assert b"request-for-mailbox-0" in result.mailboxes.addfriend[0].ciphertexts
        assert b"request-for-mailbox-1" in result.mailboxes.addfriend[1].ciphertexts
        assert b"another-for-mailbox-1" in result.mailboxes.addfriend[1].ciphertexts
        assert result.delivered_real == 3

    def test_a_round_not_open_on_the_chain_is_refused(self):
        chain = make_chain(2)
        with pytest.raises(RoundError, match="not open on this chain"):
            chain.run_round(1, "dialing", [], 1, 32)
        chain.open_round("dialing", 1)
        chain.close_round("dialing", 1)
        with pytest.raises(RoundError, match="not open on this chain"):
            chain.run_round(1, "dialing", [], 1, 32)

    def test_cover_traffic_is_dropped(self):
        chain = make_chain(2)
        payloads = [encode_inner_payload(COVER_MAILBOX_ID, bytes(32)) for _ in range(5)]
        result = self._submit_round(chain, 1, payloads, mailbox_count=1)
        assert result.cover_dropped == 5
        assert result.delivered_real == 0

    def test_noise_added_by_every_server(self):
        chain = make_chain(3, noise=NoiseConfig(7, 0, 7, 0))
        result = self._submit_round(chain, 1, [], mailbox_count=2)
        assert result.per_server_noise == [14, 14, 14]
        assert result.noise_added == 42
        # Noise lands in mailboxes and is indistinguishable from real traffic.
        assert sum(len(m) for m in result.mailboxes.addfriend.values()) == 42

    def test_dialing_round_builds_bloom_filters(self):
        chain = make_chain(2, noise=NoiseConfig(0, 0, 3, 0))
        tokens = [bytes([i]) * 32 for i in range(4)]
        payloads = [encode_inner_payload(0, token) for token in tokens]
        result = self._submit_round(chain, 1, payloads, mailbox_count=1, protocol="dialing", body_len=32)
        mailbox = result.mailboxes.dialing[0]
        assert all(token in mailbox for token in tokens)

    def test_unknown_protocol_rejected(self):
        chain = make_chain(1)
        chain.open_round("bogus", 1)
        with pytest.raises(MixnetError):
            chain.run_round(1, "bogus", [], 1, 32)

    def test_round_keys_erased_after_close(self):
        chain = make_chain(2)
        chain.open_round("add-friend", 4)
        chain.close_round("add-friend", 4)
        assert all(not server.has_round_key("add-friend", 4) for server in chain.servers)

    def test_out_of_range_mailbox_is_dropped(self):
        chain = make_chain(1)
        result = self._submit_round(chain, 1, [encode_inner_payload(9, b"x")], mailbox_count=2)
        assert result.delivered_real == 0
        assert result.dropped >= 1

    def test_shuffling_hides_submission_order(self):
        """With an honest server in the chain, mailbox order should not be the
        submission order (statistically)."""
        chain = make_chain(1, noise=NoiseConfig(0, 0, 0, 0), seed="shuffle")
        payloads = [encode_inner_payload(0, bytes([i]) * 8) for i in range(30)]
        result = self._submit_round(chain, 1, payloads, mailbox_count=1, body_len=8)
        received = result.mailboxes.addfriend[0].ciphertexts
        assert sorted(received) == sorted(bytes([i]) * 8 for i in range(30))
        assert received != [bytes([i]) * 8 for i in range(30)]

    def test_faulty_server_dropping_requests_is_detected_in_stats(self):
        servers = [
            DroppingMix("mix0", drop_fraction=1.0, rng=DeterministicRng("chain-0")),
            MixServer("mix1", rng=DeterministicRng("chain-1")),
        ]
        chain = MixChain(servers, noise_config=NoiseConfig(0, 0, 0, 0))
        payloads = [encode_inner_payload(0, b"x" * 8) for _ in range(10)]
        result = self._submit_round(chain, 1, payloads, mailbox_count=1, body_len=8)
        assert result.delivered_real == 0
        assert result.dropped == 10

    def test_empty_chain_rejected(self):
        with pytest.raises(MixnetError):
            MixChain([])
