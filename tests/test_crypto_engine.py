"""The pluggable crypto engine: RFC vectors, cross-backend equality, registry.

Three layers of assurance:

* **Official test vectors** -- RFC 8439 (ChaCha20-Poly1305) and RFC 7748
  (X25519) pin every backend to the specifications, not merely to each
  other.
* **Cross-backend equality** -- every *available* backend produces
  byte-identical output on shared inputs (fixed keys/nonces), and fails
  identically on tampered/truncated/misshapen inputs.  This is the property
  that lets ``AlpenhornConfig.crypto_backend`` change the speed of a
  deployment without changing a single wire byte.
* **Registry and batch semantics** -- selection errors, the active-backend
  plumbing, and positional ``None`` semantics of the batch APIs.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st
from conftest import engine_names
from textbook_crypto import SMALL_ORDER_U

from repro.crypto import engine
from repro.crypto.aead import open_sealed, pure_open_sealed, pure_seal, seal
from repro.crypto import x25519
from repro.crypto.chacha20 import chacha20_stream
from repro.crypto.engine import (
    accelerated_available,
    available_backends,
    get_backend,
    use_backend,
)
from repro.errors import ConfigurationError, CryptoError, DecryptionError
from repro.mixnet.onion import OnionKeyPair, unwrap_layers, wrap_onion, wrap_onion_many
from repro.utils.bytes import xor_bytes


def backends():
    """Every backend whose dependencies are importable in this environment."""
    return [get_backend(name) for name in available_backends()]


def backend_params():
    """Each backend, bare and traced (the ``backend`` fixture in conftest)."""
    return pytest.mark.parametrize("backend", engine_names(), indirect=True)


# --------------------------------------------------------------------------- #
# RFC 8439 -- ChaCha20-Poly1305
# --------------------------------------------------------------------------- #
RFC8439_KEY = bytes.fromhex(
    "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
)
RFC8439_NONCE = bytes.fromhex("070000004041424344454647")
RFC8439_AAD = bytes.fromhex("50515253c0c1c2c3c4c5c6c7")
RFC8439_PLAINTEXT = (
    b"Ladies and Gentlemen of the class of '99: If I could offer you "
    b"only one tip for the future, sunscreen would be it."
)
RFC8439_CIPHERTEXT = bytes.fromhex(
    "d31a8d34648e60db7b86afbc53ef7ec2"
    "a4aded51296e08fea9e2b5a736ee62d6"
    "3dbea45e8ca9671282fafb69da92728b"
    "1a71de0a9e060b2905d6a5b67ecd3b36"
    "92ddbd7f2d778b8c9803aee328091b58"
    "fab324e4fad675945585808b4831d7bc"
    "3ff4def08e4b7a9de576d26586cec64b"
    "6116"
)
RFC8439_TAG = bytes.fromhex("1ae10b594f09e26a7e902ecbd0600691")

# RFC 8439 §2.4.2: the keystream-encryption vector for the bare cipher.
RFC8439_STREAM_KEY = bytes.fromhex(
    "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
)
RFC8439_STREAM_NONCE = bytes.fromhex("000000000000004a00000000")
RFC8439_STREAM_CIPHERTEXT = bytes.fromhex(
    "6e2e359a2568f98041ba0728dd0d6981"
    "e97e7aec1d4360c20a27afccfd9fae0b"
    "f91b65c5524733ab8f593dabcd62b357"
    "1639d624e65152ab8f530c359f0861d8"
    "07ca0dbf500d6a6156a38e088a22b65e"
    "52bc514d16ccf806818ce91ab7793736"
    "5af90bbf74a35be6b40b8eedf2785e42"
    "874d"
)


class TestRfc8439Vectors:
    def test_chacha20_encryption_vector(self):
        """§2.4.2: the bare stream cipher at counter 1."""
        stream = chacha20_stream(
            RFC8439_STREAM_KEY, RFC8439_STREAM_NONCE, len(RFC8439_PLAINTEXT), initial_counter=1
        )
        assert xor_bytes(RFC8439_PLAINTEXT, stream) == RFC8439_STREAM_CIPHERTEXT

    @backend_params()
    def test_aead_seal_vector(self, backend):
        """§2.8.2: every backend reproduces the official sealed box exactly."""
        sealed = backend.seal(RFC8439_KEY, RFC8439_PLAINTEXT, RFC8439_AAD, RFC8439_NONCE)
        assert sealed == RFC8439_NONCE + RFC8439_CIPHERTEXT + RFC8439_TAG

    @backend_params()
    def test_aead_open_vector(self, backend):
        sealed = RFC8439_NONCE + RFC8439_CIPHERTEXT + RFC8439_TAG
        assert backend.open_sealed(RFC8439_KEY, sealed, RFC8439_AAD) == RFC8439_PLAINTEXT

    @backend_params()
    def test_aead_vector_tamper_fails(self, backend):
        box = bytearray(RFC8439_NONCE + RFC8439_CIPHERTEXT + RFC8439_TAG)
        box[20] ^= 0x01
        with pytest.raises(DecryptionError):
            backend.open_sealed(RFC8439_KEY, bytes(box), RFC8439_AAD)


# --------------------------------------------------------------------------- #
# RFC 7748 -- X25519
# --------------------------------------------------------------------------- #
RFC7748_VECTORS = [
    (
        "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
        "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552",
    ),
    (
        "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
        "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
        "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957",
    ),
]
RFC7748_ALICE_PRIVATE = bytes.fromhex(
    "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"
)
RFC7748_ALICE_PUBLIC = bytes.fromhex(
    "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
)
RFC7748_BOB_PRIVATE = bytes.fromhex(
    "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"
)
RFC7748_BOB_PUBLIC = bytes.fromhex(
    "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
)
RFC7748_SHARED = bytes.fromhex(
    "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
)


class TestRfc7748Vectors:
    @pytest.mark.parametrize("scalar_hex,u_hex,expected_hex", RFC7748_VECTORS)
    @backend_params()
    def test_scalar_mult_vectors(self, backend, scalar_hex, u_hex, expected_hex):
        """§5.2: scalar multiplication on arbitrary points, per backend.

        Backends expose scalar multiplication as ``shared_secret``; the §5.2
        vectors go through it directly (their outputs are not all-zero).
        """
        assert backend.shared_secret(
            bytes.fromhex(scalar_hex), bytes.fromhex(u_hex)
        ) == bytes.fromhex(expected_hex)

    @backend_params()
    def test_diffie_hellman_vector(self, backend):
        """§6.1: public keys from the base point, then the shared secret."""
        assert backend.public_key(RFC7748_ALICE_PRIVATE) == RFC7748_ALICE_PUBLIC
        assert backend.public_key(RFC7748_BOB_PRIVATE) == RFC7748_BOB_PUBLIC
        assert backend.shared_secret(RFC7748_ALICE_PRIVATE, RFC7748_BOB_PUBLIC) == RFC7748_SHARED
        assert backend.shared_secret(RFC7748_BOB_PRIVATE, RFC7748_ALICE_PUBLIC) == RFC7748_SHARED


# --------------------------------------------------------------------------- #
# RFC 8032 -- Ed25519 (the engine signs/verifies SenderSigs too)
# --------------------------------------------------------------------------- #
RFC8032_SECRET = bytes.fromhex(
    "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"
)
RFC8032_PUBLIC = bytes.fromhex(
    "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
)
RFC8032_SIGNATURE = bytes.fromhex(
    "e5564300c360ac729086e2cc806e828a"
    "84877f1eb8e5d974d873e06522490155"
    "5fb8821590a33bacc61e39701cf9b46b"
    "d25bf5f0595bbe24655141438e7a100b"
)


class TestRfc8032Vectors:
    @backend_params()
    def test_sign_vector(self, backend):
        """§7.1 TEST 1: the empty-message signature, per backend."""
        assert backend.ed25519_public_key(RFC8032_SECRET) == RFC8032_PUBLIC
        assert backend.ed25519_sign(RFC8032_SECRET, b"") == RFC8032_SIGNATURE

    @backend_params()
    def test_verify_vector_and_tamper_parity(self, backend):
        assert backend.ed25519_verify(RFC8032_PUBLIC, b"", RFC8032_SIGNATURE)
        assert not backend.ed25519_verify(RFC8032_PUBLIC, b"x", RFC8032_SIGNATURE)
        bad = bytearray(RFC8032_SIGNATURE)
        bad[3] ^= 1
        assert not backend.ed25519_verify(RFC8032_PUBLIC, b"", bytes(bad))
        assert not backend.ed25519_verify(b"short", b"", RFC8032_SIGNATURE)
        assert not backend.ed25519_verify(RFC8032_PUBLIC, b"", b"short")


# --------------------------------------------------------------------------- #
# Cross-backend equality (the byte-identical contract)
# --------------------------------------------------------------------------- #
class TestCrossBackendEquality:
    @given(
        st.binary(max_size=256),
        st.binary(max_size=64),
        st.binary(min_size=32, max_size=32),
        st.binary(min_size=12, max_size=12),
    )
    @settings(max_examples=25, deadline=None)
    def test_seal_identical_bytes(self, message, associated_data, key, nonce):
        boxes = {b.name: b.seal(key, message, associated_data, nonce) for b in backends()}
        assert len(set(boxes.values())) == 1, boxes
        for backend in backends():
            assert backend.open_sealed(key, boxes["pure"], associated_data) == message

    @given(st.binary(min_size=32, max_size=32), st.binary(max_size=128))
    @settings(max_examples=15, deadline=None)
    def test_ed25519_identical_bytes(self, seed, message):
        publics = {b.name: b.ed25519_public_key(seed) for b in backends()}
        assert len(set(publics.values())) == 1, publics
        signatures = {b.name: b.ed25519_sign(seed, message) for b in backends()}
        assert len(set(signatures.values())) == 1, signatures
        for backend in backends():
            assert backend.ed25519_verify(
                publics["pure"], message, signatures["pure"]
            )

    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32))
    @settings(max_examples=25, deadline=None)
    def test_x25519_identical_bytes(self, private, other_private):
        publics = {b.name: b.public_key(private) for b in backends()}
        assert len(set(publics.values())) == 1, publics
        peer = backends()[0].public_key(other_private)
        secrets = {b.name: b.shared_secret(private, peer) for b in backends()}
        assert len(set(secrets.values())) == 1, secrets

    @backend_params()
    def test_tamper_failure_parity(self, backend):
        """Every backend rejects the same malformed inputs the same way."""
        key = bytes(range(32))
        sealed = pure_seal(key, b"payload", b"aad", bytes(12))
        tampered = bytearray(sealed)
        tampered[-1] ^= 0x80
        with pytest.raises(DecryptionError):
            backend.open_sealed(key, bytes(tampered), b"aad")
        with pytest.raises(DecryptionError):  # wrong associated data
            backend.open_sealed(key, sealed, b"other")
        with pytest.raises(DecryptionError):  # truncated below overhead
            backend.open_sealed(key, sealed[:20], b"aad")
        with pytest.raises(CryptoError):  # misshapen key
            backend.open_sealed(b"short", sealed, b"aad")
        with pytest.raises(CryptoError):  # misshapen nonce on seal
            backend.seal(key, b"x", nonce=b"tiny")
        with pytest.raises(CryptoError):  # misshapen x25519 inputs
            backend.shared_secret(b"short", bytes(32))
        with pytest.raises(CryptoError):
            backend.shared_secret(bytes(range(32)), b"short")
        with pytest.raises(CryptoError):  # the all-zero shared point
            backend.shared_secret(bytes(range(32)), bytes(32))

    def test_onion_wrap_interoperates_across_backends(self):
        """An onion wrapped by any backend peels under any other."""
        keypairs = [OnionKeyPair.generate() for _ in range(2)]
        publics = [kp.public for kp in keypairs]
        for wrapper in backends():
            for peeler in backends():
                envelope = wrap_onion(b"inner payload", publics, engine=wrapper)
                middle = unwrap_layers([envelope], keypairs[0], engine=peeler)
                assert unwrap_layers(middle, keypairs[1], engine=wrapper) == [b"inner payload"]


# --------------------------------------------------------------------------- #
# Batch semantics
# --------------------------------------------------------------------------- #
class TestBatchApis:
    @backend_params()
    def test_seal_many_matches_singles_for_fixed_nonces(self, backend):
        key = bytes(range(32))
        items = [
            (key, b"message-%d" % i, b"aad", i.to_bytes(12, "big")) for i in range(5)
        ]
        batch = backend.seal_many(items)
        singles = [backend.seal(*item) for item in items]
        assert batch == singles

    @backend_params()
    def test_seal_many_draws_missing_nonces(self, backend):
        key = bytes(range(32))
        boxes = backend.seal_many([(key, b"m", b"", None)] * 3)
        assert len({box[:12] for box in boxes}) == 3  # three distinct nonces

    @backend_params()
    def test_open_many_positional_failures(self, backend):
        key = bytes(range(32))
        good = backend.seal(key, b"ok", b"", bytes(12))
        bad = bytearray(good)
        bad[-1] ^= 1
        results = backend.open_many(
            [(key, good, b""), (key, bytes(bad), b""), (key, b"tiny", b""), (key, good, b"")]
        )
        assert results == [b"ok", None, None, b"ok"]

    @backend_params()
    def test_shared_secret_many_positional_failures(self, backend):
        private = bytes(range(32))
        peer = backend.public_key(bytes(range(1, 33)))
        results = backend.shared_secret_many(
            [(private, peer), (private, bytes(32)), (private, peer)]
        )
        assert results[1] is None
        assert results[0] == results[2] == backend.shared_secret(private, peer)

    def test_unwrap_layers_marks_drops_in_place(self):
        keypair = OnionKeyPair.generate()
        envelopes = wrap_onion_many([b"a", b"b", b"c"], [keypair.public])
        tampered = bytearray(envelopes[1])
        tampered[40] ^= 1
        batch = [envelopes[0], b"malformed", bytes(tampered), envelopes[2]]
        for backend in backends():
            assert unwrap_layers(batch, keypair, backend) == [b"a", None, None, b"c"]

    def test_wrap_onion_many_batches_match_singles_semantically(self):
        keypairs = [OnionKeyPair.generate() for _ in range(3)]
        publics = [kp.public for kp in keypairs]
        payloads = [b"payload-%d" % i for i in range(7)]
        envelopes = wrap_onion_many(payloads, publics)
        assert len({len(e) for e in envelopes}) == 1  # uniform wire size
        peeled = envelopes
        for keypair in keypairs:
            peeled = unwrap_layers(peeled, keypair)
            assert all(item is not None for item in peeled)
        assert peeled == payloads

    def test_wrap_onion_empty_chain_raises(self):
        from repro.errors import MixnetError

        with pytest.raises(MixnetError):
            wrap_onion_many([b"x"], [])
        assert wrap_onion_many([], [OnionKeyPair.generate().public]) == []


# --------------------------------------------------------------------------- #
# The fused keypair+exchange op and per-call key loading
# --------------------------------------------------------------------------- #
SMALL_ORDER_PEERS = [u.to_bytes(32, "little") for u in SMALL_ORDER_U]

keys32 = st.binary(min_size=32, max_size=32)


class TestKeypairExchange:
    @given(st.lists(keys32, max_size=5), keys32)
    @settings(max_examples=20, deadline=None)
    def test_equals_public_key_many_plus_shared_secret_many(self, privates, peer_private):
        peer = get_backend("pure").public_key(peer_private)
        outputs = {}
        for backend in backends():
            fused = backend.keypair_exchange_many(privates, peer)
            assert fused == list(
                zip(
                    backend.public_key_many(privates),
                    backend.shared_secret_many([(private, peer) for private in privates]),
                )
            )
            outputs[backend.name] = fused
        assert all(fused == outputs["pure"] for fused in outputs.values()), outputs

    @backend_params()
    @pytest.mark.parametrize("peer", SMALL_ORDER_PEERS, ids=lambda peer: peer.hex()[:8])
    def test_small_order_peer_gives_none_in_the_secret_slot(self, backend, peer):
        privates = [bytes(range(i, i + 32)) for i in range(3)]
        assert backend.keypair_exchange_many(privates, peer) == [
            (backend.public_key(private), None) for private in privates
        ]
        assert backend.shared_secret_many([(private, peer) for private in privates]) == [None] * 3

    @backend_params()
    def test_wrong_length_inputs_raise(self, backend):
        good, peer = bytes(range(32)), backend.public_key(bytes(range(1, 33)))
        with pytest.raises(CryptoError):
            backend.keypair_exchange_many([good, b"short"], peer)
        with pytest.raises(CryptoError):
            backend.keypair_exchange_many([good], peer + b"\x00")
        assert backend.keypair_exchange_many([], peer) == []

    def test_load_count_fused_op_loads_each_key_once(self, counting_accelerated):
        backend = counting_accelerated
        privates = [bytes([i]) * 32 for i in range(1, 7)]
        peer = backend.public_key(bytes(range(32)))
        backend._private_key.loads = 0
        before = dict(vars(backend))
        backend.keypair_exchange_many(privates, peer)
        assert backend._private_key.loads == len(privates)
        assert vars(backend) == before

    def test_load_count_shared_secret_many_loads_each_distinct_key_once(
        self, counting_accelerated
    ):
        backend = counting_accelerated
        privates = [bytes([i]) * 32 for i in range(1, 4)]
        peers = [backend.public_key(bytes([i]) * 32) for i in range(10, 15)]
        backend._private_key.loads = 0
        before = dict(vars(backend))
        # k = 3 distinct keys, interleaved over 15 items, plus misshapen
        # and degenerate items that must neither count nor be remembered.
        pairs = [(privates[i % 3], peers[i % 5]) for i in range(15)]
        pairs += [(b"short", peers[0]), (privates[0], bytes(32))]
        results = backend.shared_secret_many(pairs)
        assert backend._private_key.loads == 3
        assert results[15:] == [None, None]
        assert results[:15] == get_backend("pure").shared_secret_many(pairs[:15])
        assert vars(backend) == before
        # Nothing carried over: the next call loads again.
        backend.shared_secret_many(pairs[:1])
        assert backend._private_key.loads == 4


# --------------------------------------------------------------------------- #
# The pure engine's batches: one inversion per call, one table per peer
# --------------------------------------------------------------------------- #
class LoopedPureBackend(engine.PureBackend):
    """The pure engine with ``CryptoBackend``'s looped batch defaults: every
    batch is the composition of the single ops, the oracle for the batches."""

    shared_secret_many = engine.CryptoBackend.shared_secret_many
    public_key_many = engine.CryptoBackend.public_key_many
    keypair_exchange_many = engine.CryptoBackend.keypair_exchange_many


LOOPED = LoopedPureBackend()
PURE = get_backend("pure")
P = 2**255 - 19
#: RFC 7748's low-order u values, their non-canonical spellings (u + p below
#: 2**255, and u with the masked top bit set), and the other edges of _decode_u.
LOW_ORDER_U = sorted(
    {*SMALL_ORDER_U}
    | {u + P for u in SMALL_ORDER_U if u + P < 2**255}
    | {u | 1 << 255 for u in SMALL_ORDER_U if u < 2**255}
)
EDGE_U = [0, 1, P - 1, P, P + 1, 2**255 - 1]
SPECIAL_PEERS = [u.to_bytes(32, "little") for u in sorted({*LOW_ORDER_U, *EDGE_U})]
#: Special points, random strings (about half on the twist), real keys.
peers = st.one_of(st.sampled_from(SPECIAL_PEERS), keys32, keys32.map(PURE.public_key))
#: Batch sizes on both sides of the window table's break-even.
key_batches = st.lists(keys32, max_size=2 * x25519._TABLE_MIN_KEYS)


def outcome(call):
    """A batch call's result, or its exception as ``(type, message)``."""
    try:
        return call()
    except CryptoError as exc:
        return type(exc), str(exc)


def every_backend_agrees(method: str, *args) -> None:
    expected = outcome(lambda: getattr(LOOPED, method)(*args))
    for backend in [PURE, *(get_backend(name) for name in available_backends() if name != "pure")]:
        assert outcome(lambda: getattr(backend, method)(*args)) == expected, backend.name


class TestPureBatchesEqualSingleOps:
    @given(privates=key_batches, peer=peers)
    @settings(max_examples=40, deadline=None)
    def test_keypair_exchange_many(self, privates, peer):
        every_backend_agrees("keypair_exchange_many", privates, peer)

    @given(pairs=st.lists(st.tuples(keys32, peers), max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_shared_secret_many(self, pairs):
        # Low-order peers among good ones put zero denominators inside
        # the batched inversion.
        every_backend_agrees("shared_secret_many", pairs)

    @given(privates=key_batches)
    @settings(max_examples=15, deadline=None)
    def test_public_key_many(self, privates):
        every_backend_agrees("public_key_many", privates)

    def test_random_peers_on_the_curve_and_on_the_twist(self):
        peers = [hashlib.sha256(b"peer-%d" % i).digest() for i in range(12)]
        on_curve = [x25519._window_table(x25519._decode_u(peer)) is not None for peer in peers]
        assert 0 < sum(on_curve) < len(peers)
        privates = [
            hashlib.sha256(b"key-%d" % i).digest() for i in range(x25519._TABLE_MIN_KEYS + 1)
        ]
        for peer in peers:
            every_backend_agrees("keypair_exchange_many", privates, peer)

    @pytest.mark.parametrize(
        "privates,peer",
        [
            ([bytes(32), b"short"], bytes(32)),
            ([bytes(32)] * 3 + [bytes(33)], (9).to_bytes(32, "little")),
            ([bytes(32)] * 4, bytes(31)),
            ([b""], bytes(33)),
        ],
    )
    def test_wrong_lengths_raise_as_the_single_ops_do(self, privates, peer):
        every_backend_agrees("keypair_exchange_many", privates, peer)
        every_backend_agrees("public_key_many", privates)
        every_backend_agrees("shared_secret_many", [(key, peer) for key in privates])
        with pytest.raises(CryptoError):
            PURE.keypair_exchange_many(privates, peer)

    def test_zero_denominators_inside_one_inversion(self):
        fractions = [(5, 7), (3, 0), (2, P), (11, -4), (0, 0), (1, 2 * P + 9), (4, 1)]
        assert x25519._divide_many(fractions) == [x25519._divide(n, d) for n, d in fractions]
        assert x25519._divide_many([]) == []
        assert x25519._divide_many([(1, 0), (2, P)]) == [0, 0]

    def test_the_table_runs_from_the_break_even_and_keeps_nothing(self, monkeypatch):
        peer = PURE.public_key(bytes(range(32)))
        privates = [bytes([i]) * 32 for i in range(1, x25519._TABLE_MIN_KEYS + 1)]
        expected = LOOPED.keypair_exchange_many(privates, peer)
        before = (dict(vars(PURE)), dict(vars(x25519)))

        def no_ladder(k, u):
            raise AssertionError("ladder used at the break-even batch size")

        with monkeypatch.context() as patch:
            patch.setattr(x25519, "_ladder_fraction", no_ladder)
            assert PURE.keypair_exchange_many(privates, peer) == expected
            with pytest.raises(AssertionError, match="ladder used"):
                PURE.keypair_exchange_many(privates[1:], peer)  # below it: ladders
        assert (dict(vars(PURE)), dict(vars(x25519))) == before

    def test_peers_without_an_edwards_image_take_the_ladder(self):
        assert x25519._window_table(P - 1) is None
        twist = next(u for u in range(2, 100) if x25519._window_table(u) is None)
        privates = [bytes([i]) * 32 for i in range(1, 5)]
        every_backend_agrees("keypair_exchange_many", privates, twist.to_bytes(32, "little"))


# --------------------------------------------------------------------------- #
# Registry, selection, and config plumbing
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_unknown_backend_raises(self):
        with pytest.raises(ConfigurationError):
            get_backend("nonesuch")

    def test_exactly_two_backends(self):
        """One path per backend: the stdlib reference and OpenSSL."""
        from repro.core.config import AlpenhornConfig

        assert engine.registered_backends() == ["accelerated", "pure"]
        with pytest.raises(ConfigurationError, match="unknown crypto backend"):
            AlpenhornConfig(crypto_backend="parallel")

    def test_instances_are_singletons(self):
        assert get_backend("pure") is get_backend("pure")

    def test_use_backend_swaps_and_restores(self):
        before = engine.active_backend()
        with use_backend("pure") as active:
            assert engine.active_backend() is active
        assert engine.active_backend() is before

    def test_module_level_aead_follows_active_backend(self):
        key, nonce = bytes(range(32)), bytes(12)
        for name in available_backends():
            with use_backend(name):
                assert seal(key, b"m", b"a", nonce) == pure_seal(key, b"m", b"a", nonce)
                assert open_sealed(key, pure_seal(key, b"m", b"a", nonce), b"a") == b"m"

    def test_x25519_module_functions_stay_pure_reference(self):
        """The primitive module is the spec oracle; it never dispatches."""
        assert x25519.public_key(RFC7748_ALICE_PRIVATE) == RFC7748_ALICE_PUBLIC

    def test_config_selects_engine(self):
        from repro.core.config import AlpenhornConfig

        config = AlpenhornConfig.for_tests()
        assert config.crypto_backend == "pure"
        config.crypto_backend = "accelerated"
        config.validate()
        with pytest.raises(ConfigurationError):
            AlpenhornConfig.for_tests().__class__(crypto_backend="nonesuch")

    @pytest.mark.parametrize("ibe_name", ["bn254", "simulated"])
    def test_ibe_name_is_not_a_crypto_backend(self, ibe_name):
        from repro.core.config import AlpenhornConfig

        with pytest.raises(ConfigurationError, match="unknown crypto backend"):
            AlpenhornConfig(crypto_backend=ibe_name)

    def test_deployment_threads_engine_to_mix_tier(self):
        from repro.core.config import AlpenhornConfig
        from repro.core.coordinator import Deployment

        config = AlpenhornConfig.for_tests(backend="simulated")
        deployment = Deployment(config, seed="engine-registry")
        assert deployment.crypto is get_backend("pure")
        assert all(mix.engine is deployment.crypto for mix in deployment.mix_servers)
        assert engine.active_backend() is deployment.crypto

    @pytest.mark.skipif(not accelerated_available(), reason="cryptography not installed")
    def test_interleaved_deployments_keep_their_own_backend(self):
        """Constructing a second deployment must not hijack the first's engine.

        The active backend is process-wide state; every driving entry point
        (create_client, run_*_round, run_rounds) re-asserts its deployment's
        selection so interleaved deployments each run on their own backend.
        """
        from repro.core.config import AlpenhornConfig
        from repro.core.coordinator import Deployment

        fast_config = AlpenhornConfig.for_tests(backend="simulated")
        fast_config.crypto_backend = "accelerated"
        fast = Deployment(fast_config, seed="interleave-fast")
        # Constructing a second (default: pure) deployment steals the slot...
        pure = Deployment(AlpenhornConfig.for_tests(backend="simulated"), seed="interleave-pure")
        assert engine.active_backend() is pure.crypto
        # ...but driving the first deployment restores its own selection.
        fast.create_client("a@example.org")
        assert engine.active_backend() is get_backend("accelerated")
        fast.create_client("b@example.org")
        handle = fast.session("a@example.org").add_friend("b@example.org")
        fast.run_addfriend_round()
        assert engine.active_backend() is get_backend("accelerated")
        pure.create_client("c@example.org")
        assert engine.active_backend() is get_backend("pure")
        fast.run_addfriend_round()
        assert handle.confirmed
        assert engine.active_backend() is get_backend("accelerated")

    @pytest.mark.skipif(not accelerated_available(), reason="cryptography not installed")
    def test_accelerated_deployment_round_trip(self):
        from repro.core.config import AlpenhornConfig
        from repro.core.coordinator import Deployment

        config = AlpenhornConfig.for_tests(backend="simulated")
        config.crypto_backend = "accelerated"
        deployment = Deployment(config, seed="engine-accelerated")
        deployment.create_client("a@example.org")
        deployment.create_client("b@example.org")
        handle = deployment.session("a@example.org").add_friend("b@example.org")
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()
        assert handle.confirmed
