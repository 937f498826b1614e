"""Tests for X25519 and Ed25519, cross-validated against `cryptography`."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import keypair
from repro.crypto import ed25519, x25519
from repro.errors import CryptoError

try:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey as OracleEd
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey as OracleX
    from cryptography.hazmat.primitives import serialization as oracle_ser

    HAVE_ORACLE = True
except Exception:  # pragma: no cover
    HAVE_ORACLE = False


class TestX25519:
    def test_shared_secret_agreement(self):
        alice_priv, alice_pub = keypair(x25519)
        bob_priv, bob_pub = keypair(x25519)
        assert x25519.shared_secret(alice_priv, bob_pub) == x25519.shared_secret(bob_priv, alice_pub)

    def test_different_peers_different_secrets(self):
        alice_priv, _ = keypair(x25519)
        _, bob_pub = keypair(x25519)
        _, carol_pub = keypair(x25519)
        assert x25519.shared_secret(alice_priv, bob_pub) != x25519.shared_secret(alice_priv, carol_pub)

    def test_key_sizes(self):
        priv, pub = keypair(x25519)
        assert len(priv) == 32 and len(pub) == 32

    def test_invalid_lengths_rejected(self):
        with pytest.raises(CryptoError):
            x25519.scalar_mult(b"short", b"\x01" * 32)
        with pytest.raises(CryptoError):
            x25519.scalar_mult(b"\x01" * 32, b"short")

    @pytest.mark.skipif(not HAVE_ORACLE, reason="cryptography oracle unavailable")
    @given(st.binary(min_size=32, max_size=32))
    @settings(max_examples=10, deadline=None)
    def test_public_key_matches_reference(self, seed):
        ours = x25519.public_key(seed)
        oracle = OracleX.from_private_bytes(seed).public_key().public_bytes(
            oracle_ser.Encoding.Raw, oracle_ser.PublicFormat.Raw
        )
        assert ours == oracle

    @pytest.mark.skipif(not HAVE_ORACLE, reason="cryptography oracle unavailable")
    def test_shared_secret_matches_reference(self):
        ours_priv, ours_pub = keypair(x25519)
        oracle_priv = OracleX.generate()
        oracle_pub = oracle_priv.public_key().public_bytes(
            oracle_ser.Encoding.Raw, oracle_ser.PublicFormat.Raw
        )
        from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PublicKey

        theirs = oracle_priv.exchange(X25519PublicKey.from_public_bytes(ours_pub))
        assert x25519.shared_secret(ours_priv, oracle_pub) == theirs


class TestEd25519:
    def test_sign_verify_roundtrip(self):
        priv, pub = keypair(ed25519)
        signature = ed25519.sign(priv, b"hello")
        assert ed25519.verify(pub, b"hello", signature)
        assert not ed25519.verify(pub, b"hellO", signature)

    def test_signature_size(self):
        priv, _ = keypair(ed25519)
        assert len(ed25519.sign(priv, b"m")) == ed25519.SIGNATURE_SIZE

    def test_wrong_key_rejected(self):
        priv, _ = keypair(ed25519)
        _, other_pub = keypair(ed25519)
        assert not ed25519.verify(other_pub, b"m", ed25519.sign(priv, b"m"))

    def test_tampered_signature_rejected(self):
        priv, pub = keypair(ed25519)
        signature = bytearray(ed25519.sign(priv, b"m"))
        signature[10] ^= 0x01
        assert not ed25519.verify(pub, b"m", bytes(signature))

    def test_malformed_inputs_return_false(self):
        assert not ed25519.verify(b"\x00" * 31, b"m", b"\x00" * 64)
        assert not ed25519.verify(b"\x00" * 32, b"m", b"\x00" * 63)
        assert not ed25519.verify(b"\xff" * 32, b"m", b"\xff" * 64)

    @pytest.mark.skipif(not HAVE_ORACLE, reason="cryptography oracle unavailable")
    @given(st.binary(min_size=32, max_size=32), st.binary(max_size=100))
    @settings(max_examples=10, deadline=None)
    def test_signatures_match_reference(self, seed, message):
        """Ed25519 is deterministic, so signatures must match byte-for-byte."""
        oracle_key = OracleEd.from_private_bytes(seed)
        oracle_pub = oracle_key.public_key().public_bytes(
            oracle_ser.Encoding.Raw, oracle_ser.PublicFormat.Raw
        )
        assert ed25519.public_key(seed) == oracle_pub
        assert ed25519.sign(seed, message) == oracle_key.sign(message)

    @pytest.mark.skipif(not HAVE_ORACLE, reason="cryptography oracle unavailable")
    def test_we_verify_reference_signature(self):
        oracle_key = OracleEd.generate()
        oracle_pub = oracle_key.public_key().public_bytes(
            oracle_ser.Encoding.Raw, oracle_ser.PublicFormat.Raw
        )
        assert ed25519.verify(oracle_pub, b"cross-check", oracle_key.sign(b"cross-check"))
