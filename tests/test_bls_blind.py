"""Tests for BLS (multi-)signatures."""

from __future__ import annotations

import pytest

from repro.crypto import bls
from repro.crypto.bn254 import G2Point
from repro.errors import CryptoError


class TestBls:
    def test_sign_verify_roundtrip(self):
        keypair = bls.generate_keypair()
        signature = bls.sign(keypair.secret, b"message")
        assert bls.verify(keypair.public, b"message", signature)

    def test_wrong_message_rejected(self):
        keypair = bls.generate_keypair()
        signature = bls.sign(keypair.secret, b"message")
        assert not bls.verify(keypair.public, b"other", signature)

    def test_wrong_key_rejected(self):
        keypair = bls.generate_keypair()
        other = bls.generate_keypair()
        signature = bls.sign(keypair.secret, b"message")
        assert not bls.verify(other.public, b"message", signature)

    def test_seeded_keygen_is_deterministic(self):
        a = bls.generate_keypair(seed=b"\x09" * 32)
        b = bls.generate_keypair(seed=b"\x09" * 32)
        assert a.secret == b.secret and a.public == b.public

    def test_multisignature_same_message(self):
        """The PKGSigs use case: n PKGs sign the same statement, the
        aggregate verifies against the aggregate public key."""
        keypairs = [bls.generate_keypair() for _ in range(3)]
        statement = b"alice@example.org|signing-key|round-42"
        signatures = [bls.sign(kp.secret, statement) for kp in keypairs]
        aggregate_sig = bls.aggregate_signatures(signatures)
        aggregate_pk = bls.aggregate_publics([kp.public for kp in keypairs])
        assert bls.verify(aggregate_pk, statement, aggregate_sig)

    def test_multisignature_fails_if_one_signature_missing(self):
        keypairs = [bls.generate_keypair() for _ in range(3)]
        statement = b"statement"
        signatures = [bls.sign(kp.secret, statement) for kp in keypairs[:2]]
        aggregate_sig = bls.aggregate_signatures(signatures)
        aggregate_pk = bls.aggregate_publics([kp.public for kp in keypairs])
        assert not bls.verify(aggregate_pk, statement, aggregate_sig)

    def test_multisignature_fails_with_forged_member(self):
        keypairs = [bls.generate_keypair() for _ in range(2)]
        statement = b"statement"
        good = bls.sign(keypairs[0].secret, statement)
        forged = bls.sign(bls.generate_keypair().secret, statement)
        aggregate_sig = bls.aggregate_signatures([good, forged])
        aggregate_pk = bls.aggregate_publics([kp.public for kp in keypairs])
        assert not bls.verify(aggregate_pk, statement, aggregate_sig)

    def test_serialization_roundtrip(self):
        keypair = bls.generate_keypair()
        signature = bls.sign(keypair.secret, b"m")
        assert bls.signature_from_bytes(bls.signature_to_bytes(signature)) == signature
        assert G2Point.from_bytes(keypair.public.to_bytes()) == keypair.public

    def test_aggregate_rejects_empty(self):
        with pytest.raises(CryptoError):
            bls.aggregate_signatures([])
        with pytest.raises(CryptoError):
            bls.aggregate_publics([])

    def test_sign_rejects_bad_secret(self):
        with pytest.raises(CryptoError):
            bls.sign(0, b"m")

