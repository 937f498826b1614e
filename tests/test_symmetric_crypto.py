"""Tests for hashing, ChaCha20, Poly1305, and the AEAD construction.

Where the `cryptography` package is available it is used purely as a
*cross-validation oracle*: our from-scratch implementations must agree with
an independent, widely-reviewed implementation on random inputs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aead import AEAD_OVERHEAD, open_sealed, seal
from repro.crypto.chacha20 import chacha20_stream
from repro.crypto.hashing import KeywheelHash, hkdf, hmac_sha256
from repro.crypto.poly1305 import poly1305_mac
from repro.errors import CryptoError, DecryptionError

try:
    from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305 as OracleAead

    HAVE_ORACLE = True
except Exception:  # pragma: no cover - oracle is optional
    HAVE_ORACLE = False


class TestHashing:
    def test_hmac_differs_by_key(self):
        assert hmac_sha256(b"k1", b"msg") != hmac_sha256(b"k2", b"msg")

    def test_hkdf_deterministic_and_length(self):
        a = hkdf(b"input", salt=b"salt", info=b"info", length=64)
        b = hkdf(b"input", salt=b"salt", info=b"info", length=64)
        assert a == b
        assert len(a) == 64

    def test_hkdf_info_separates(self):
        assert hkdf(b"x", info=b"a") != hkdf(b"x", info=b"b")

    def test_hkdf_rejects_bad_length(self):
        with pytest.raises(ValueError):
            hkdf(b"x", length=0)

    def test_keywheel_hashes_are_domain_separated(self):
        secret = b"\x07" * 32
        outputs = {
            KeywheelHash.advance(secret, 5),
            KeywheelHash.dial_token(secret, 5, 0),
            KeywheelHash.session_key(secret, 5, 0),
        }
        assert len(outputs) == 3

    def test_keywheel_token_depends_on_intent_and_round(self):
        secret = b"\x07" * 32
        assert KeywheelHash.dial_token(secret, 5, 0) != KeywheelHash.dial_token(secret, 5, 1)
        assert KeywheelHash.dial_token(secret, 5, 0) != KeywheelHash.dial_token(secret, 6, 0)


class TestChaCha20:
    def test_stream_is_deterministic(self):
        key, nonce = b"\x01" * 32, b"\x02" * 12
        assert chacha20_stream(key, nonce, 100) == chacha20_stream(key, nonce, 100)

    def test_counter_offsets_stream(self):
        key, nonce = b"\x01" * 32, b"\x02" * 12
        full = chacha20_stream(key, nonce, 128, initial_counter=0)
        second_block = chacha20_stream(key, nonce, 64, initial_counter=1)
        assert full[64:] == second_block

    def test_key_length_enforced(self):
        with pytest.raises(CryptoError):
            chacha20_stream(b"short", b"\x00" * 12, 16)
        with pytest.raises(CryptoError):
            chacha20_stream(b"\x00" * 32, b"short", 16)


class TestPoly1305:
    def test_mac_is_deterministic_and_verifies(self):
        key = bytes(range(32))
        tag = poly1305_mac(key, b"hello world")
        assert len(tag) == 16
        assert poly1305_mac(key, b"hello world") == tag
        assert poly1305_mac(key, b"hello worlD") != tag

    def test_key_length_enforced(self):
        with pytest.raises(CryptoError):
            poly1305_mac(b"short", b"msg")


class TestAead:
    def test_roundtrip(self):
        key = b"\x09" * 32
        sealed = seal(key, b"secret message", associated_data=b"header")
        assert open_sealed(key, sealed, associated_data=b"header") == b"secret message"

    def test_overhead_constant(self):
        key = b"\x09" * 32
        for size in (0, 1, 100, 1000):
            sealed = seal(key, b"x" * size)
            assert len(sealed) == size + AEAD_OVERHEAD

    def test_wrong_key_fails(self):
        sealed = seal(b"\x01" * 32, b"msg")
        with pytest.raises(DecryptionError):
            open_sealed(b"\x02" * 32, sealed)

    def test_wrong_associated_data_fails(self):
        key = b"\x01" * 32
        sealed = seal(key, b"msg", associated_data=b"a")
        with pytest.raises(DecryptionError):
            open_sealed(key, sealed, associated_data=b"b")

    def test_tampered_ciphertext_fails(self):
        key = b"\x01" * 32
        sealed = bytearray(seal(key, b"msg"))
        sealed[14] ^= 0x01
        with pytest.raises(DecryptionError):
            open_sealed(key, bytes(sealed))

    def test_truncated_box_fails(self):
        with pytest.raises(DecryptionError):
            open_sealed(b"\x01" * 32, b"tiny")

    def test_distinct_nonces_give_distinct_boxes(self):
        key = b"\x01" * 32
        assert seal(key, b"msg") != seal(key, b"msg")

    @given(st.binary(max_size=256), st.binary(max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, message, associated_data):
        key = b"\x42" * 32
        sealed = seal(key, message, associated_data=associated_data)
        assert open_sealed(key, sealed, associated_data=associated_data) == message

    @pytest.mark.skipif(not HAVE_ORACLE, reason="cryptography oracle unavailable")
    @given(st.binary(max_size=200), st.binary(max_size=50), st.binary(min_size=32, max_size=32), st.binary(min_size=12, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_matches_reference_implementation(self, message, associated_data, key, nonce):
        """Our RFC 8439 construction must agree with the `cryptography` oracle."""
        ours = seal(key, message, associated_data=associated_data, nonce=nonce)
        theirs = OracleAead(key).encrypt(nonce, message, associated_data or None)
        assert ours == nonce + theirs
