"""ChaCha20-Poly1305 AEAD (RFC 8439 construction).

This is the authenticated encryption used throughout the system:

* each mixnet onion layer is sealed under an X25519-derived key,
* the body of an IBE-encrypted friend request is sealed under a random
  32-byte key which is what the IBE layer actually encrypts (hybrid
  encryption), and
* the example Vuvuzela-style conversation protocol seals its messages with
  keywheel-derived session keys.

The module-level :func:`seal` / :func:`open_sealed` are *engine-backed*
entry points: they dispatch to the active
:class:`~repro.crypto.engine.CryptoBackend`, so every existing caller
(keywheel/session seals, the IBE hybrid layer, the apps) transparently
rides whichever backend the deployment selected.  :func:`pure_seal` /
:func:`pure_open_sealed` are the stdlib-only reference implementation the
``"pure"`` backend wraps; every other backend must be byte-identical to
them for fixed keys and nonces.
"""

from __future__ import annotations

import hmac
import struct

from repro.crypto.chacha20 import BLOCK_SIZE, KEY_SIZE, NONCE_SIZE, chacha20_stream
from repro.crypto.poly1305 import poly1305_mac, TAG_SIZE
from repro.errors import DecryptionError, CryptoError
from repro.utils.bytes import xor_bytes
from repro.utils.rng import random_bytes

AEAD_OVERHEAD = NONCE_SIZE + TAG_SIZE


def _pad16(data: bytes) -> bytes:
    if len(data) % 16 == 0:
        return b""
    return b"\x00" * (16 - len(data) % 16)


def _auth_input(associated_data: bytes, ciphertext: bytes) -> bytes:
    return (
        associated_data
        + _pad16(associated_data)
        + ciphertext
        + _pad16(ciphertext)
        + struct.pack("<QQ", len(associated_data), len(ciphertext))
    )


def _keystream(key: bytes, nonce: bytes, length: int) -> tuple[bytes, bytes]:
    """The Poly1305 one-time key (block 0) and ``length`` bytes of body
    keystream (blocks 1..n), from one pass over the cipher."""
    stream = chacha20_stream(key, nonce, BLOCK_SIZE + length)
    return stream[:32], stream[BLOCK_SIZE:]


def pure_seal(
    key: bytes, plaintext: bytes, associated_data: bytes = b"", nonce: bytes | None = None
) -> bytes:
    """Encrypt and authenticate ``plaintext``; returns nonce || ciphertext || tag.

    The stdlib-only RFC 8439 reference path (no engine dispatch).
    """
    if len(key) != KEY_SIZE:
        raise CryptoError(f"AEAD key must be {KEY_SIZE} bytes, got {len(key)}")
    if nonce is None:
        nonce = random_bytes(NONCE_SIZE)
    elif len(nonce) != NONCE_SIZE:
        raise CryptoError(f"AEAD nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
    one_time_key, stream = _keystream(key, nonce, len(plaintext))
    ciphertext = xor_bytes(plaintext, stream)
    tag = poly1305_mac(one_time_key, _auth_input(associated_data, ciphertext))
    return nonce + ciphertext + tag


def pure_open_sealed(key: bytes, sealed: bytes, associated_data: bytes = b"") -> bytes:
    """Verify and decrypt a box produced by :func:`seal` (stdlib-only path).

    Raises :class:`~repro.errors.DecryptionError` if the key is wrong or the
    message was tampered with.
    """
    if len(key) != KEY_SIZE:
        raise CryptoError(f"AEAD key must be {KEY_SIZE} bytes, got {len(key)}")
    if len(sealed) < AEAD_OVERHEAD:
        raise DecryptionError("sealed box too short")
    nonce = sealed[:NONCE_SIZE]
    tag = sealed[-TAG_SIZE:]
    ciphertext = sealed[NONCE_SIZE:-TAG_SIZE]
    one_time_key, stream = _keystream(key, nonce, len(ciphertext))
    expected_tag = poly1305_mac(one_time_key, _auth_input(associated_data, ciphertext))
    if not hmac.compare_digest(expected_tag, tag):
        raise DecryptionError("authentication tag mismatch")
    return xor_bytes(ciphertext, stream)


def seal(
    key: bytes, plaintext: bytes, associated_data: bytes = b"", nonce: bytes | None = None
) -> bytes:
    """Encrypt and authenticate via the active crypto backend."""
    return _engine.active_backend().seal(key, plaintext, associated_data, nonce)


def open_sealed(key: bytes, sealed: bytes, associated_data: bytes = b"") -> bytes:
    """Verify and decrypt via the active crypto backend."""
    return _engine.active_backend().open_sealed(key, sealed, associated_data)


# Bound late so repro.crypto.engine can import the pure reference functions
# above while this module dispatches through it at call time.
from repro.crypto import engine as _engine  # noqa: E402  (intentional tail import)
