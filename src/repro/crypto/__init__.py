"""Cryptographic substrate for the Alpenhorn reproduction.

Everything here is implemented from scratch in pure Python against the public
specifications (RFC 8439 for ChaCha20-Poly1305, RFC 7748 for X25519,
RFC 8032 for Ed25519, Boneh-Franklin 2001 for IBE, Boneh-Lynn-Shacham 2004
for BLS signatures, Barreto-Naehrig 2006 for the pairing curve).  The goal is
a faithful, readable reference implementation that exercises every code path
Alpenhorn needs; it is *not* hardened against side channels and should not be
used to protect real traffic.
"""

from repro.crypto.hashing import (
    hmac_sha256,
    hkdf,
    KeywheelHash,
)
from repro.crypto.aead import seal, open_sealed, AEAD_OVERHEAD, KEY_SIZE, NONCE_SIZE
from repro.crypto import x25519
from repro.crypto import ed25519
from repro.crypto import engine
from repro.crypto.engine import (
    CryptoBackend,
    active_backend,
    get_backend,
    registered_backends,
    set_active_backend,
    use_backend,
)

__all__ = [
    "engine",
    "CryptoBackend",
    "active_backend",
    "get_backend",
    "registered_backends",
    "set_active_backend",
    "use_backend",
    "hmac_sha256",
    "hkdf",
    "KeywheelHash",
    "seal",
    "open_sealed",
    "AEAD_OVERHEAD",
    "KEY_SIZE",
    "NONCE_SIZE",
    "x25519",
    "ed25519",
]
