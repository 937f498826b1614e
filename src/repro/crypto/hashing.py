"""Hash functions, HMAC, HKDF, and the keywheel hash family.

The paper's keywheel (Figure 4) uses a keyed family of cryptographic hash
functions ``H_i`` (suggested instantiation: HMAC-SHA256 with the subscript as
the key).  :class:`KeywheelHash` provides exactly that family with explicit
domain separation:

* ``H1`` advances the wheel (``K_{r+1} = H1(K_r, round)``),
* ``H2`` derives dial tokens (``token = H2(K_r, round, intent)``),
* ``H3`` derives session keys (``session = H3(K_r, round, intent)``).

All other key derivation in the library goes through :func:`hkdf`.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256."""
    return _hmac.new(key, data, hashlib.sha256).digest()


def hkdf(ikm: bytes, *, salt: bytes = b"", info: bytes = b"", length: int = 32) -> bytes:
    """HKDF-SHA256 (RFC 5869): extract-then-expand key derivation."""
    if length <= 0 or length > 255 * 32:
        raise ValueError("invalid HKDF output length")
    prk = hmac_sha256(salt if salt else b"\x00" * 32, ikm)
    output = b""
    block = b""
    counter = 1
    while len(output) < length:
        block = hmac_sha256(prk, block + info + bytes([counter]))
        output += block
        counter += 1
    return output[:length]


class KeywheelHash:
    """The keyed hash family H1/H2/H3 from Figure 4 of the paper.

    Each member is HMAC-SHA256 keyed by a distinct domain-separation label,
    applied to the current keywheel secret together with the round number
    (and, for tokens and session keys, the intent).
    """

    ADVANCE_LABEL = b"alpenhorn/keywheel/advance"
    DIAL_TOKEN_LABEL = b"alpenhorn/keywheel/dial-token"
    SESSION_KEY_LABEL = b"alpenhorn/keywheel/session-key"

    @staticmethod
    def advance(secret: bytes, round_number: int) -> bytes:
        """H1: evolve the keywheel secret from round ``r`` to ``r + 1``."""
        message = secret + round_number.to_bytes(8, "big")
        return hmac_sha256(KeywheelHash.ADVANCE_LABEL, message)

    @staticmethod
    def dial_token(secret: bytes, round_number: int, intent: int) -> bytes:
        """H2: derive the 256-bit dial token sent through the mixnet."""
        message = secret + round_number.to_bytes(8, "big") + intent.to_bytes(4, "big")
        return hmac_sha256(KeywheelHash.DIAL_TOKEN_LABEL, message)

    @staticmethod
    def session_key(secret: bytes, round_number: int, intent: int) -> bytes:
        """H3: derive the session key handed to the application."""
        message = secret + round_number.to_bytes(8, "big") + intent.to_bytes(4, "big")
        return hmac_sha256(KeywheelHash.SESSION_KEY_LABEL, message)
