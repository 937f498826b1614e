"""Poly1305 one-time authenticator (RFC 8439), pure Python."""

from __future__ import annotations

from repro.errors import CryptoError

TAG_SIZE = 16
KEY_SIZE = 32

_PRIME = (1 << 130) - 5
_CLAMP = 0x0FFFFFFC0FFFFFFC0FFFFFFC0FFFFFFF


def poly1305_mac(key: bytes, message: bytes) -> bytes:
    """Compute the 16-byte Poly1305 tag of ``message`` under a one-time key."""
    if len(key) != KEY_SIZE:
        raise CryptoError(f"Poly1305 key must be {KEY_SIZE} bytes, got {len(key)}")
    r = int.from_bytes(key[:16], "little") & _CLAMP
    s = int.from_bytes(key[16:], "little")
    accumulator = 0
    for offset in range(0, len(message), 16):
        chunk = message[offset : offset + 16]
        block = int.from_bytes(chunk + b"\x01", "little")
        accumulator = ((accumulator + block) * r) % _PRIME
    tag = (accumulator + s) % (1 << 128)
    return tag.to_bytes(16, "little")
