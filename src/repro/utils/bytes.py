"""Byte-string helpers used across the crypto and protocol layers."""

from __future__ import annotations

import hmac


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without leaking where they differ.

    Uses :func:`hmac.compare_digest`, which runs in time independent of the
    contents (though not of the lengths).
    """
    return hmac.compare_digest(a, b)


def int_to_bytes(value: int, length: int, byteorder: str = "big") -> bytes:
    """Encode a non-negative integer into exactly ``length`` bytes."""
    if value < 0:
        raise ValueError("cannot encode negative integer")
    return value.to_bytes(length, byteorder)


def bytes_to_int(data: bytes, byteorder: str = "big") -> int:
    """Decode a byte string into a non-negative integer."""
    return int.from_bytes(data, byteorder)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} != {len(b)}")
    # One wide-int XOR instead of a per-byte generator (the ChaCha20 body XOR).
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


def hexlify(data: bytes, max_len: int = 12) -> str:
    """Short hex preview of a byte string, for logging and __repr__."""
    text = data.hex()
    if len(text) > 2 * max_len:
        return text[: 2 * max_len] + "..."
    return text
