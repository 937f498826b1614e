"""Byte-string helpers used across the crypto and protocol layers."""

from __future__ import annotations


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} != {len(b)}")
    # One wide-int XOR instead of a per-byte generator (the ChaCha20 body XOR).
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")
