"""X25519 Diffie-Hellman key exchange (RFC 7748), pure Python.

Used for the ephemeral ``DialingKey`` exchanged inside friend requests
(§4.7) and for the per-hop onion keys of the mixnet (Algorithm 1, step 3).
"""

from __future__ import annotations

from repro.crypto.ed25519 import _base_mul
from repro.errors import CryptoError
from repro.utils.rng import random_bytes

KEY_SIZE = 32

_P = 2**255 - 19
_A24 = 121665
_MASK255 = (1 << 255) - 1


def _decode_scalar(scalar: bytes) -> int:
    if len(scalar) != KEY_SIZE:
        raise CryptoError(f"X25519 scalar must be {KEY_SIZE} bytes, got {len(scalar)}")
    raw = bytearray(scalar)
    raw[0] &= 248
    raw[31] &= 127
    raw[31] |= 64
    return int.from_bytes(raw, "little")


def _decode_u(u: bytes) -> int:
    if len(u) != KEY_SIZE:
        raise CryptoError(f"X25519 point must be {KEY_SIZE} bytes, got {len(u)}")
    raw = bytearray(u)
    raw[31] &= 127
    return int.from_bytes(raw, "little") % _P


def _encode_u(u: int) -> bytes:
    return (u % _P).to_bytes(KEY_SIZE, "little")


def _divide(numerator: int, denominator: int) -> int:
    """``numerator / denominator`` mod p, with ``x / 0 = 0`` as RFC 7748's
    ``z2 ** (p - 2)`` has it (the point at infinity encodes as u = 0)."""
    denominator %= _P
    if denominator == 0:
        return 0
    return numerator * pow(denominator, -1, _P) % _P


def _montgomery_ladder(k: int, u: int) -> int:
    x1 = u
    x2, z2 = 1, 0
    x3, z3 = u, 1
    swap = 0
    for t in range(254, -1, -1):
        k_t = (k >> t) & 1
        if swap ^ k_t:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = k_t

        # Sums and differences stay unreduced.  Products that only feed
        # another sum are folded once, lazily -- 2**255 = 19 (mod p), so
        # lo + 19 * hi is congruent and under 2**263, at half the cost of
        # ``% p``; the four step outputs are reduced fully, which bounds
        # every operand of the next step.
        a = x2 + z2
        b = x2 - z2
        aa = a * a
        aa = (aa & _MASK255) + 19 * (aa >> 255)
        bb = b * b
        bb = (bb & _MASK255) + 19 * (bb >> 255)
        e = aa - bb
        da = (x3 - z3) * a
        da = (da & _MASK255) + 19 * (da >> 255)
        cb = (x3 + z3) * b
        cb = (cb & _MASK255) + 19 * (cb >> 255)
        x3 = da + cb
        x3 = x3 * x3 % _P
        z3 = da - cb
        z3 = z3 * z3
        z3 = ((z3 & _MASK255) + 19 * (z3 >> 255)) * x1 % _P
        x2 = aa * bb % _P
        z2 = e * (aa + _A24 * e) % _P
    if swap:
        x2, z2 = x3, z3
    return _divide(x2, z2)


def scalar_mult(scalar: bytes, point: bytes) -> bytes:
    """Multiply a curve point (u-coordinate) by a scalar."""
    k = _decode_scalar(scalar)
    u = _decode_u(point)
    return _encode_u(_montgomery_ladder(k, u))


def scalar_base_mult(scalar: bytes) -> bytes:
    """Multiply the standard base point by a scalar (derive a public key).

    The Ed25519 base point is the image of u = 9 under the birational map
    u = (1 + y) / (1 - y), so the shared fixed-base Edwards table does the
    multiplication and one division maps the result back.
    """
    _, y, z, _ = _base_mul(_decode_scalar(scalar))
    return _encode_u(_divide(z + y, z - y))


def generate_private_key() -> bytes:
    """Generate a fresh X25519 private key."""
    return random_bytes(KEY_SIZE)


def public_key(private_key: bytes) -> bytes:
    """Derive the public key for a private key."""
    return scalar_base_mult(private_key)


def shared_secret(private_key: bytes, peer_public_key: bytes) -> bytes:
    """Compute the raw Diffie-Hellman shared secret.

    Raises :class:`~repro.errors.CryptoError` if the result is the all-zero
    point (contributory behaviour check).
    """
    secret = scalar_mult(private_key, peer_public_key)
    if secret == b"\x00" * KEY_SIZE:
        raise CryptoError("X25519 produced the all-zero shared secret")
    return secret
