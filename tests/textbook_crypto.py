"""Textbook ChaCha20 / Curve25519 kernels: the oracles for ``test_pure_kernels``.

This is the code ``src/repro/crypto`` shipped up to commit 194c5e6, moved
here unchanged in substance when the pure engine's kernels were rewritten
(lane-packed ChaCha20, fixed-base Edwards table, windowed ``h * A``, lazily
reduced Montgomery ladder).  It follows the RFCs line by line -- one block
at a time, one scalar bit at a time, a reduction after every field
operation, Fermat inversions -- and exists only so the fast kernels can be
compared against something obviously right.  Not a test module (pytest does
not collect it) and not importable from ``src/``.
"""

from __future__ import annotations

import struct

P = 2**255 - 19
L = 2**252 + 27742317777372353535851937790883648493
D = (-121665 * pow(121666, P - 2, P)) % P
SQRT_M1 = pow(2, (P - 1) // 4, P)
A24 = 121665

#: RFC 7748 section 6.1 / the curve25519 paper's list: u = 0, 1, the two
#: order-8 points, p - 1, and the non-canonical p, p + 1.
SMALL_ORDER_U = [
    0,
    1,
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
    P - 1,
    P,
    P + 1,
]

_CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
_MASK32 = 0xFFFFFFFF


# --------------------------------------------------------------------------- #
# ChaCha20 (RFC 8439 section 2.3), one 64-byte block per call
# --------------------------------------------------------------------------- #
def _rotl32(value: int, count: int) -> int:
    value &= _MASK32
    return ((value << count) | (value >> (32 - count))) & _MASK32


def _quarter_round(state: list[int], a: int, b: int, c: int, d: int) -> None:
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 16)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 12)
    state[a] = (state[a] + state[b]) & _MASK32
    state[d] = _rotl32(state[d] ^ state[a], 8)
    state[c] = (state[c] + state[d]) & _MASK32
    state[b] = _rotl32(state[b] ^ state[c], 7)


def chacha20_block(key: bytes, counter: int, nonce: bytes) -> bytes:
    initial = (
        list(_CONSTANTS)
        + list(struct.unpack("<8I", key))
        + [counter & _MASK32]
        + list(struct.unpack("<3I", nonce))
    )
    state = list(initial)
    for _ in range(10):
        _quarter_round(state, 0, 4, 8, 12)
        _quarter_round(state, 1, 5, 9, 13)
        _quarter_round(state, 2, 6, 10, 14)
        _quarter_round(state, 3, 7, 11, 15)
        _quarter_round(state, 0, 5, 10, 15)
        _quarter_round(state, 1, 6, 11, 12)
        _quarter_round(state, 2, 7, 8, 13)
        _quarter_round(state, 3, 4, 9, 14)
    return struct.pack("<16I", *((state[i] + initial[i]) & _MASK32 for i in range(16)))


def chacha20_stream(key: bytes, nonce: bytes, length: int, initial_counter: int = 0) -> bytes:
    blocks = []
    counter = initial_counter
    while 64 * len(blocks) < length:
        blocks.append(chacha20_block(key, counter, nonce))
        counter += 1
    return b"".join(blocks)[:length]


def chacha20_encrypt(key: bytes, nonce: bytes, plaintext: bytes, initial_counter: int = 0) -> bytes:
    stream = chacha20_stream(key, nonce, len(plaintext), initial_counter)
    return bytes(p ^ s for p, s in zip(plaintext, stream))


# --------------------------------------------------------------------------- #
# Ed25519 group arithmetic (RFC 8032 section 5.1), extended coordinates
# --------------------------------------------------------------------------- #
def recover_x(y: int, sign: int) -> int | None:
    """The x with the given parity for ``y``, or None for an invalid encoding."""
    if y >= P:
        return None
    x2 = (y * y - 1) * pow(D * y * y + 1, P - 2, P) % P
    if x2 == 0:
        return None if sign else 0
    x = pow(x2, (P + 3) // 8, P)
    if (x * x - x2) % P != 0:
        x = x * SQRT_M1 % P
    if (x * x - x2) % P != 0:
        return None
    if x & 1 != sign:
        x = P - x
    return x


BASE_Y = 4 * pow(5, P - 2, P) % P
BASE_X = recover_x(BASE_Y, 0)
BASE = (BASE_X, BASE_Y, 1, BASE_X * BASE_Y % P)
IDENTITY = (0, 1, 1, 0)


def point_add(p, q):
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % P
    b = (y1 + x1) * (y2 + x2) % P
    c = 2 * t1 * t2 * D % P
    d = 2 * z1 * z2 % P
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return (e * f % P, g * h % P, f * g % P, e * h % P)


def point_mul(scalar: int, point):
    """Double-and-add, least significant bit first."""
    result = IDENTITY
    addend = point
    while scalar:
        if scalar & 1:
            result = point_add(result, addend)
        addend = point_add(addend, addend)
        scalar >>= 1
    return result


def point_compress(point) -> bytes:
    x, y, z, _ = point
    zinv = pow(z, P - 2, P)
    x = x * zinv % P
    y = y * zinv % P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


# --------------------------------------------------------------------------- #
# X25519 (RFC 7748 section 5), a reduction after every operation
# --------------------------------------------------------------------------- #
def montgomery_ladder(k: int, u: int) -> int:
    x1 = u
    x2, z2 = 1, 0
    x3, z3 = u, 1
    swap = 0
    for t in range(254, -1, -1):
        k_t = (k >> t) & 1
        swap ^= k_t
        if swap:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = k_t

        a = (x2 + z2) % P
        aa = (a * a) % P
        b = (x2 - z2) % P
        bb = (b * b) % P
        e = (aa - bb) % P
        c = (x3 + z3) % P
        d = (x3 - z3) % P
        da = (d * a) % P
        cb = (c * b) % P
        x3 = (da + cb) % P
        x3 = (x3 * x3) % P
        z3 = (da - cb) % P
        z3 = (z3 * z3 * x1) % P
        x2 = (aa * bb) % P
        z2 = (e * (aa + A24 * e)) % P
    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2
    return (x2 * pow(z2, P - 2, P)) % P


def x25519(scalar: bytes, point: bytes) -> bytes:
    """RFC 7748 ``X25519(k, u)`` with the standard clamping and masking."""
    raw = bytearray(scalar)
    raw[0] &= 248
    raw[31] &= 127
    raw[31] |= 64
    u = int.from_bytes(point, "little") & ((1 << 255) - 1)
    return montgomery_ladder(int.from_bytes(raw, "little"), u % P).to_bytes(32, "little")
