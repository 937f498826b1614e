"""X25519 Diffie-Hellman key exchange (RFC 7748), pure Python.

Used for the ephemeral ``DialingKey`` exchanged inside friend requests
(§4.7) and for the per-hop onion keys of the mixnet (Algorithm 1, step 3).

The batch functions at the end share work across a batch: every result is
first kept as an unreduced fraction ``x / z`` and one modular inversion
finishes them all (Montgomery's simultaneous inversion), and N keys
against one peer -- the onion wrap's shape -- run on the Edwards image of
the peer (RFC 7748 §4.1) with one table of its 64 radix-16 multiples and
the bucket method per key, instead of N Montgomery ladders.  Every output
is byte-identical to the single-op functions, which stay the reference.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.ed25519 import _D, _base_mul, _point_add, _recover_x
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


def _divide_many(fractions: Sequence[tuple[int, int]]) -> list[int]:
    """Every ``numerator / denominator`` with one inversion (Montgomery's
    trick), ``x / 0 = 0`` as in :func:`_divide`."""
    prefixes = []
    product = 1
    for _, denominator in fractions:
        prefixes.append(product)
        denominator %= _P
        if denominator:
            product = product * denominator % _P
    inverse = pow(product, -1, _P)
    quotients = [0] * len(fractions)
    for i in range(len(fractions) - 1, -1, -1):
        numerator, denominator = fractions[i]
        denominator %= _P
        if denominator:
            quotients[i] = numerator * inverse % _P * prefixes[i] % _P
            inverse = inverse * denominator % _P
    return quotients


def _montgomery_ladder(k: int, u: int) -> int:
    return _divide(*_ladder_fraction(k, u))


def _ladder_fraction(k: int, u: int) -> tuple[int, int]:
    """The Montgomery ladder: ``k * u`` as the projective pair ``(x, z)``."""
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
    return x2, z2


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
    return _encode_u(_divide(*_base_fraction(_decode_scalar(scalar))))


def _base_fraction(k: int) -> tuple[int, int]:
    _, y, z, _ = _base_mul(k)
    return z + y, z - y


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


# ---------------------------------------------------------------------------
# Batches: one inversion per call, one table per shared peer
# ---------------------------------------------------------------------------

#: The smallest batch of keys against one peer worth a window table.  On a
#: 2-core Xeon container (CPython 3.11) a table costs ~1.3 ms and then
#: ~0.33 ms per key, against ~1.1 ms per ladder: 2 keys about break even
#: and 3 win by ~1 ms, so a single exchange (the add-friend reply) stays
#: on the ladder.
_TABLE_MIN_KEYS = 3

_WINDOWS = 64


def _window_table(u: int):
    """``16**w * Q`` for ``w < 64`` as affine Edwards points, where Q is the
    Edwards image of the Montgomery point ``u``; ``None`` if it has none.

    ``y = (u - 1) / (u + 1)`` (RFC 7748 §4.1) and x is recovered from the
    curve equation -- its sign is irrelevant, as ``u(kQ) = u(-kQ)``.  Each
    entry is ``((x, y, 1, xy), (y - x, y + x, 2dxy))``: the point itself to
    start a bucket, and the mixed-addition form of ``ed25519._base_mul``.
    u = p - 1 (a zero ``u + 1``) and the twist (no square root) fall back.
    """
    if u == _P - 1:
        return None
    y = (u - 1) * pow(u + 1, -1, _P) % _P
    try:
        x = _recover_x(y, 0)
    except CryptoError:
        return None
    z = 1
    points = [(x, y, z)]
    for _ in range(_WINDOWS - 1):
        # Four of ed25519._point_double, inlined, without the T it ignores;
        # the squares only feed sums, so they are folded lazily as in the
        # ladder, and the three outputs are reduced fully.
        for _ in range(4):
            a = x * x
            a = (a & _MASK255) + 19 * (a >> 255)
            b = y * y
            b = (b & _MASK255) + 19 * (b >> 255)
            h = a + b
            e = (x + y) * (x + y)
            e = h - ((e & _MASK255) + 19 * (e >> 255))
            g = a - b
            f = z * z
            f = 2 * ((f & _MASK255) + 19 * (f >> 255)) + g
            x, y, z = e * f % _P, g * h % _P, f * g % _P
        points.append((x, y, z))
    table = []
    for (x, y, _), z_inverse in zip(points, _divide_many([(1, z) for _, _, z in points])):
        x = x * z_inverse % _P
        y = y * z_inverse % _P
        xy = x * y % _P
        table.append(((x, y, 1, xy), ((y - x) % _P, (y + x) % _P, 2 * _D * xy % _P)))
    return table


def _bucket_fraction(k: int, table) -> tuple[int, int]:
    """``k * Q`` from Q's window table, as the Montgomery fraction of its u.

    The bucket (Yao) method: the window points of every radix-16 digit j
    are summed into bucket j, and ``sum(j * bucket_j)`` is two running sums
    from j = 15 down -- one addition per non-zero digit plus at most 30.
    Not constant-time, like the rest of the pure engine.
    """
    buckets = [None] * 16
    for start, (y_minus_x, y_plus_x, xy2d) in table:
        digit = k & 15
        k >>= 4
        if digit:
            bucket = buckets[digit]
            if bucket is None:
                buckets[digit] = start
                continue
            x, y, z, t = bucket
            a = (y - x) * y_minus_x
            a = (a & _MASK255) + 19 * (a >> 255)
            b = (y + x) * y_plus_x
            b = (b & _MASK255) + 19 * (b >> 255)
            c = t * xy2d
            c = (c & _MASK255) + 19 * (c >> 255)
            d = 2 * z
            e = b - a
            f = d - c
            g = d + c
            h = b + a
            buckets[digit] = (e * f % _P, g * h % _P, f * g % _P, e * h % _P)
    running = total = None
    for bucket in reversed(buckets[1:]):
        if bucket is not None:
            running = bucket if running is None else _point_add(running, bucket)
        if running is not None:
            total = running if total is None else _point_add(total, running)
    if total is None:  # k = 0: the identity, whose u is 0
        return 0, 0
    _, y, z, _ = total
    return z + y, z - y


def _fractions_with(scalars: list[int], u: int) -> list[tuple[int, int]]:
    """``k * u`` for every k as Montgomery fractions: one window table for
    a batch of at least ``_TABLE_MIN_KEYS``, else (or with no Edwards
    image) one ladder per key."""
    if len(scalars) >= _TABLE_MIN_KEYS:
        table = _window_table(u)
        if table is not None:
            return [_bucket_fraction(k, table) for k in scalars]
    return [_ladder_fraction(k, u) for k in scalars]


def _secret(u: int) -> bytes | None:
    return None if u == 0 else _encode_u(u)


def public_keys(private_keys: Sequence[bytes]) -> list[bytes]:
    """:func:`public_key` of every key (raising as it would, at the first
    bad key)."""
    fractions = [_base_fraction(_decode_scalar(key)) for key in private_keys]
    return [_encode_u(u) for u in _divide_many(fractions)]


def shared_secrets(pairs: Sequence[tuple[bytes, bytes]]) -> list[bytes | None]:
    """:func:`shared_secret` of every ``(private_key, peer_public_key)``,
    ``None`` where it would raise (a wrong length or the all-zero point)."""
    fractions = []
    for private_key, peer_public_key in pairs:
        try:
            k, u = _decode_scalar(private_key), _decode_u(peer_public_key)
            fractions.append(_ladder_fraction(k, u))
        except CryptoError:
            fractions.append((0, 0))  # divides to 0: the None of the all-zero point
    return [_secret(u) for u in _divide_many(fractions)]


def keypair_exchanges(
    private_keys: Sequence[bytes], peer_public_key: bytes
) -> list[tuple[bytes, bytes | None]]:
    """Each key's public half and its :func:`shared_secret` with one peer
    (``None`` for the all-zero point); a wrong-length peer or key raises,
    the peer first."""
    u = _decode_u(peer_public_key)
    scalars = [_decode_scalar(key) for key in private_keys]
    fractions = [_base_fraction(k) for k in scalars]
    fractions += _fractions_with(scalars, u)
    values = _divide_many(fractions)
    count = len(scalars)
    return [
        (_encode_u(public), _secret(secret))
        for public, secret in zip(values[:count], values[count:])
    ]
