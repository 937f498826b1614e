"""Ed25519 signatures (RFC 8032), pure Python.

Each Alpenhorn user has a long-term Ed25519 signing key (``MySigningKey`` in
Figure 1); friend requests carry a ``SenderSig`` made with this key, and PKG
servers authenticate extraction requests against the registered public key.
Mixnet and PKG servers also hold long-term Ed25519 keys used to sign round
announcements and (in the coordinator) mailbox digests.
"""

from __future__ import annotations

import hashlib

from repro.errors import CryptoError
from repro.utils.rng import random_bytes

KEY_SIZE = 32
SIGNATURE_SIZE = 64

_P = 2**255 - 19
_L = 2**252 + 27742317777372353535851937790883648493
_D = -121665 * pow(121666, -1, _P) % _P
_I = pow(2, (_P - 1) // 4, _P)
_MASK255 = (1 << 255) - 1


def _sha512(data: bytes) -> bytes:
    return hashlib.sha512(data).digest()


def _recover_x(y: int, sign: int) -> int:
    if y >= _P:
        raise CryptoError("invalid point encoding")
    # x^2 = u/v; RFC 8032 5.1.3: the candidate root u v^3 (u v^7)^((p-5)/8)
    # costs one exponentiation and no inversion.
    u = (y * y - 1) % _P
    v = (_D * y * y + 1) % _P
    v3 = v * v * v % _P
    x = u * v3 * pow(u * v3 * v3 * v, (_P - 5) // 8, _P) % _P
    vxx = v * x * x % _P
    if vxx != u:
        if vxx != _P - u:
            raise CryptoError("invalid point encoding")
        x = x * _I % _P
    if x == 0:
        if sign:
            raise CryptoError("invalid point encoding")
        return 0
    if x & 1 != sign:
        x = _P - x
    return x


# Points are stored in extended homogeneous coordinates (X, Y, Z, T)
# with x = X/Z, y = Y/Z, x*y = T/Z.  Sums and differences are left
# unreduced (Python ints may go negative); every product is reduced, except
# the products :func:`_point_mul` folds lazily below 2**262.
_BASE_Y = 4 * pow(5, -1, _P) % _P
_BASE_X = _recover_x(_BASE_Y, 0)
_BASE = (_BASE_X, _BASE_Y, 1, _BASE_X * _BASE_Y % _P)
_IDENTITY = (0, 1, 1, 0)


def _point_add(p, q):
    x1, y1, z1, t1 = p
    x2, y2, z2, t2 = q
    a = (y1 - x1) * (y2 - x2) % _P
    b = (y1 + x1) * (y2 + x2) % _P
    c = 2 * t1 * t2 * _D % _P
    d = 2 * z1 * z2 % _P
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def _point_double(p):
    # The dedicated a = -1 doubling (4 squarings + 4 products against the
    # 9 products of _point_add(p, p)); e, f, g, h all carry a flipped sign
    # relative to the textbook form, which their pairwise products cancel.
    x1, y1, z1, _ = p
    a = x1 * x1 % _P
    b = y1 * y1 % _P
    h = a + b
    e = h - (x1 + y1) * (x1 + y1) % _P
    g = a - b
    f = 2 * z1 * z1 % _P + g
    return (e * f % _P, g * h % _P, f * g % _P, e * h % _P)


def _point_mul(scalar: int, point):
    """``scalar * point`` for any ``scalar >= 0``: width-5 NAF, one doubling chain.

    The scalar is recoded into odd digits in [-15, 15], each at least five
    bits above the one below it, so the chain adds one of +-P, +-3P, ...,
    +-15P per non-zero digit (about one addition per six doublings).  Each
    doubling is :func:`_point_double` inlined as in ``x25519._window_table``:
    the four squarings only feed sums, so they are folded lazily
    (2**255 = 19 mod p), the three outputs are reduced fully, and T = e*h is
    computed only where an addition (or the caller) needs it.  Not
    constant-time, like the rest of the pure engine.
    """
    # (position, digit) pairs, least significant first; the (0, 0) sentinel
    # carries the doublings below the lowest non-zero digit.
    terms = [(0, 0)]
    position = 0
    while scalar:
        zeros = (scalar & -scalar).bit_length() - 1
        scalar >>= zeros
        position += zeros
        digit = scalar & 31
        if digit > 16:
            digit -= 32
        terms.append((position, digit))
        scalar = (scalar - digit) >> 5
        position += 5
    if len(terms) == 1:
        return _IDENTITY
    multiples = [point]
    double = _point_double(point)
    for _ in range(7):
        multiples.append(_point_add(multiples[-1], double))
    # cached[d] is d*P as (y - x, y + x, 2dT, 2Z) for odd d in [-15, 15]: a
    # negative d indexes from the end, and negating swaps y - x with y + x
    # and flips T.
    cached = [None] * 32
    for digit, (x, y, z, t) in zip(range(1, 16, 2), multiples):
        y_minus_x, y_plus_x, t2d, z2 = (y - x) % _P, (y + x) % _P, 2 * _D * t % _P, 2 * z % _P
        cached[digit] = (y_minus_x, y_plus_x, t2d, z2)
        cached[-digit] = (y_plus_x, y_minus_x, -t2d % _P, z2)
    top, digit = terms.pop()
    x, y, z, t = multiples[digit >> 1]
    e, h = t, 1  # T is e*h % p from here on
    for position, digit in reversed(terms):
        for _ in range(top - position):
            a = x * x
            a = (a & _MASK255) + 19 * (a >> 255)
            b = y * y
            b = (b & _MASK255) + 19 * (b >> 255)
            h = a + b
            e = x + y
            e = e * e
            e = h - ((e & _MASK255) + 19 * (e >> 255))
            g = a - b
            f = z * z
            f = 2 * ((f & _MASK255) + 19 * (f >> 255)) + g
            x, y, z = e * f % _P, g * h % _P, f * g % _P
        top = position
        if digit:
            y_minus_x, y_plus_x, t2d, z2 = cached[digit]
            a = (y - x) * y_minus_x
            a = (a & _MASK255) + 19 * (a >> 255)
            b = (y + x) * y_plus_x
            b = (b & _MASK255) + 19 * (b >> 255)
            c = e * h % _P * t2d
            c = (c & _MASK255) + 19 * (c >> 255)
            d = z * z2
            d = (d & _MASK255) + 19 * (d >> 255)
            e = b - a
            f = d - c
            g = d + c
            h = b + a
            x, y, z = e * f % _P, g * h % _P, f * g % _P
    return (x, y, z, e * h % _P)


_WINDOWS = 64


def _build_base_table() -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """``table[w][j-1]`` is ``j * 16**w * B`` as affine ``(y-x, y+x, 2dxy)``."""
    points = []
    base = _BASE
    for _ in range(_WINDOWS):
        multiple = base
        for _ in range(15):
            points.append(multiple)
            multiple = _point_add(multiple, base)
        base = multiple
    # Montgomery's trick: one inversion for all 960 Z coordinates.
    prefix = [1]
    for point in points:
        prefix.append(prefix[-1] * point[2] % _P)
    inverse = pow(prefix[-1], -1, _P)
    entries = []
    for (x, y, z, _), before in zip(reversed(points), reversed(prefix[:-1])):
        z_inv = inverse * before % _P
        inverse = inverse * z % _P
        x = x * z_inv % _P
        y = y * z_inv % _P
        entries.append(((y - x) % _P, (y + x) % _P, 2 * _D * x * y % _P))
    entries.reverse()
    return tuple(tuple(entries[w : w + 15]) for w in range(0, len(entries), 15))


_BASE_TABLE = _build_base_table()


def _base_mul(scalar: int):
    """``scalar * B`` for ``0 <= scalar < 2**256`` from the fixed-base table.

    One mixed addition per non-zero 4-bit digit and no doublings.  Like the
    rest of the pure engine this is *not* constant-time: Python ints are
    variable-width, and zero digits are skipped.
    """
    if not 0 <= scalar < 1 << (4 * _WINDOWS):
        raise CryptoError("fixed-base scalar out of range")
    x, y, z, t = _IDENTITY
    for row in _BASE_TABLE:
        digit = scalar & 15
        scalar >>= 4
        if digit:
            y_minus_x, y_plus_x, xy2d = row[digit - 1]
            a = (y - x) * y_minus_x % _P
            b = (y + x) * y_plus_x % _P
            c = t * xy2d % _P
            d = 2 * z
            e = b - a
            f = d - c
            g = d + c
            h = b + a
            x, y, z, t = e * f % _P, g * h % _P, f * g % _P, e * h % _P
    return (x, y, z, t)


def _point_compress(point) -> bytes:
    x, y, z, _ = point
    zinv = pow(z, -1, _P)
    x = x * zinv % _P
    y = y * zinv % _P
    return (y | ((x & 1) << 255)).to_bytes(32, "little")


def is_canonical_point(data: bytes) -> bool:
    """Whether ``data`` passes RFC 8032 §5.1.3's two encoding checks: y < p,
    and no sign bit on x = 0 (y = 1 or y = p - 1).  :func:`_point_decompress`
    enforces both; OpenSSL's decoder reduces y and ignores that sign bit, so
    the accelerated engine checks a public key here first."""
    encoded = int.from_bytes(data, "little")
    y = encoded & ((1 << 255) - 1)
    return y < _P and not (encoded >> 255 and y in (1, _P - 1))


def _point_decompress(data: bytes):
    if len(data) != 32:
        raise CryptoError("invalid point encoding length")
    encoded = int.from_bytes(data, "little")
    sign = encoded >> 255
    y = encoded & ((1 << 255) - 1)
    x = _recover_x(y, sign)
    return (x, y, 1, x * y % _P)


def _secret_expand(secret: bytes) -> tuple[int, bytes]:
    if len(secret) != KEY_SIZE:
        raise CryptoError(f"Ed25519 secret must be {KEY_SIZE} bytes, got {len(secret)}")
    h = _sha512(secret)
    a = int.from_bytes(h[:32], "little")
    a &= (1 << 254) - 8
    a |= 1 << 254
    return a, h[32:]


def generate_private_key() -> bytes:
    """Generate a fresh Ed25519 seed (private key)."""
    return random_bytes(KEY_SIZE)


def public_key(private_key: bytes) -> bytes:
    """Derive the 32-byte public key from a private seed."""
    a, _ = _secret_expand(private_key)
    return _point_compress(_base_mul(a))


def sign(private_key: bytes, message: bytes) -> bytes:
    """Produce a 64-byte Ed25519 signature over ``message``."""
    a, prefix = _secret_expand(private_key)
    public = _point_compress(_base_mul(a))
    r = int.from_bytes(_sha512(prefix + message), "little") % _L
    big_r = _point_compress(_base_mul(r))
    h = int.from_bytes(_sha512(big_r + public + message), "little") % _L
    s = (r + h * a) % _L
    return big_r + s.to_bytes(32, "little")


def verify(public: bytes, message: bytes, signature: bytes) -> bool:
    """Check an Ed25519 signature; returns True/False (never raises on bad sig).

    The cofactorless equation, checked by R's encoding (the Ed25519 paper's
    verification, and what OpenSSL evaluates): accept iff
    ``encode(s*B - h*A) == R``.  Only canonical, on-curve points have an
    encoding, so an R with y >= p, a sign bit on x = 0 or no point behind
    it fails the comparison exactly as it would fail decoding.
    """
    if len(public) != KEY_SIZE or len(signature) != SIGNATURE_SIZE:
        return False
    try:
        x, y, z, t = _point_decompress(public)
    except CryptoError:
        return False
    s = int.from_bytes(signature[32:], "little")
    if s >= _L:
        return False
    h = int.from_bytes(_sha512(signature[:32] + public + message), "little") % _L
    minus_h_a = _point_mul(h, (-x % _P, y, z, -t % _P))
    return _point_compress(_point_add(_base_mul(s), minus_h_a)) == signature[:32]
