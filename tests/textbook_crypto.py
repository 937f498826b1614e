"""Textbook ChaCha20 / Curve25519 / BN254 kernels: the oracles for
``test_pure_kernels`` and ``test_bn254_kernels``.

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

from repro.errors import CryptoError

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


# --------------------------------------------------------------------------- #
# BN254: the object tower Fq2 -> Fq6 -> Fq12, G2 and the Miller line step
# --------------------------------------------------------------------------- #
# This is the code ``src/repro/crypto/bn254`` shipped up to commit 9698e55,
# moved here unchanged when the tower was rewritten on flat integers: small
# ``__slots__`` classes, one allocation and two reductions per Fq2 operation.
# ``tests/test_bn254_kernels.py`` holds every flat kernel to it.  The G2 point
# here decodes nothing and checks no subgroup; ``G2Point.mul_unreduced`` is
# the one addition, so that ``[r]Q == O`` can be asked of points outside G2
# (``scalar_mul`` reduces its scalar modulo r first).
# alt_bn128 parameters.  p is the base-field modulus, r the prime order of
# G1/G2/GT.  The BN parameter t generates both: p(t) and r(t) are the usual
# BN polynomials, and the optimal-ate loop count is 6t + 2.
BN_PARAMETER_T = 4965661367192848881
FIELD_MODULUS = 21888242871839275222246405745257275088696311157297823662689037894645226208583
CURVE_ORDER = 21888242871839275222246405745257275088548364400416034343698204186575808495617
ATE_LOOP_COUNT = 6 * BN_PARAMETER_T + 2

_P = FIELD_MODULUS


def fq_inv(value: int) -> int:
    """Inverse in the base field (extended Euclid, ~20x cheaper than Fermat)."""
    value %= _P
    if value == 0:
        raise CryptoError("division by zero in Fq")
    return pow(value, -1, _P)


def fq_sqrt(value: int) -> int | None:
    """Square root in Fq, or None if ``value`` is a non-residue.

    The modulus satisfies p = 3 (mod 4), so a candidate root is
    ``value^((p+1)/4)``.
    """
    value %= _P
    candidate = pow(value, (_P + 1) // 4, _P)
    if candidate * candidate % _P == value:
        return candidate
    return None


class Fq2:
    """Element ``c0 + c1*u`` of Fq2 with ``u^2 = -1``."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0: int, c1: int = 0) -> None:
        self.c0 = c0 % _P
        self.c1 = c1 % _P

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "Fq2":
        return Fq2(0, 0)

    @staticmethod
    def one() -> "Fq2":
        return Fq2(1, 0)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other: "Fq2") -> "Fq2":
        return Fq2(self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other: "Fq2") -> "Fq2":
        return Fq2(self.c0 - other.c0, self.c1 - other.c1)

    def __neg__(self) -> "Fq2":
        return Fq2(-self.c0, -self.c1)

    def __mul__(self, other):
        if isinstance(other, int):
            return Fq2(self.c0 * other, self.c1 * other)
        a0, a1, b0, b1 = self.c0, self.c1, other.c0, other.c1
        t0 = a0 * b0
        t1 = a1 * b1
        # (a0 + a1 u)(b0 + b1 u) = (a0 b0 - a1 b1) + (a0 b1 + a1 b0) u
        return Fq2(t0 - t1, (a0 + a1) * (b0 + b1) - t0 - t1)

    __rmul__ = __mul__

    def square(self) -> "Fq2":
        a0, a1 = self.c0, self.c1
        # (a0 + a1 u)^2 = (a0 - a1)(a0 + a1) + 2 a0 a1 u
        return Fq2((a0 - a1) * (a0 + a1), 2 * a0 * a1)

    def conjugate(self) -> "Fq2":
        return Fq2(self.c0, -self.c1)

    def inverse(self) -> "Fq2":
        norm = (self.c0 * self.c0 + self.c1 * self.c1) % _P
        if norm == 0:
            raise CryptoError("division by zero in Fq2")
        inv_norm = fq_inv(norm)
        return Fq2(self.c0 * inv_norm, -self.c1 * inv_norm)

    def mul_by_nonresidue(self) -> "Fq2":
        """Multiply by ``xi = 9 + u`` (used by the Fq6 reduction)."""
        a0, a1 = self.c0, self.c1
        return Fq2(9 * a0 - a1, a0 + 9 * a1)

    def pow(self, exponent: int) -> "Fq2":
        result = Fq2.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base.square()
            exponent >>= 1
        return result

    # -- predicates / misc --------------------------------------------
    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Fq2) and self.c0 == other.c0 and self.c1 == other.c1

    def __hash__(self) -> int:
        return hash((self.c0, self.c1))

    def __repr__(self) -> str:
        return f"Fq2({self.c0}, {self.c1})"

    def sqrt(self) -> "Fq2 | None":
        """Square root in Fq2, or None if not a quadratic residue.

        Uses the standard complex-method: for a = a0 + a1 u with u^2 = -1,
        solve via the base-field norm.
        """
        if self.is_zero():
            return Fq2.zero()
        a0, a1 = self.c0, self.c1
        if a1 == 0:
            root = fq_sqrt(a0)
            if root is not None:
                return Fq2(root, 0)
            # sqrt(a0) = sqrt(-a0) * u  since u^2 = -1
            root = fq_sqrt(-a0 % _P)
            if root is None:
                return None
            return Fq2(0, root)
        norm = (a0 * a0 + a1 * a1) % _P
        alpha = fq_sqrt(norm)
        if alpha is None:
            return None
        delta = (a0 + alpha) * fq_inv(2) % _P
        x0 = fq_sqrt(delta)
        if x0 is None:
            delta = (a0 - alpha) * fq_inv(2) % _P
            x0 = fq_sqrt(delta)
            if x0 is None:
                return None
        x1 = a1 * fq_inv(2 * x0) % _P
        candidate = Fq2(x0, x1)
        if candidate.square() == self:
            return candidate
        return None


# Non-residue used throughout the tower.
XI = Fq2(9, 1)


class Fq6:
    """Element ``c0 + c1*v + c2*v^2`` of Fq6 with ``v^3 = xi``."""

    __slots__ = ("c0", "c1", "c2")

    def __init__(self, c0: Fq2, c1: Fq2, c2: Fq2) -> None:
        self.c0 = c0
        self.c1 = c1
        self.c2 = c2

    @staticmethod
    def zero() -> "Fq6":
        return Fq6(Fq2.zero(), Fq2.zero(), Fq2.zero())

    @staticmethod
    def one() -> "Fq6":
        return Fq6(Fq2.one(), Fq2.zero(), Fq2.zero())

    def __add__(self, other: "Fq6") -> "Fq6":
        return Fq6(self.c0 + other.c0, self.c1 + other.c1, self.c2 + other.c2)

    def __sub__(self, other: "Fq6") -> "Fq6":
        return Fq6(self.c0 - other.c0, self.c1 - other.c1, self.c2 - other.c2)

    def __neg__(self) -> "Fq6":
        return Fq6(-self.c0, -self.c1, -self.c2)

    def __mul__(self, other: "Fq6") -> "Fq6":
        a0, a1, a2 = self.c0, self.c1, self.c2
        b0, b1, b2 = other.c0, other.c1, other.c2
        t0 = a0 * b0
        t1 = a1 * b1
        t2 = a2 * b2
        c0 = ((a1 + a2) * (b1 + b2) - t1 - t2).mul_by_nonresidue() + t0
        c1 = (a0 + a1) * (b0 + b1) - t0 - t1 + t2.mul_by_nonresidue()
        c2 = (a0 + a2) * (b0 + b2) - t0 - t2 + t1
        return Fq6(c0, c1, c2)

    def square(self) -> "Fq6":
        return self * self

    def mul_by_v(self) -> "Fq6":
        """Multiply by ``v`` (shifts coefficients, reducing v^3 to xi)."""
        return Fq6(self.c2.mul_by_nonresidue(), self.c0, self.c1)

    def scale(self, factor: "Fq2 | int") -> "Fq6":
        return Fq6(self.c0 * factor, self.c1 * factor, self.c2 * factor)

    def mul_by_01(self, b0: Fq2, b1: Fq2) -> "Fq6":
        """Multiply by the sparse element ``b0 + b1*v`` (5 Fq2 products, not 6)."""
        a0, a1, a2 = self.c0, self.c1, self.c2
        t0 = a0 * b0
        t1 = a1 * b1
        c0 = (a2 * b1).mul_by_nonresidue() + t0
        c1 = (a0 + a1) * (b0 + b1) - t0 - t1
        return Fq6(c0, c1, a2 * b0 + t1)

    def inverse(self) -> "Fq6":
        a0, a1, a2 = self.c0, self.c1, self.c2
        t0 = a0.square() - (a1 * a2).mul_by_nonresidue()
        t1 = a2.square().mul_by_nonresidue() - a0 * a1
        t2 = a1.square() - a0 * a2
        denom = a0 * t0 + (a2 * t1 + a1 * t2).mul_by_nonresidue()
        denom_inv = denom.inverse()
        return Fq6(t0 * denom_inv, t1 * denom_inv, t2 * denom_inv)

    def is_zero(self) -> bool:
        return self.c0.is_zero() and self.c1.is_zero() and self.c2.is_zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Fq6)
            and self.c0 == other.c0
            and self.c1 == other.c1
            and self.c2 == other.c2
        )

    def __hash__(self) -> int:
        return hash((self.c0, self.c1, self.c2))

    def __repr__(self) -> str:
        return f"Fq6({self.c0!r}, {self.c1!r}, {self.c2!r})"


# Frobenius constant gamma1 = xi^((p-1)/6), an Fq2 element.  In the w-basis
# the p^n-power Frobenius maps coefficient a_k to sigma^n(a_k) * T_n[k], with
# sigma the Fq2 conjugation, T_1[k] = gamma1^k and
# T_(n+1)[k] = conj(T_n[k]) * T_1[k].  The final exponentiation needs n <= 3.
_GAMMA1 = XI.pow((_P - 1) // 6)
_FROBENIUS_TABLES = {1: [_GAMMA1.pow(k) for k in range(6)]}
for _n in (2, 3):
    _FROBENIUS_TABLES[_n] = [
        t.conjugate() * g for t, g in zip(_FROBENIUS_TABLES[_n - 1], _FROBENIUS_TABLES[1])
    ]


def _fq4_square(a: Fq2, b: Fq2) -> tuple[Fq2, Fq2]:
    """``(a + b*s)^2`` in ``Fq4 = Fq2[s] / (s^2 - xi)`` as ``(a^2 + xi*b^2, 2ab)``."""
    a_sq, b_sq = a.square(), b.square()
    return b_sq.mul_by_nonresidue() + a_sq, (a + b).square() - a_sq - b_sq


class Fq12:
    """Element ``c0 + c1*w`` of Fq12 with ``w^2 = v``."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0: Fq6, c1: Fq6) -> None:
        self.c0 = c0
        self.c1 = c1

    @staticmethod
    def zero() -> "Fq12":
        return Fq12(Fq6.zero(), Fq6.zero())

    @staticmethod
    def one() -> "Fq12":
        return Fq12(Fq6.one(), Fq6.zero())

    @staticmethod
    def from_w_coefficients(coeffs: list[Fq2]) -> "Fq12":
        """Build an element from its six coefficients in the basis 1..w^5.

        The w-basis relates to the tower as ``a_k w^k`` with
        ``c0 = (a0, a2, a4)`` and ``c1 = (a1, a3, a5)`` over ``v = w^2``.
        """
        if len(coeffs) != 6:
            raise CryptoError("Fq12 needs exactly 6 Fq2 coefficients")
        c0 = Fq6(coeffs[0], coeffs[2], coeffs[4])
        c1 = Fq6(coeffs[1], coeffs[3], coeffs[5])
        return Fq12(c0, c1)

    def w_coefficients(self) -> list[Fq2]:
        return [self.c0.c0, self.c1.c0, self.c0.c1, self.c1.c1, self.c0.c2, self.c1.c2]

    def __add__(self, other: "Fq12") -> "Fq12":
        return Fq12(self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other: "Fq12") -> "Fq12":
        return Fq12(self.c0 - other.c0, self.c1 - other.c1)

    def __neg__(self) -> "Fq12":
        return Fq12(-self.c0, -self.c1)

    def __mul__(self, other: "Fq12") -> "Fq12":
        a0, a1 = self.c0, self.c1
        b0, b1 = other.c0, other.c1
        t0 = a0 * b0
        t1 = a1 * b1
        c0 = t0 + t1.mul_by_v()
        c1 = (a0 + a1) * (b0 + b1) - t0 - t1
        return Fq12(c0, c1)

    def square(self) -> "Fq12":
        a0, a1 = self.c0, self.c1
        t0 = a0 * a1
        c0 = (a0 + a1) * (a0 + a1.mul_by_v()) - t0 - t0.mul_by_v()
        c1 = t0 + t0
        return Fq12(c0, c1)

    def cyclotomic_square(self) -> "Fq12":
        """Granger-Scott squaring: 9 Fq2 squarings instead of 12 Fq2 products.

        Only valid in the cyclotomic subgroup (elements of order dividing
        ``p^4 - p^2 + 1``, i.e. anything past the easy part of the final
        exponentiation); on a general element the result is *not* its square.
        """
        z0, z4, z3 = self.c0.c0, self.c0.c1, self.c0.c2
        z2, z1, z5 = self.c1.c0, self.c1.c1, self.c1.c2
        t0, t1 = _fq4_square(z0, z1)
        t2, t3 = _fq4_square(z2, z3)
        t4, t5 = _fq4_square(z4, z5)
        t5 = t5.mul_by_nonresidue()
        return Fq12(
            Fq6((t0 - z0) * 2 + t0, (t2 - z4) * 2 + t2, (t4 - z3) * 2 + t4),
            Fq6((t5 + z2) * 2 + t5, (t1 + z1) * 2 + t1, (t3 + z5) * 2 + t3),
        )

    def mul_by_line(self, constant: int, w1: Fq2, w3: Fq2) -> "Fq12":
        """Multiply by the sparse Miller line ``constant + w1*w + w3*w^3``.

        In tower form the line is ``(constant, 0, 0) + (w1, w3, 0)*w`` with
        ``constant`` in Fq, so the product needs 10 Fq2 multiplications and 6
        Fq2-by-Fq scalings instead of the 18 of a general ``__mul__``.
        """
        a0, a1 = self.c0, self.c1
        return Fq12(
            a0.scale(constant) + a1.mul_by_01(w1, w3).mul_by_v(),
            a0.mul_by_01(w1, w3) + a1.scale(constant),
        )

    def conjugate(self) -> "Fq12":
        """The p^6-power Frobenius (negates the w-odd half)."""
        return Fq12(self.c0, -self.c1)

    def inverse(self) -> "Fq12":
        denom = (self.c0.square() - self.c1.square().mul_by_v()).inverse()
        return Fq12(self.c0 * denom, -(self.c1 * denom))

    def frobenius(self, power: int = 1) -> "Fq12":
        """Apply the ``p^power`` Frobenius endomorphism (``power`` in 1..3)."""
        coeffs = self.w_coefficients()
        if power & 1:
            coeffs = [coeff.conjugate() for coeff in coeffs]
        table = _FROBENIUS_TABLES[power]
        return Fq12.from_w_coefficients([a * t for a, t in zip(coeffs, table)])

    def pow(self, exponent: int) -> "Fq12":
        if exponent < 0:
            return self.inverse().pow(-exponent)
        result = Fq12.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base.square()
            exponent >>= 1
        return result

    def is_zero(self) -> bool:
        return self.c0.is_zero() and self.c1.is_zero()

    def is_one(self) -> bool:
        return self == _FQ12_ONE

    def __eq__(self, other) -> bool:
        return isinstance(other, Fq12) and self.c0 == other.c0 and self.c1 == other.c1

    def __hash__(self) -> int:
        return hash((self.c0, self.c1))

    def __repr__(self) -> str:
        return f"Fq12({self.c0!r}, {self.c1!r})"

    def to_bytes(self) -> bytes:
        """Canonical 384-byte encoding (12 base-field coefficients)."""
        out = bytearray()
        for coeff in self.w_coefficients():
            out += coeff.c0.to_bytes(32, "big")
            out += coeff.c1.to_bytes(32, "big")
        return bytes(out)


_FQ12_ONE = Fq12.one()


B_G2 = Fq2(3, 0) * XI.inverse()


def _jacobian_double_fq2(X1: Fq2, Y1: Fq2, Z1: Fq2) -> tuple[Fq2, Fq2, Fq2]:
    """One Jacobian doubling on the twist (dbl-2009-l, a = 0) over Fq2."""
    A = X1.square()
    B = Y1.square()
    C = B.square()
    D = ((X1 + B).square() - A - C) * 2
    E = A * 3
    X3 = E.square() - D * 2
    Y3 = E * (D - X3) - C * 8
    return X3, Y3, Y1 * Z1 * 2


class G2Point:
    """Affine point on the sextic twist G2 (or the point at infinity)."""

    __slots__ = ("x", "y", "infinity")

    def __init__(self, x: Fq2 | None = None, y: Fq2 | None = None, infinity: bool = False) -> None:
        self.x = x if x is not None else Fq2.zero()
        self.y = y if y is not None else Fq2.zero()
        self.infinity = infinity

    @staticmethod
    def identity() -> "G2Point":
        return G2Point(infinity=True)

    def is_identity(self) -> bool:
        return self.infinity

    def is_on_curve(self) -> bool:
        if self.infinity:
            return True
        return self.y.square() == self.x.square() * self.x + B_G2

    def __eq__(self, other) -> bool:
        if not isinstance(other, G2Point):
            return NotImplemented
        if self.infinity or other.infinity:
            return self.infinity == other.infinity
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.infinity))

    def __repr__(self) -> str:
        if self.infinity:
            return "G2Point(infinity)"
        return f"G2Point({self.x!r}, {self.y!r})"

    def __neg__(self) -> "G2Point":
        if self.infinity:
            return self
        return G2Point(self.x, -self.y)

    def __add__(self, other: "G2Point") -> "G2Point":
        if self.infinity:
            return other
        if other.infinity:
            return self
        if self.x == other.x:
            if (self.y + other.y).is_zero():
                return G2Point.identity()
            return self.double()
        slope = (other.y - self.y) * (other.x - self.x).inverse()
        x3 = slope.square() - self.x - other.x
        y3 = slope * (self.x - x3) - self.y
        return G2Point(x3, y3)

    def __sub__(self, other: "G2Point") -> "G2Point":
        return self + (-other)

    def double(self) -> "G2Point":
        if self.infinity or self.y.is_zero():
            return G2Point.identity()
        slope = (self.x.square() * 3) * (self.y * 2).inverse()
        x3 = slope.square() - self.x - self.x
        y3 = slope * (self.x - x3) - self.y
        return G2Point(x3, y3)

    def scalar_mul(self, scalar: int) -> "G2Point":
        """Scalar multiplication in Jacobian coordinates over Fq2.

        Same shape as :meth:`G1Point.scalar_mul`: one field inversion at
        the end instead of one per double/add.
        """
        scalar %= CURVE_ORDER
        if scalar == 0 or self.infinity:
            return G2Point.identity()
        X1 = Y1 = Z1 = None  # identity (Z = None)
        x2, y2 = self.x, self.y
        for bit in bin(scalar)[2:]:
            if Z1 is not None:
                X1, Y1, Z1 = _jacobian_double_fq2(X1, Y1, Z1)
            if bit == "1":
                if Z1 is None:
                    X1, Y1, Z1 = x2, y2, Fq2.one()
                    continue
                Z1Z1 = Z1.square()
                U2 = x2 * Z1Z1
                S2 = y2 * Z1 * Z1Z1
                H = U2 - X1
                r = (S2 - Y1) * 2
                if H.is_zero():
                    if r.is_zero():
                        X1, Y1, Z1 = _jacobian_double_fq2(X1, Y1, Z1)
                    else:
                        X1 = Y1 = Z1 = None
                    continue
                HH = H.square()
                I = HH * 4
                J = H * I
                V = X1 * I
                X3 = r.square() - J - V * 2
                Y3 = r * (V - X3) - Y1 * J * 2
                Z3 = (Z1 + H).square() - Z1Z1 - HH
                X1, Y1, Z1 = X3, Y3, Z3
        if Z1 is None or Z1.is_zero():
            return G2Point.identity()
        z_inv = Z1.inverse()
        z_inv2 = z_inv.square()
        return G2Point(X1 * z_inv2, Y1 * z_inv2 * z_inv)

    def mul_unreduced(self, scalar: int) -> "G2Point":
        """Affine double-and-add with the scalar taken as given (not mod r)."""
        result = G2Point.identity()
        for bit in bin(scalar)[2:]:
            result = result.double()
            if bit == "1":
                result = result + self
        return result


G2_GENERATOR = G2Point(
    Fq2(
        10857046999023057135944570762232829481370756359578518086990519993285655852781,
        11559732032986387107991004021392285783925812861821192530917403151452391805634,
    ),
    Fq2(
        8495653923123431417604973247489272438418190587263600148770280649306958101930,
        4082367875863433681332203403145435568316851327593401208105741076214120093531,
    ),
)



# Frobenius twist constants: applying the p-power Frobenius to an untwisted
# point psi(x, y) = (x w^2, y w^3) keeps it in twisted form with
# x -> conj(x) * gamma1^2 and y -> conj(y) * gamma1^3, gamma1 = xi^((p-1)/6).
_GAMMA1 = XI.pow((_P - 1) // 6)
_TWIST_FROB_X = _GAMMA1.square()
_TWIST_FROB_Y = _GAMMA1.square() * _GAMMA1


def _frobenius_g2(point: G2Point) -> G2Point:
    """The p-power Frobenius endomorphism expressed on twist coordinates."""
    if point.is_identity():
        return point
    return G2Point(
        point.x.conjugate() * _TWIST_FROB_X,
        point.y.conjugate() * _TWIST_FROB_Y,
    )


def _line_step(f: Fq12, r: G2Point, q: G2Point, p: G1Point) -> tuple[Fq12, G2Point]:
    """Multiply ``f`` by the line through R and Q (untwisted) evaluated at P.

    Returns the product and the new point R + Q in twist coordinates.
    Handles the doubling case (R == Q) and the vertical line (R == -Q).
    """
    xr, yr = r.x, r.y
    xq, yq = q.x, q.y
    xp, yp = p.x, p.y

    if r.is_identity() or q.is_identity():
        raise CryptoError("line function called with the point at infinity")

    if xr == xq and (yr + yq).is_zero():
        # Vertical line x - xr = 0 evaluated at psi-untwisted coordinates:
        # value = xp - xr * w^2.  Never taken for points of order r.
        line = Fq12(Fq6(Fq2(xp, 0), -xr, Fq2.zero()), Fq6.zero())
        return f * line, r + q

    if xr == xq and yr == yq:
        slope = (xr.square() * 3) * (yr * 2).inverse()
    else:
        slope = (yq - yr) * (xq - xr).inverse()

    # Line through psi(R) with slope slope*w, evaluated at P = (xp, yp):
    #   l = yp - slope*xp*w + (slope*xr - yr)*w^3
    f = f.mul_by_line(yp, -(slope * xp), slope * xr - yr)

    x_new = slope.square() - xr - xq
    y_new = slope * (xr - x_new) - yr
    return f, G2Point(x_new, y_new)


# --------------------------------------------------------------------------- #
# BN254 G1: the binary Jacobian ladder
# --------------------------------------------------------------------------- #
# ``_jacobian_scalar_mul`` is the G1 ladder ``src/repro/crypto/bn254/curve.py``
# ran up to commit c199fcc, moved here unchanged when ``G1Point.scalar_mul``
# became a GLV chain over signed windows; ``_jacobian_double`` is a copy of the
# doubling it calls, which the source still uses.  One scalar bit at a time,
# on any curve ``y^2 = x^3 + b`` (nothing in it depends on b), so it is the
# oracle for the endomorphism too.
def _jacobian_double(X1: int, Y1: int, Z1: int) -> tuple[int, int, int]:
    """One Jacobian doubling on ``y^2 = x^3 + b`` (dbl-2009-l, a = 0)."""
    A = X1 * X1 % _P
    B = Y1 * Y1 % _P
    C = B * B
    D = 2 * ((X1 + B) * (X1 + B) - A - C)
    E = 3 * A
    X3 = (E * E - 2 * D) % _P
    return X3, (E * (D - X3) - 8 * C) % _P, 2 * Y1 * Z1 % _P


def _jacobian_scalar_mul(x2: int, y2: int, scalar: int) -> tuple[int, int, int]:
    """MSB-first double-and-add over Jacobian coordinates.

    ``(x2, y2)`` is the affine base point; returns the Jacobian result
    (``Z = 0`` encodes the identity).  Mixed additions are madd-2007-bl.
    """
    X1 = Y1 = Z1 = 0
    for bit in bin(scalar)[2:]:
        if Z1:
            X1, Y1, Z1 = _jacobian_double(X1, Y1, Z1)
        if bit == "1":
            if not Z1:
                X1, Y1, Z1 = x2, y2, 1
                continue
            Z1Z1 = Z1 * Z1 % _P
            H = (x2 * Z1Z1 - X1) % _P
            r = 2 * (y2 * Z1 * Z1Z1 - Y1) % _P
            if H == 0:
                if r == 0:  # adding the accumulator to itself
                    X1, Y1, Z1 = _jacobian_double(X1, Y1, Z1)
                else:  # P + (-P)
                    X1 = Y1 = Z1 = 0
                continue
            I = 4 * H * H % _P
            J = H * I
            V = X1 * I
            X3 = (r * r - J - 2 * V) % _P
            X1, Y1, Z1 = X3, (r * (V - X3) - 2 * Y1 * J) % _P, 2 * Z1 * H % _P
    return X1, Y1, Z1
