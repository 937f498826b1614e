"""Group operations on BN254 G1 and G2 (affine coordinates).

G1 is the curve ``y^2 = x^3 + 3`` over Fq; G2 is the sextic twist
``y^2 = x^3 + 3/xi`` over Fq2.  Points are immutable affine values with an
explicit point at infinity.  The module also provides canonical
serialization (uncompressed, fixed width; a decoded G2 point is checked to
lie in the order-r subgroup), a hash-and-increment map from byte strings to
G1 used by both the IBE identity hash H1 and BLS message hashing, and a
fixed-base table for multiples of the G2 generator.

The affine group laws are the readable reference.  Scalar multiplication
runs on Jacobian coordinates held as plain ints (pairs of ints on the
twist), reducing once per coordinate a step produces rather than after
every product -- see :mod:`repro.crypto.bn254.field`.  Scalars are recoded
into signed windows (:func:`_signed_digits`) and added from a small table of
odd multiples: on G1 the scalar is first split in two halves of half the
length by the GLV endomorphism ``(x, y) -> (beta x, y)``, so one chain of
~127 doublings serves both.  None of it is constant-time.
"""

from __future__ import annotations

import hashlib
import threading

from repro.crypto.bn254.field import (
    BN_PARAMETER_T,
    CURVE_ORDER,
    FIELD_MODULUS,
    FROBENIUS_TABLES,
    Fq2,
    XI,
    fq2_inverse,
    fq2_mul,
    fq2_square,
    fq_inv,
    fq_sqrt,
)
from repro.errors import CryptoError

_P = FIELD_MODULUS

# Curve coefficients: b for G1, b' = b / xi for the D-type twist G2.
B_G1 = 3
B_G2 = Fq2(3, 0) * XI.inverse()

G1_ENCODED_SIZE = 64
G2_ENCODED_SIZE = 128


def _jacobian_double(X1: int, Y1: int, Z1: int) -> tuple[int, int, int]:
    """One Jacobian doubling on ``y^2 = x^3 + b`` (dbl-2009-l, a = 0)."""
    A = X1 * X1 % _P
    B = Y1 * Y1 % _P
    C = B * B
    D = 2 * ((X1 + B) * (X1 + B) - A - C)
    E = 3 * A
    X3 = (E * E - 2 * D) % _P
    return X3, (E * (D - X3) - 8 * C) % _P, 2 * Y1 * Z1 % _P


def _jacobian_add_affine(X1: int, Y1: int, Z1: int, x2: int, y2: int) -> tuple[int, int, int]:
    """Jacobian ``(X1, Y1, Z1)`` + affine ``(x2, y2)`` on G1 (madd-2007-bl).

    ``Z = 0`` is the identity, on the way in and (for ``P + (-P)``) out.
    """
    if not Z1:
        return x2, y2, 1
    Z1Z1 = Z1 * Z1 % _P
    H = (x2 * Z1Z1 - X1) % _P
    r = 2 * (y2 * Z1 * Z1Z1 - Y1) % _P
    if H == 0:
        if r == 0:  # adding the accumulator to itself
            return _jacobian_double(X1, Y1, Z1)
        return 0, 0, 0  # P + (-P)
    I = 4 * H * H % _P
    J = H * I
    V = X1 * I
    X3 = (r * r - J - 2 * V) % _P
    return X3, (r * (V - X3) - 2 * Y1 * J) % _P, 2 * Z1 * H % _P


def _signed_digits(value: int, width: int) -> list[int]:
    """The width-``width`` NAF of ``value``, most significant digit first.

    Every nonzero digit is odd and below ``2**(width - 1)`` in absolute
    value, and at least ``width - 1`` zeros follow it, so a chain over the
    digits adds about once per ``width + 1`` doublings from a table of the
    odd multiples ``1, 3, .., 2**(width - 1) - 1`` of its base.  A negative
    digit costs what a positive one does (negating a point, or conjugating a
    cyclotomic element, is free).  ``value`` may be negative: its digits are
    those of ``-value``, negated.
    """
    half = 1 << (width - 1)
    digits = []
    while value:
        zeros = (value & -value).bit_length() - 1
        digits += [0] * zeros
        value >>= zeros
        digit = value & (2 * half - 1)
        if digit > half:
            digit -= 2 * half
        digits.append(digit)
        value = (value - digit) >> 1
    digits.reverse()
    return digits


# The GLV endomorphism of G1: phi(x, y) = (beta x, y) with beta a primitive
# cube root of unity mod p acts on G1 as multiplication by lambda, a cube root
# of unity mod r.  The two vectors below span the lattice of pairs (a, b) with
# a + b lambda = 0 (mod r), and are short (~2^127): the standard BN basis,
# polynomials in t whose determinant is r(t).
_GLV_BETA = 0x30644E72E131A0295E6DD9E7E0ACCCB0C28F069FBB966E3DE4BD44E5607CFD48
_GLV_LAMBDA = 0x30644E72E131A029048B6E193FD84104CC37A73FEC2BC5E9B8CA0B2D36636F23
_GLV_BASIS = (
    (6 * BN_PARAMETER_T**2 + 2 * BN_PARAMETER_T, -(2 * BN_PARAMETER_T + 1)),
    (2 * BN_PARAMETER_T + 1, 6 * BN_PARAMETER_T**2 + 4 * BN_PARAMETER_T + 1),
)
assert pow(_GLV_BETA, 3, _P) == 1 and _GLV_BETA != 1
assert (_GLV_LAMBDA * _GLV_LAMBDA + _GLV_LAMBDA + 1) % CURVE_ORDER == 0
assert all((a + b * _GLV_LAMBDA) % CURVE_ORDER == 0 for a, b in _GLV_BASIS)


def _glv_split(scalar: int) -> tuple[int, int]:
    """``(k1, k2)`` with ``k1 + k2 lambda = scalar (mod r)``, each below 2^127
    in absolute value.

    Babai rounding: write ``(scalar, 0)`` in the basis over the rationals,
    round both coordinates to the nearest integer, and subtract that lattice
    vector; what is left lies within half the sum of the basis vectors.
    """
    (a1, b1), (a2, b2) = _GLV_BASIS
    c1 = (2 * scalar * b2 + CURVE_ORDER) // (2 * CURVE_ORDER)
    c2 = (-2 * scalar * b1 + CURVE_ORDER) // (2 * CURVE_ORDER)
    return scalar - c1 * a1 - c2 * a2, -c1 * b1 - c2 * b2


def _odd_multiples(x: int, y: int) -> list[tuple[int, int]]:
    """``P, 3P, 5P, .., 15P`` as affine pairs, for a point ``P = (x, y)`` of G1.

    ``2P = (X, Y, Z)`` is computed in Jacobian coordinates.  On the
    isomorphic curve ``y^2 = x^3 + b Z^6``, reached by ``(u, v) -> (u Z^2,
    v Z^3)``, ``2P`` is the affine ``(X, Y)`` (the addition formulas do not
    involve b), so each odd multiple is one mixed addition from the one
    before, and a Jacobian ``(X', Y', Z')`` there is ``(X', Y', Z' Z)`` here.
    Montgomery's trick then brings all seven to affine with one inversion.
    """
    X2, Y2, Z2 = _jacobian_double(x, y, 1)
    zz = Z2 * Z2 % _P
    point = (x * zz % _P, y * zz * Z2 % _P, 1)
    points, zs, prefix = [], [], [1]
    for _ in range(7):
        point = _jacobian_add_affine(*point, X2, Y2)
        z = point[2] * Z2 % _P
        points.append(point)
        zs.append(z)
        prefix.append(prefix[-1] * z % _P)
    inverse = fq_inv(prefix[-1])
    multiples = [None] * 7
    for i in range(6, -1, -1):
        z_inv = inverse * prefix[i] % _P
        inverse = inverse * zs[i] % _P
        z_inv2 = z_inv * z_inv % _P
        X, Y, _ = points[i]
        multiples[i] = (X * z_inv2 % _P, Y * z_inv2 * z_inv % _P)
    return [(x, y), *multiples]


def _decode_coordinates(data: bytes) -> list[int]:
    """Split an encoding into 32-byte big-endian Fq coordinates.

    Only the canonical representative of each coordinate is accepted:
    ``x`` and ``x + p`` both fit in 32 bytes, and decoding both to the same
    point would make every signature and IBE header malleable.
    """
    coordinates = [int.from_bytes(data[i : i + 32], "big") for i in range(0, len(data), 32)]
    if any(coordinate >= _P for coordinate in coordinates):
        raise CryptoError("non-canonical field element in point encoding")
    return coordinates


class G1Point:
    """Affine point on G1 (or the point at infinity)."""

    __slots__ = ("x", "y", "infinity")

    def __init__(self, x: int = 0, y: int = 0, infinity: bool = False) -> None:
        self.x = x % _P
        self.y = y % _P
        self.infinity = infinity

    # -- constructors -------------------------------------------------
    @staticmethod
    def identity() -> "G1Point":
        return G1Point(infinity=True)

    # -- predicates ---------------------------------------------------
    def is_identity(self) -> bool:
        return self.infinity

    def is_on_curve(self) -> bool:
        if self.infinity:
            return True
        return (self.y * self.y - (self.x**3 + B_G1)) % _P == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, G1Point):
            return NotImplemented
        if self.infinity or other.infinity:
            return self.infinity == other.infinity
        return self.x == other.x and self.y == other.y

    # -- group law ----------------------------------------------------
    def __add__(self, other: "G1Point") -> "G1Point":
        if self.infinity:
            return other
        if other.infinity:
            return self
        if self.x == other.x:
            if (self.y + other.y) % _P == 0:
                return G1Point.identity()
            return self.double()
        slope = (other.y - self.y) * fq_inv(other.x - self.x) % _P
        x3 = (slope * slope - self.x - other.x) % _P
        y3 = (slope * (self.x - x3) - self.y) % _P
        return G1Point(x3, y3)

    def double(self) -> "G1Point":
        if self.infinity or self.y == 0:
            return G1Point.identity()
        slope = 3 * self.x * self.x * fq_inv(2 * self.y) % _P
        x3 = (slope * slope - 2 * self.x) % _P
        y3 = (slope * (self.x - x3) - self.y) % _P
        return G1Point(x3, y3)

    def scalar_mul(self, scalar: int) -> "G1Point":
        """Scalar multiplication by the GLV method, in Jacobian coordinates.

        The scalar is split as ``k1 + k2 lambda`` (:func:`_glv_split`) with
        halves of ~127 bits, and ``[k1]P + [k2]phi(P)`` runs as one doubling
        chain over the interleaved width-5 NAFs of the halves.  Each nonzero
        digit is one mixed addition from the affine odd multiples of P
        (:func:`_odd_multiples`), or of ``phi(P)``, which are the same points
        with x times beta.  A negative digit flips y, and a negative half
        recodes to negative digits.  One inversion builds the table and one
        leaves Jacobian coordinates.  Not constant-time.

        ``phi(P) = [lambda]P`` holds only on the curve ``y^2 = x^3 + 3``, so a
        point off it is refused rather than multiplied on some other curve.
        """
        scalar %= CURVE_ORDER
        if scalar == 0 or self.infinity:
            return G1Point.identity()
        if not self.is_on_curve():
            raise CryptoError("scalar multiplication of a point not on G1")
        # table[d] is dP and phi_table[d] is d phi(P), for odd d in [-15, 15]:
        # a negative d indexes from the end.
        table = [None] * 32
        phi_table = [None] * 32
        for digit, (x, y) in zip(range(1, 16, 2), _odd_multiples(self.x, self.y)):
            beta_x = x * _GLV_BETA % _P
            table[digit], table[-digit] = (x, y), (x, _P - y)
            phi_table[digit], phi_table[-digit] = (beta_x, y), (beta_x, _P - y)
        k1, k2 = _glv_split(scalar)
        digits1 = _signed_digits(k1, 5)
        digits2 = _signed_digits(k2, 5)
        length = max(len(digits1), len(digits2))
        digits1 = [0] * (length - len(digits1)) + digits1
        digits2 = [0] * (length - len(digits2)) + digits2
        X = Y = Z = 0
        for digit1, digit2 in zip(digits1, digits2):
            if Z:
                X, Y, Z = _jacobian_double(X, Y, Z)
            if digit1:
                X, Y, Z = _jacobian_add_affine(X, Y, Z, *table[digit1])
            if digit2:
                X, Y, Z = _jacobian_add_affine(X, Y, Z, *phi_table[digit2])
        if not Z:
            return G1Point.identity()
        z_inv = fq_inv(Z)
        z_inv2 = z_inv * z_inv % _P
        return G1Point(X * z_inv2 % _P, Y * z_inv2 * z_inv % _P)

    __mul__ = scalar_mul
    __rmul__ = scalar_mul

    # -- serialization ------------------------------------------------
    def to_bytes(self) -> bytes:
        """Uncompressed 64-byte encoding; the identity encodes as all zeros."""
        if self.infinity:
            return b"\x00" * G1_ENCODED_SIZE
        return self.x.to_bytes(32, "big") + self.y.to_bytes(32, "big")

    @staticmethod
    def from_bytes(data: bytes) -> "G1Point":
        if len(data) != G1_ENCODED_SIZE:
            raise CryptoError(f"G1 encoding must be {G1_ENCODED_SIZE} bytes")
        if data == b"\x00" * G1_ENCODED_SIZE:
            return G1Point.identity()
        x, y = _decode_coordinates(data)
        point = G1Point(x, y)
        if not point.is_on_curve():
            raise CryptoError("decoded G1 point is not on the curve")
        return point


def _jacobian_double_fq2(point):
    """One Jacobian doubling on the twist (dbl-2009-l, a = 0) over Fq2.

    ``point`` is ``(X, Y, Z)`` as six ints; so is the result.
    """
    X0, X1, Y0, Y1, Z0, Z1 = point
    A0 = (X0 - X1) * (X0 + X1) % _P
    A1 = 2 * X0 * X1 % _P
    B0 = (Y0 - Y1) * (Y0 + Y1) % _P
    B1 = 2 * Y0 * Y1 % _P
    C0 = (B0 - B1) * (B0 + B1)
    C1 = 2 * B0 * B1
    # D = 2 ((X + B)^2 - A - C), E = 3 A
    t0 = X0 + B0
    t1 = X1 + B1
    D0 = 2 * ((t0 - t1) * (t0 + t1) - A0 - C0)
    D1 = 2 * (2 * t0 * t1 - A1 - C1)
    E0 = 3 * A0
    E1 = 3 * A1
    # X3 = E^2 - 2 D, Y3 = E (D - X3) - 8 C, Z3 = 2 Y Z
    X30 = ((E0 - E1) * (E0 + E1) - 2 * D0) % _P
    X31 = (2 * E0 * E1 - 2 * D1) % _P
    t0 = D0 - X30
    t1 = D1 - X31
    m = E0 * t0
    n = E1 * t1
    Y30 = (m - n - 8 * C0) % _P
    Y31 = ((E0 + E1) * (t0 + t1) - m - n - 8 * C1) % _P
    m = Y0 * Z0
    n = Y1 * Z1
    return X30, X31, Y30, Y31, 2 * (m - n) % _P, 2 * ((Y0 + Y1) * (Z0 + Z1) - m - n) % _P


def _jacobian_add_affine_fq2(point, base):
    """Jacobian ``point`` + affine ``base = (x, y)`` on the twist (madd-2007-bl).

    ``None`` is the identity, on the way in and (for ``P + (-P)``) out.
    """
    x0, x1, y0, y1 = base
    if point is None:
        return x0, x1, y0, y1, 1, 0
    X0, X1, Y0, Y1, Z0, Z1 = point
    ZZ0 = (Z0 - Z1) * (Z0 + Z1) % _P
    ZZ1 = 2 * Z0 * Z1 % _P
    # H = x Z^2 - X
    m = x0 * ZZ0
    n = x1 * ZZ1
    H0 = (m - n - X0) % _P
    H1 = ((x0 + x1) * (ZZ0 + ZZ1) - m - n - X1) % _P
    # r = 2 (y Z^3 - Y)
    m = Z0 * ZZ0
    n = Z1 * ZZ1
    t0 = (m - n) % _P
    t1 = ((Z0 + Z1) * (ZZ0 + ZZ1) - m - n) % _P
    m = y0 * t0
    n = y1 * t1
    r0 = 2 * (m - n - Y0) % _P
    r1 = 2 * ((y0 + y1) * (t0 + t1) - m - n - Y1) % _P
    if H0 == 0 and H1 == 0:
        if r0 == 0 and r1 == 0:  # adding the accumulator to itself
            return _jacobian_double_fq2(point)
        return None  # P + (-P)
    # I = 4 H^2, J = H I, V = X I
    I0 = 4 * (H0 - H1) * (H0 + H1) % _P
    I1 = 8 * H0 * H1 % _P
    m = H0 * I0
    n = H1 * I1
    J0 = m - n
    J1 = (H0 + H1) * (I0 + I1) - m - n
    m = X0 * I0
    n = X1 * I1
    V0 = m - n
    V1 = (X0 + X1) * (I0 + I1) - m - n
    # X3 = r^2 - J - 2 V, Y3 = r (V - X3) - 2 Y J, Z3 = 2 Z H
    X30 = ((r0 - r1) * (r0 + r1) - J0 - 2 * V0) % _P
    X31 = (2 * r0 * r1 - J1 - 2 * V1) % _P
    t0 = V0 - X30
    t1 = V1 - X31
    m = r0 * t0
    n = r1 * t1
    k = Y0 * J0
    l = Y1 * J1
    Y30 = (m - n - 2 * (k - l)) % _P
    Y31 = ((r0 + r1) * (t0 + t1) - m - n - 2 * ((Y0 + Y1) * (J0 + J1) - k - l)) % _P
    m = Z0 * H0
    n = Z1 * H1
    return X30, X31, Y30, Y31, 2 * (m - n) % _P, 2 * ((Z0 + Z1) * (H0 + H1) - m - n) % _P


def _odd_multiples_fq2(base):
    """``Q, 3Q, 5Q, 7Q`` as affine four-int tuples, for ``Q = base`` on the
    twist: :func:`_odd_multiples` over Fq2, with one Fq2 inversion."""
    x0, x1, y0, y1 = base
    X0, X1, Y0, Y1, Z0, Z1 = _jacobian_double_fq2((*base, 1, 0))
    zz = fq2_square(Z0, Z1)
    point = (*fq2_mul(x0, x1, *zz), *fq2_mul(y0, y1, *fq2_mul(*zz, Z0, Z1)), 1, 0)
    points, zs, prefix = [], [], [(1, 0)]
    for _ in range(3):
        point = _jacobian_add_affine_fq2(point, (X0, X1, Y0, Y1))
        z = fq2_mul(point[4], point[5], Z0, Z1)
        points.append(point)
        zs.append(z)
        prefix.append(fq2_mul(*prefix[-1], *z))
    inverse = fq2_inverse(*prefix[-1])
    multiples = [None] * 3
    for i in range(2, -1, -1):
        z_inv = fq2_mul(*inverse, *prefix[i])
        inverse = fq2_mul(*inverse, *zs[i])
        z_inv2 = fq2_square(*z_inv)
        X0, X1, Y0, Y1, _, _ = points[i]
        multiples[i] = (*fq2_mul(X0, X1, *z_inv2), *fq2_mul(Y0, Y1, *fq2_mul(*z_inv2, *z_inv)))
    return [base, *multiples]


def frobenius_twist(x0: int, x1: int, y0: int, y1: int) -> tuple[int, int, int, int]:
    """The p-power Frobenius endomorphism expressed on twist coordinates.

    Applying the Frobenius to an untwisted point psi(x, y) = (x w^2, y w^3)
    keeps it in twisted form with x -> conj(x) * gamma1^2 and
    y -> conj(y) * gamma1^3, gamma1 = xi^((p-1)/6).
    """
    table = FROBENIUS_TABLES[1]
    return (*fq2_mul(x0, -x1, *table[2]), *fq2_mul(y0, -y1, *table[3]))


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

    @staticmethod
    def _from_jacobian(point) -> "G2Point":
        if point is None:
            return G2Point.identity()
        X0, X1, Y0, Y1, Z0, Z1 = point
        if Z0 == 0 and Z1 == 0:
            return G2Point.identity()
        z_inv = Fq2(Z0, Z1).inverse()
        z_inv2 = z_inv.square()
        return G2Point(Fq2(X0, X1) * z_inv2, Fq2(Y0, Y1) * z_inv2 * z_inv)

    def _coordinates(self) -> tuple[int, int, int, int]:
        return self.x.c0, self.x.c1, self.y.c0, self.y.c1

    def is_identity(self) -> bool:
        return self.infinity

    def is_on_curve(self) -> bool:
        if self.infinity:
            return True
        return self.y.square() == self.x.square() * self.x + B_G2

    def is_in_subgroup(self) -> bool:
        """Whether an on-curve point has order dividing r.

        The twist has ``r * (2p - r)`` points and the cofactor has a prime
        factor as small as 10069, so the curve equation alone does not put a
        decoded point in G2 (and a pairing against an off-subgroup header
        would be a small-subgroup oracle on the identity key).  On G2 the endomorphism ``psi`` (:func:`frobenius_twist`)
        acts as multiplication by p, and for a BN curve
        ``(t + 1) + t p + t p^2 - 2t p^3 = 0 (mod r)``; the test

            ``[t+1]Q + psi([t]Q) + psi^2([t]Q) == psi^3([2t]Q)``

        therefore holds on G2, and holds nowhere else on the curve because
        the resultant of that polynomial with psi's characteristic
        polynomial is coprime to the cofactor (``tests/test_bn254_kernels.py``
        checks both).  It costs one multiplication by the 63-bit ``t``
        instead of one by the 254-bit ``r``.
        """
        if self.infinity:
            return True
        t_q = self.scalar_mul(BN_PARAMETER_T)
        psi1 = t_q._frobenius()
        psi2 = psi1._frobenius()
        psi3 = psi2._frobenius()
        return (t_q + self) + psi1 + psi2 == psi3.double()

    def _frobenius(self) -> "G2Point":
        if self.infinity:
            return self
        x0, x1, y0, y1 = frobenius_twist(*self._coordinates())
        return G2Point(Fq2(x0, x1), Fq2(y0, y1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, G2Point):
            return NotImplemented
        if self.infinity or other.infinity:
            return self.infinity == other.infinity
        return self.x == other.x and self.y == other.y

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

    def double(self) -> "G2Point":
        if self.infinity or self.y.is_zero():
            return G2Point.identity()
        x_squared = self.x.square()
        slope = (x_squared + x_squared + x_squared) * (self.y + self.y).inverse()
        x3 = slope.square() - self.x - self.x
        y3 = slope * (self.x - x3) - self.y
        return G2Point(x3, y3)

    def scalar_mul(self, scalar: int) -> "G2Point":
        """Scalar multiplication in Jacobian coordinates over Fq2.

        One doubling chain over the width-4 NAF of the scalar, each nonzero
        digit a mixed addition of ``+-Q``, ``+-3Q``, ``+-5Q`` or ``+-7Q``
        (:func:`_odd_multiples_fq2`), and one field inversion at the end.
        It is a correct group law on the whole twist, not only on G2, which
        the subgroup check relies on.  Not constant-time.  This is the
        variable-base routine; multiples of the generator go through
        :func:`g2_generator_mul`.
        """
        scalar %= CURVE_ORDER
        if scalar == 0 or self.infinity:
            return G2Point.identity()
        # table[d] is dQ for odd d in [-7, 7]; a negative d indexes from the end.
        table = [None] * 16
        for digit, (x0, x1, y0, y1) in zip((1, 3, 5, 7), _odd_multiples_fq2(self._coordinates())):
            table[digit], table[-digit] = (x0, x1, y0, y1), (x0, x1, -y0 % _P, -y1 % _P)
        accumulator = None
        for digit in _signed_digits(scalar, 4):
            if accumulator is not None:
                accumulator = _jacobian_double_fq2(accumulator)
            if digit:
                accumulator = _jacobian_add_affine_fq2(accumulator, table[digit])
        return G2Point._from_jacobian(accumulator)

    __mul__ = scalar_mul
    __rmul__ = scalar_mul

    def to_bytes(self) -> bytes:
        """Uncompressed 128-byte encoding; the identity encodes as all zeros."""
        if self.infinity:
            return b"\x00" * G2_ENCODED_SIZE
        return b"".join(c.to_bytes(32, "big") for c in self._coordinates())

    @staticmethod
    def from_bytes(data: bytes) -> "G2Point":
        """Decode a point of G2: canonical coordinates, on the curve, and in
        the order-r subgroup (anything else raises :class:`CryptoError`)."""
        if len(data) != G2_ENCODED_SIZE:
            raise CryptoError(f"G2 encoding must be {G2_ENCODED_SIZE} bytes")
        if data == b"\x00" * G2_ENCODED_SIZE:
            return G2Point.identity()
        x0, x1, y0, y1 = _decode_coordinates(data)
        point = G2Point(Fq2(x0, x1), Fq2(y0, y1))
        if not point.is_on_curve():
            raise CryptoError("decoded G2 point is not on the curve")
        if not point.is_in_subgroup():
            raise CryptoError("decoded G2 point is not in the order-r subgroup")
        return point


# Standard generators (alt_bn128 / EIP-197 values).
_G1_GENERATOR = G1Point(1, 2)
_G2_GENERATOR = G2Point(
    Fq2(
        10857046999023057135944570762232829481370756359578518086990519993285655852781,
        11559732032986387107991004021392285783925812861821192530917403151452391805634,
    ),
    Fq2(
        8495653923123431417604973247489272438418190587263600148770280649306958101930,
        4082367875863433681332203403145435568316851327593401208105741076214120093531,
    ),
)


def g1_generator() -> G1Point:
    """The standard generator of G1."""
    return _G1_GENERATOR


def g2_generator() -> G2Point:
    """The standard generator of G2."""
    return _G2_GENERATOR


# Fixed-base table for the G2 generator: 64 windows of 4 bits cover every
# scalar below 2^256.  Public constants only (multiples of P2, ~0.3 MB of
# ints); built on first use, never at import, because most processes that
# import this package (every scenario, every mix worker) never touch G2.
_G2_WINDOWS = 64
_g2_generator_table = None
_g2_generator_table_lock = threading.Lock()


def _build_g2_generator_table():
    """``table[w][j-1]`` is ``j * 16**w * P2`` as affine ``(x0, x1, y0, y1)``."""
    rows = []
    base = _G2_GENERATOR
    for _ in range(_G2_WINDOWS):
        row = [base]
        for _ in range(14):
            row.append(row[-1] + base)
        rows.append(tuple(point._coordinates() for point in row))
        base = row[-1] + base
    return tuple(rows)


def g2_generator_mul(scalar: int) -> G2Point:
    """``scalar * P2`` from the fixed-base table: one mixed addition per
    nonzero 4-bit digit and no doublings.

    Every G2 multiplication the protocols make is of the generator (BLS and
    IBE master public keys, the IBE header ``U = r * P2``).  Like
    :meth:`G2Point.scalar_mul` this is *not* constant-time: zero digits are
    skipped and the table rows are indexed by nibbles of the (secret) scalar.
    """
    global _g2_generator_table
    table = _g2_generator_table
    if table is None:
        with _g2_generator_table_lock:
            if _g2_generator_table is None:
                _g2_generator_table = _build_g2_generator_table()
            table = _g2_generator_table
    scalar %= CURVE_ORDER
    accumulator = None
    for row in table:
        digit = scalar & 15
        scalar >>= 4
        if digit:
            accumulator = _jacobian_add_affine_fq2(accumulator, row[digit - 1])
    return G2Point._from_jacobian(accumulator)


def hash_to_g1(message: bytes, domain: bytes = b"repro/bn254/hash-to-g1") -> G1Point:
    """Map an arbitrary byte string to a G1 point (hash-and-increment).

    This is the H1 hash of Boneh-Franklin IBE (identities to curve points)
    and the message hash of BLS signatures.  Hash-and-increment is not
    constant-time, which is acceptable here because inputs (email addresses,
    signed statements) are not secret.
    """
    counter = 0
    while True:
        digest = hashlib.sha256(
            domain + b"|" + counter.to_bytes(4, "big") + b"|" + message
        ).digest()
        x = int.from_bytes(digest, "big") % _P
        y_squared = (x**3 + B_G1) % _P
        y = fq_sqrt(y_squared)
        if y is not None:
            # Pick the root deterministically from one more hash bit so the
            # map does not depend on which root fq_sqrt returns.
            parity_bit = hashlib.sha256(b"parity|" + digest).digest()[0] & 1
            if y & 1 != parity_bit:
                y = _P - y
            point = G1Point(x, y)
            # Cofactor of G1 is 1, so any curve point is in the right group.
            return point
        counter += 1
