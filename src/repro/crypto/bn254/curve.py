"""Group operations on BN254 G1 and G2 (affine coordinates).

G1 is the curve ``y^2 = x^3 + 3`` over Fq; G2 is the sextic twist
``y^2 = x^3 + 3/xi`` over Fq2.  Points are immutable affine values with an
explicit point at infinity.  The module also provides canonical
serialization (uncompressed, fixed width) and a hash-and-increment map from
byte strings to G1 used by both the IBE identity hash H1 and BLS message
hashing.
"""

from __future__ import annotations

import hashlib

from repro.crypto.bn254.field import (
    CURVE_ORDER,
    FIELD_MODULUS,
    Fq2,
    XI,
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
    C = B * B % _P
    D = 2 * ((X1 + B) * (X1 + B) - A - C) % _P
    E = 3 * A % _P
    X3 = (E * E - 2 * D) % _P
    Y3 = (E * (D - X3) - 8 * C) % _P
    return X3, Y3, 2 * Y1 * Z1 % _P


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
            U2 = x2 * Z1Z1 % _P
            S2 = y2 * Z1 * Z1Z1 % _P
            H = (U2 - X1) % _P
            r = 2 * (S2 - Y1) % _P
            if H == 0:
                if r == 0:  # adding the accumulator to itself
                    X1, Y1, Z1 = _jacobian_double(X1, Y1, Z1)
                else:  # P + (-P)
                    X1 = Y1 = Z1 = 0
                continue
            HH = H * H % _P
            I = 4 * HH % _P
            J = H * I % _P
            V = X1 * I % _P
            X3 = (r * r - J - 2 * V) % _P
            Y3 = (r * (V - X3) - 2 * Y1 * J) % _P
            Z3 = ((Z1 + H) * (Z1 + H) - Z1Z1 - HH) % _P
            X1, Y1, Z1 = X3, Y3, Z3
    return X1, Y1, Z1


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

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.infinity))

    def __repr__(self) -> str:
        if self.infinity:
            return "G1Point(infinity)"
        return f"G1Point({self.x}, {self.y})"

    # -- group law ----------------------------------------------------
    def __neg__(self) -> "G1Point":
        if self.infinity:
            return self
        return G1Point(self.x, -self.y)

    def __add__(self, other: "G1Point") -> "G1Point":
        if self.infinity:
            return other
        if other.infinity:
            return self
        if self.x == other.x:
            if (self.y + other.y) % _P == 0:
                return G1Point.identity()
            return self.double()
        slope = (other.y - self.y) * pow(other.x - self.x, _P - 2, _P) % _P
        x3 = (slope * slope - self.x - other.x) % _P
        y3 = (slope * (self.x - x3) - self.y) % _P
        return G1Point(x3, y3)

    def __sub__(self, other: "G1Point") -> "G1Point":
        return self + (-other)

    def double(self) -> "G1Point":
        if self.infinity or self.y == 0:
            return G1Point.identity()
        slope = 3 * self.x * self.x * pow(2 * self.y, _P - 2, _P) % _P
        x3 = (slope * slope - 2 * self.x) % _P
        y3 = (slope * (self.x - x3) - self.y) % _P
        return G1Point(x3, y3)

    def scalar_mul(self, scalar: int) -> "G1Point":
        """Scalar multiplication in Jacobian coordinates.

        Affine double/add pays one modular inversion (a ~256-bit ``pow``)
        per step -- ~500 inversions per multiplication -- which made BLS
        signing the single hottest line of a large scenario.  The Jacobian
        ladder defers to exactly one inversion at the end (~20x faster);
        the affine group law above stays as the readable reference and the
        serialization is untouched.
        """
        scalar %= CURVE_ORDER
        if scalar == 0 or self.infinity:
            return G1Point.identity()
        # MSB-first double-and-add: the accumulator stays Jacobian, the base
        # stays affine so every addition is a cheap mixed addition.
        X1, Y1, Z1 = _jacobian_scalar_mul(self.x, self.y, scalar)
        if not Z1:
            return G1Point.identity()
        z_inv = pow(Z1, _P - 2, _P)
        z_inv2 = z_inv * z_inv % _P
        return G1Point(X1 * z_inv2 % _P, Y1 * z_inv2 * z_inv % _P)

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

    __mul__ = scalar_mul
    __rmul__ = scalar_mul

    def to_bytes(self) -> bytes:
        """Uncompressed 128-byte encoding; the identity encodes as all zeros."""
        if self.infinity:
            return b"\x00" * G2_ENCODED_SIZE
        return (
            self.x.c0.to_bytes(32, "big")
            + self.x.c1.to_bytes(32, "big")
            + self.y.c0.to_bytes(32, "big")
            + self.y.c1.to_bytes(32, "big")
        )

    @staticmethod
    def from_bytes(data: bytes) -> "G2Point":
        if len(data) != G2_ENCODED_SIZE:
            raise CryptoError(f"G2 encoding must be {G2_ENCODED_SIZE} bytes")
        if data == b"\x00" * G2_ENCODED_SIZE:
            return G2Point.identity()
        x0, x1, y0, y1 = _decode_coordinates(data)
        point = G2Point(Fq2(x0, x1), Fq2(y0, y1))
        if not point.is_on_curve():
            raise CryptoError("decoded G2 point is not on the curve")
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


def random_g1_scalar(rng_bytes: bytes) -> int:
    """Reduce 32+ bytes of randomness into a nonzero scalar mod the group order."""
    scalar = int.from_bytes(rng_bytes, "big") % CURVE_ORDER
    if scalar == 0:
        scalar = 1
    return scalar
