"""Extension-field tower for BN254 on flat integers: Fq -> Fq2 -> Fq6 -> Fq12.

The tower follows the standard construction for Barreto-Naehrig curves:

* ``Fq2  = Fq[u]  / (u^2 + 1)``
* ``Fq6  = Fq2[v] / (v^3 - xi)`` with the non-residue ``xi = 9 + u``
* ``Fq12 = Fq6[w] / (w^2 - v)``, i.e. ``Fq2[w] / (w^6 - xi)``

Inside this package a field element is never an object.  An Fq2 element is
a pair of Python ints ``(a0, a1)`` for ``a0 + a1*u``; an Fq6 element is the
6-tuple ``(c0, c1, c2)`` of its Fq2 coefficients over ``v`` laid end to end;
an Fq12 element is the 12-tuple of its six Fq2 coefficients in the basis
``1, w, .., w^5`` (so its ``v``-even half is coefficients 0, 2, 4 and its odd
half coefficients 1, 3, 5, and the tuple is already in wire order).  The
kernels below keep the operation counts of the textbook tower (Karatsuba in
Fq2/Fq6/Fq12, sparse Miller lines, Granger-Scott cyclotomic squaring,
table-driven Frobenius) but accumulate *unreduced* products and sums and
reduce modulo ``p`` once per output coefficient: on CPython a reduction
costs two multiplications and an allocated object far more, and those, not
the multiplications, were most of a pairing.  Every kernel accepts
coefficients of any size and sign and returns canonical ones in ``[0, p)``;
only the ``_raw`` helpers return unreduced values, and only to a kernel.

:class:`Fq2` and :class:`Fq12` are the value types the rest of the repo and
the wire see (G2 coordinates, GT elements).  They always hold canonical
coefficients; ``Fq2`` does its arithmetic through the kernels.  The object tower
these kernels replaced lives on in ``tests/textbook_crypto.py`` as the
oracle they are tested against.  A full pairing takes under 10 ms on
CPython.
"""

from __future__ import annotations

from repro.errors import CryptoError

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


# --------------------------------------------------------------------------- #
# Fq2 kernels: an element is two ints
# --------------------------------------------------------------------------- #
def fq2_mul(a0: int, a1: int, b0: int, b1: int) -> tuple[int, int]:
    """``(a0 + a1 u)(b0 + b1 u) = (a0 b0 - a1 b1) + (a0 b1 + a1 b0) u``."""
    t0 = a0 * b0
    t1 = a1 * b1
    return (t0 - t1) % _P, ((a0 + a1) * (b0 + b1) - t0 - t1) % _P


def fq2_square(a0: int, a1: int) -> tuple[int, int]:
    """``(a0 + a1 u)^2 = (a0 - a1)(a0 + a1) + 2 a0 a1 u``."""
    return (a0 - a1) * (a0 + a1) % _P, 2 * a0 * a1 % _P


def fq2_inverse(a0: int, a1: int) -> tuple[int, int]:
    """``conj(a) / norm(a)``: one base-field inversion."""
    inv_norm = fq_inv(a0 * a0 + a1 * a1)
    return a0 * inv_norm % _P, -a1 * inv_norm % _P


def fq2_pow(a0: int, a1: int, exponent: int) -> tuple[int, int]:
    r0, r1 = 1, 0
    while exponent:
        if exponent & 1:
            r0, r1 = fq2_mul(r0, r1, a0, a1)
        a0, a1 = fq2_square(a0, a1)
        exponent >>= 1
    return r0, r1


# Frobenius constant gamma1 = xi^((p-1)/6), an Fq2 element.  In the w-basis
# the p^n-power Frobenius maps coefficient a_k to sigma^n(a_k) * T_n[k], with
# sigma the Fq2 conjugation, T_1[k] = gamma1^k and
# T_(n+1)[k] = conj(T_n[k]) * T_1[k].  The final exponentiation needs n <= 3;
# T_1[2] and T_1[3] are also the twist constants of the Frobenius on G2.
_GAMMA1 = fq2_pow(9, 1, (_P - 1) // 6)
FROBENIUS_TABLES = {1: tuple(fq2_pow(*_GAMMA1, k) for k in range(6))}
for _n in (2, 3):
    FROBENIUS_TABLES[_n] = tuple(
        fq2_mul(t0, -t1, g0, g1)
        for (t0, t1), (g0, g1) in zip(FROBENIUS_TABLES[_n - 1], FROBENIUS_TABLES[1])
    )


# --------------------------------------------------------------------------- #
# Fq6 kernels: an element is six ints, (c0, c1, c2) over v
# --------------------------------------------------------------------------- #
def _fq6_mul_raw(a, b):
    """Karatsuba product in Fq6 (6 Fq2 products of 3 int products each);
    the six coefficients come back unreduced."""
    a0, a1, a2, a3, a4, a5 = a
    b0, b1, b2, b3, b4, b5 = b
    # t0 = A0 B0, t1 = A1 B1, t2 = A2 B2
    m = a0 * b0
    n = a1 * b1
    t00 = m - n
    t01 = (a0 + a1) * (b0 + b1) - m - n
    m = a2 * b2
    n = a3 * b3
    t10 = m - n
    t11 = (a2 + a3) * (b2 + b3) - m - n
    m = a4 * b4
    n = a5 * b5
    t20 = m - n
    t21 = (a4 + a5) * (b4 + b5) - m - n
    # c0 = t0 + xi ((A1 + A2)(B1 + B2) - t1 - t2)
    s0 = a2 + a4
    s1 = a3 + a5
    u0 = b2 + b4
    u1 = b3 + b5
    m = s0 * u0
    n = s1 * u1
    x0 = m - n - t10 - t20
    x1 = (s0 + s1) * (u0 + u1) - m - n - t11 - t21
    c00 = t00 + 9 * x0 - x1
    c01 = t01 + x0 + 9 * x1
    # c1 = (A0 + A1)(B0 + B1) - t0 - t1 + xi t2
    s0 = a0 + a2
    s1 = a1 + a3
    u0 = b0 + b2
    u1 = b1 + b3
    m = s0 * u0
    n = s1 * u1
    c10 = m - n - t00 - t10 + 9 * t20 - t21
    c11 = (s0 + s1) * (u0 + u1) - m - n - t01 - t11 + t20 + 9 * t21
    # c2 = (A0 + A2)(B0 + B2) - t0 - t2 + t1
    s0 = a0 + a4
    s1 = a1 + a5
    u0 = b0 + b4
    u1 = b1 + b5
    m = s0 * u0
    n = s1 * u1
    c20 = m - n - t00 - t20 + t10
    c21 = (s0 + s1) * (u0 + u1) - m - n - t01 - t21 + t11
    return c00, c01, c10, c11, c20, c21


def _fq6_mul_by_01_raw(a, b0, b1, b2, b3):
    """Product with the sparse ``(b0 + b1 u) + (b2 + b3 u) v`` (5 Fq2
    products, not 6); coefficients unreduced."""
    a0, a1, a2, a3, a4, a5 = a
    m = a0 * b0
    n = a1 * b1
    t00 = m - n
    t01 = (a0 + a1) * (b0 + b1) - m - n
    m = a2 * b2
    n = a3 * b3
    t10 = m - n
    t11 = (a2 + a3) * (b2 + b3) - m - n
    # c0 = t0 + xi (A2 B1)
    m = a4 * b2
    n = a5 * b3
    x0 = m - n
    x1 = (a4 + a5) * (b2 + b3) - m - n
    c00 = t00 + 9 * x0 - x1
    c01 = t01 + x0 + 9 * x1
    # c1 = (A0 + A1)(B0 + B1) - t0 - t1
    s0 = a0 + a2
    s1 = a1 + a3
    u0 = b0 + b2
    u1 = b1 + b3
    m = s0 * u0
    n = s1 * u1
    c10 = m - n - t00 - t10
    c11 = (s0 + s1) * (u0 + u1) - m - n - t01 - t11
    # c2 = A2 B0 + t1
    m = a4 * b0
    n = a5 * b1
    return c00, c01, c10, c11, m - n + t10, (a4 + a5) * (b0 + b1) - m - n + t11


def fq6_inverse(a):
    """Once per pairing, so written on the :class:`Fq2` value type."""
    a0, a1, a2 = Fq2(a[0], a[1]), Fq2(a[2], a[3]), Fq2(a[4], a[5])
    t0 = a0.square() - XI * (a1 * a2)
    t1 = XI * a2.square() - a0 * a1
    t2 = a1.square() - a0 * a2
    inverse = (a0 * t0 + XI * (a2 * t1 + a1 * t2)).inverse()
    t0, t1, t2 = t0 * inverse, t1 * inverse, t2 * inverse
    return t0.c0, t0.c1, t1.c0, t1.c1, t2.c0, t2.c1


# --------------------------------------------------------------------------- #
# Fq12 kernels: an element is twelve ints, six Fq2 coefficients over w
# --------------------------------------------------------------------------- #
FQ12_ONE = (1,) + (0,) * 11


def fq12_mul(a, b):
    """Karatsuba over the v-even/v-odd halves: 3 Fq6 products, 12 reductions."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11 = b
    e0, e1, e2, e3, e4, e5 = _fq6_mul_raw((a0, a1, a4, a5, a8, a9), (b0, b1, b4, b5, b8, b9))
    o0, o1, o2, o3, o4, o5 = _fq6_mul_raw((a2, a3, a6, a7, a10, a11), (b2, b3, b6, b7, b10, b11))
    s0, s1, s2, s3, s4, s5 = _fq6_mul_raw(
        (a0 + a2, a1 + a3, a4 + a6, a5 + a7, a8 + a10, a9 + a11),
        (b0 + b2, b1 + b3, b4 + b6, b5 + b7, b8 + b10, b9 + b11),
    )
    # even half = e + v*o (v*(x0, x1, x2) = (xi x2, x0, x1)); odd = s - e - o
    return (
        (e0 + 9 * o4 - o5) % _P, (e1 + o4 + 9 * o5) % _P,
        (s0 - e0 - o0) % _P, (s1 - e1 - o1) % _P,
        (e2 + o0) % _P, (e3 + o1) % _P,
        (s2 - e2 - o2) % _P, (s3 - e3 - o3) % _P,
        (e4 + o2) % _P, (e5 + o3) % _P,
        (s4 - e4 - o4) % _P, (s5 - e5 - o5) % _P,
    )


def fq12_square(a):
    """Complex squaring over Fq6: 2 Fq6 products.

    With ``E``/``O`` the halves: even = ``(E + O)(E + v O) - EO - v EO``,
    odd = ``2 EO``.
    """
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = a
    even = (a0, a1, a4, a5, a8, a9)
    t0, t1, t2, t3, t4, t5 = _fq6_mul_raw(even, (a2, a3, a6, a7, a10, a11))
    s0, s1, s2, s3, s4, s5 = _fq6_mul_raw(
        (a0 + a2, a1 + a3, a4 + a6, a5 + a7, a8 + a10, a9 + a11),
        (a0 + 9 * a10 - a11, a1 + a10 + 9 * a11, a4 + a2, a5 + a3, a8 + a6, a9 + a7),
    )
    return (
        (s0 - t0 - 9 * t4 + t5) % _P, (s1 - t1 - t4 - 9 * t5) % _P,
        2 * t0 % _P, 2 * t1 % _P,
        (s2 - t2 - t0) % _P, (s3 - t3 - t1) % _P,
        2 * t2 % _P, 2 * t3 % _P,
        (s4 - t4 - t2) % _P, (s5 - t5 - t3) % _P,
        2 * t4 % _P, 2 * t5 % _P,
    )


def _fq4_square_raw(a0, a1, b0, b1):
    """``(a + b*s)^2`` in ``Fq4 = Fq2[s] / (s^2 - xi)`` as ``(a^2 + xi*b^2, 2ab)``,
    unreduced."""
    p0 = (a0 - a1) * (a0 + a1)
    p1 = 2 * a0 * a1
    q0 = (b0 - b1) * (b0 + b1)
    q1 = 2 * b0 * b1
    s0 = a0 + b0
    s1 = a1 + b1
    return (
        p0 + 9 * q0 - q1,
        p1 + q0 + 9 * q1,
        (s0 - s1) * (s0 + s1) - p0 - q0,
        2 * s0 * s1 - p1 - q1,
    )


def fq12_cyclotomic_square(a):
    """Granger-Scott squaring: 9 Fq2 squarings instead of 12 Fq2 products.

    Only valid in the cyclotomic subgroup (elements of order dividing
    ``p^4 - p^2 + 1``, i.e. anything past the easy part of the final
    exponentiation); on a general element the result is *not* its square.
    """
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = a
    # (z0, z1) = (w^0, w^3), (z2, z3) = (w^1, w^4), (z4, z5) = (w^2, w^5)
    t00, t01, t10, t11 = _fq4_square_raw(a0, a1, a6, a7)
    t20, t21, t30, t31 = _fq4_square_raw(a2, a3, a8, a9)
    t40, t41, t50, t51 = _fq4_square_raw(a4, a5, a10, a11)
    t50, t51 = 9 * t50 - t51, t50 + 9 * t51
    return (
        (3 * t00 - 2 * a0) % _P, (3 * t01 - 2 * a1) % _P,
        (3 * t50 + 2 * a2) % _P, (3 * t51 + 2 * a3) % _P,
        (3 * t20 - 2 * a4) % _P, (3 * t21 - 2 * a5) % _P,
        (3 * t10 + 2 * a6) % _P, (3 * t11 + 2 * a7) % _P,
        (3 * t40 - 2 * a8) % _P, (3 * t41 - 2 * a9) % _P,
        (3 * t30 + 2 * a10) % _P, (3 * t31 + 2 * a11) % _P,
    )


def fq12_mul_by_line(a, c0: int, c1: int, l0: int, l1: int, l2: int, l3: int):
    """Multiply by the sparse Miller line
    ``(c0 + c1 u) + (l0 + l1 u) w + (l2 + l3 u) w^3``.

    Over Fq6 the line is ``(C, 0, 0) + (L1, L3, 0) w``, so the product is
    16 Fq2 products (6 of them by ``C``) instead of the 18, under three
    layers of Karatsuba additions, of :func:`fq12_mul`.
    """
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = a
    e0, e1, e2, e3, e4, e5 = _fq6_mul_by_01_raw((a0, a1, a4, a5, a8, a9), l0, l1, l2, l3)
    o0, o1, o2, o3, o4, o5 = _fq6_mul_by_01_raw((a2, a3, a6, a7, a10, a11), l0, l1, l2, l3)
    c01 = c0 + c1
    # even half = C*E + v*(O*L); odd half = E*L + C*O
    m = a0 * c0
    n = a1 * c1
    r0 = (m - n + 9 * o4 - o5) % _P
    r1 = ((a0 + a1) * c01 - m - n + o4 + 9 * o5) % _P
    m = a2 * c0
    n = a3 * c1
    r2 = (m - n + e0) % _P
    r3 = ((a2 + a3) * c01 - m - n + e1) % _P
    m = a4 * c0
    n = a5 * c1
    r4 = (m - n + o0) % _P
    r5 = ((a4 + a5) * c01 - m - n + o1) % _P
    m = a6 * c0
    n = a7 * c1
    r6 = (m - n + e2) % _P
    r7 = ((a6 + a7) * c01 - m - n + e3) % _P
    m = a8 * c0
    n = a9 * c1
    r8 = (m - n + o2) % _P
    r9 = ((a8 + a9) * c01 - m - n + o3) % _P
    m = a10 * c0
    n = a11 * c1
    return (
        r0, r1, r2, r3, r4, r5, r6, r7, r8, r9,
        (m - n + e4) % _P, ((a10 + a11) * c01 - m - n + e5) % _P,
    )


def fq12_conjugate(a):
    """The p^6-power Frobenius (negates the w-odd coefficients)."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = a
    return (
        a0 % _P, a1 % _P, -a2 % _P, -a3 % _P, a4 % _P, a5 % _P,
        -a6 % _P, -a7 % _P, a8 % _P, a9 % _P, -a10 % _P, -a11 % _P,
    )


def fq12_inverse(a):
    """``conj(a) / (E^2 - v O^2)``: one Fq6 inversion."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = a
    even = (a0, a1, a4, a5, a8, a9)
    odd = (a2, a3, a6, a7, a10, a11)
    e0, e1, e2, e3, e4, e5 = _fq6_mul_raw(even, even)
    o0, o1, o2, o3, o4, o5 = _fq6_mul_raw(odd, odd)
    denom = fq6_inverse((e0 - 9 * o4 + o5, e1 - o4 - 9 * o5, e2 - o0, e3 - o1, e4 - o2, e5 - o3))
    e0, e1, e2, e3, e4, e5 = _fq6_mul_raw(even, denom)
    o0, o1, o2, o3, o4, o5 = _fq6_mul_raw(odd, denom)
    return (
        e0 % _P, e1 % _P, -o0 % _P, -o1 % _P, e2 % _P, e3 % _P,
        -o2 % _P, -o3 % _P, e4 % _P, e5 % _P, -o4 % _P, -o5 % _P,
    )


def fq12_frobenius(a, power: int = 1):
    """Apply the ``p^power`` Frobenius endomorphism (``power`` in 1..3)."""
    table = FROBENIUS_TABLES[power]
    sign = -1 if power & 1 else 1
    out = [a[0] % _P, sign * a[1] % _P]
    for k in range(1, 6):
        out += fq2_mul(a[2 * k], sign * a[2 * k + 1], *table[k])
    return tuple(out)


def fq12_pow(a, exponent: int):
    """Plain square-and-multiply (``exponent >= 0``); the pairing itself
    never calls it.  It is the tests' oracle for the final exponentiation's
    addition chain and for bilinearity."""
    result = FQ12_ONE
    while exponent:
        if exponent & 1:
            result = fq12_mul(result, a)
        a = fq12_square(a)
        exponent >>= 1
    return result


# --------------------------------------------------------------------------- #
# Value types
# --------------------------------------------------------------------------- #
class Fq2:
    """Element ``c0 + c1*u`` of Fq2 with ``u^2 = -1`` (canonical, immutable)."""

    __slots__ = ("c0", "c1")

    def __init__(self, c0: int, c1: int = 0) -> None:
        self.c0 = c0 % _P
        self.c1 = c1 % _P

    @staticmethod
    def zero() -> "Fq2":
        return Fq2(0, 0)

    def __add__(self, other: "Fq2") -> "Fq2":
        return Fq2(self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other: "Fq2") -> "Fq2":
        return Fq2(self.c0 - other.c0, self.c1 - other.c1)

    def __neg__(self) -> "Fq2":
        return Fq2(-self.c0, -self.c1)

    def __mul__(self, other: "Fq2") -> "Fq2":
        return Fq2(*fq2_mul(self.c0, self.c1, other.c0, other.c1))

    def square(self) -> "Fq2":
        return Fq2(*fq2_square(self.c0, self.c1))

    def inverse(self) -> "Fq2":
        return Fq2(*fq2_inverse(self.c0, self.c1))

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Fq2) and self.c0 == other.c0 and self.c1 == other.c1


# Non-residue used throughout the tower.
XI = Fq2(9, 1)


class Fq12:
    """Element of Fq12 = GT's ambient field: twelve canonical ints, the six
    Fq2 coefficients of ``1, w, .., w^5`` (immutable)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        if len(coeffs) != 12:
            raise CryptoError("Fq12 needs exactly 12 Fq coefficients")
        self.coeffs = tuple(coeff % _P for coeff in coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs == FQ12_ONE

    def to_bytes(self) -> bytes:
        """Canonical 384-byte encoding (12 base-field coefficients)."""
        return b"".join(coeff.to_bytes(32, "big") for coeff in self.coeffs)
