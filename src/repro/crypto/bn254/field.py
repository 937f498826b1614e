"""Extension-field tower for BN254: Fq -> Fq2 -> Fq6 -> Fq12.

The tower follows the standard construction for Barreto-Naehrig curves:

* ``Fq2  = Fq[u]  / (u^2 + 1)``
* ``Fq6  = Fq2[v] / (v^3 - xi)`` with the non-residue ``xi = 9 + u``
* ``Fq12 = Fq6[w] / (w^2 - v)``

Base-field elements are plain Python integers reduced modulo the field
modulus; the extension classes are small ``__slots__`` value types.  The
generic operations keep the operation counts of the standard tower formulas
(Karatsuba-style multiplication in Fq6/Fq12); on top of them sit the three
special-purpose operations the pairing spends its time in: multiplication
by a sparse Miller line, Granger-Scott squaring in the cyclotomic subgroup,
and table-driven Frobenius maps.  A full pairing takes tens of milliseconds
on CPython.
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
