"""The flat BN254 kernels against the textbook object tower.

``textbook_crypto`` (this directory) holds the ``Fq2``/``Fq6``/``Fq12``
classes, the G2 point and the Miller line step that ``src/repro/crypto/bn254``
shipped before it was rewritten on plain ints with one reduction per output
coefficient.  Every kernel must return what the tower returns, coefficient
for coefficient, and nothing that leaves the package may ever be outside
``[0, p)``: a lazily reduced coefficient reaching ``Fq12.to_bytes()`` would
silently change the IBE seal key.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

import textbook_crypto as textbook
from repro.crypto import bls
from repro.crypto.bn254 import curve, field
from repro.crypto.bn254.curve import G1Point, G2Point, g1_generator, g2_generator, g2_generator_mul
from repro.crypto.bn254.field import BN_PARAMETER_T, CURVE_ORDER, FIELD_MODULUS, Fq2, Fq12
from repro.crypto.bn254.pairing import _add_step, _cyclotomic_pow_t, _double_step, miller_loop, pairing
from repro.crypto.ibe import boneh_franklin
from repro.crypto.ibe.boneh_franklin import BonehFranklinIbe
from repro.crypto.ibe.interface import IbeCiphertext
from repro.errors import CryptoError
from test_bn254 import _off_subgroup_point

P = FIELD_MODULUS

#: Canonical coefficients, weighted towards the edges of the range.
coefficients = st.one_of(
    st.integers(min_value=0, max_value=P - 1),
    st.sampled_from([0, 1, 2, P - 2, P - 1]),
)
#: What a kernel may be handed by another kernel: any size, either sign.
unreduced = st.integers(min_value=-(P**2) * 64, max_value=P**2 * 64)


def vectors(length: int, elements=coefficients):
    return st.lists(elements, min_size=length, max_size=length).map(tuple)


EDGE_SCALARS = [0, 1, 2, 15, 16, CURVE_ORDER - 1, CURVE_ORDER, CURVE_ORDER + 1, 2**256 + 12345, 2**300 - 1]
scalars = st.one_of(st.integers(min_value=0, max_value=2**260), st.sampled_from(EDGE_SCALARS))


def _g1_edge_scalars() -> list[int]:
    """Where the GLV split or the width-5 recoding could go wrong: around r
    and lambda, around each basis coordinate, scalars whose split has a zero
    half or either sign in each half, and 2^k +- 1 (a long zero run)."""
    lam, r = curve._GLV_LAMBDA, CURVE_ORDER
    values = [*EDGE_SCALARS, 0, 1, 2, r - 1, r, r + 1, lam - 1, lam, lam + 1, r - lam]
    for vector in curve._GLV_BASIS:
        for coordinate in vector:
            values += [coordinate % r - 1, coordinate % r, coordinate % r + 1]
    for m in (1, 3, 2**126 - 1):
        values += [m, r - m, m * lam % r, -m * lam % r]
    m1, m2 = 2**125 + 12345, 2**124 + 999
    values += [(s1 * m1 + s2 * m2 * lam) % r for s1 in (1, -1) for s2 in (1, -1)]
    for k in (5, 64, 126, 127, 128, 253):
        values += [2**k - 1, 2**k + 1]
    return values


G1_EDGE_SCALARS = _g1_edge_scalars()


def affine_g1_mul(point: G1Point, scalar: int) -> G1Point:
    """Affine double-and-add with the readable group law."""
    result = G1Point.identity()
    for bit in bin(scalar % CURVE_ORDER)[2:]:
        result = result.double()
        if bit == "1":
            result = result + point
    return result


def digits_value(digits, leading: int = 0) -> int:
    """The integer that MSB-first signed binary digits spell below ``leading``."""
    total = leading
    for digit in digits:
        total = 2 * total + digit
    return total


def textbook_g1_mul(point: G1Point, scalar: int) -> G1Point:
    """The binary Jacobian ladder G1 ran before the GLV chain."""
    X, Y, Z = textbook._jacobian_scalar_mul(point.x, point.y, scalar % CURVE_ORDER)
    if not Z:
        return G1Point.identity()
    z_inv = pow(Z, -1, P)
    return G1Point(X * z_inv**2, Y * z_inv**3)


# -- conversions between the flat forms and the oracle's objects ------------- #
def tb_fq2(a0, a1):
    return textbook.Fq2(a0, a1)


def tb_fq6(a):
    return textbook.Fq6(tb_fq2(a[0], a[1]), tb_fq2(a[2], a[3]), tb_fq2(a[4], a[5]))


def tb_fq12(a):
    return textbook.Fq12.from_w_coefficients([tb_fq2(a[k], a[k + 1]) for k in range(0, 12, 2)])


def flat_fq2(value):
    return value.c0, value.c1


def flat_fq6(value):
    return (*flat_fq2(value.c0), *flat_fq2(value.c1), *flat_fq2(value.c2))


def flat_fq12(value):
    return tuple(c for coeff in value.w_coefficients() for c in flat_fq2(coeff))


def tb_g2(point: G2Point):
    if point.is_identity():
        return textbook.G2Point.identity()
    return textbook.G2Point(tb_fq2(point.x.c0, point.x.c1), tb_fq2(point.y.c0, point.y.c1))


def same_point(point: G2Point, oracle) -> bool:
    if point.is_identity() or oracle.is_identity():
        return point.is_identity() and oracle.is_identity()
    return point._coordinates() == (*flat_fq2(oracle.x), *flat_fq2(oracle.y))


def canonical(values) -> bool:
    return all(type(v) is int and 0 <= v < P for v in values)


def cyclotomic_element(seed) -> tuple:
    """A pseudo-random element past the easy part of the final exponentiation."""
    f = field.fq12_mul(field.fq12_conjugate(seed), field.fq12_inverse(seed))
    return field.fq12_mul(field.fq12_frobenius(f, 2), f)


# --------------------------------------------------------------------------- #
# Field kernels
# --------------------------------------------------------------------------- #
class TestFq2Kernels:
    @given(vectors(4))
    @settings(max_examples=30, deadline=None)
    def test_mul_and_square(self, v):
        a0, a1, b0, b1 = v
        assert field.fq2_mul(a0, a1, b0, b1) == flat_fq2(tb_fq2(a0, a1) * tb_fq2(b0, b1))
        assert field.fq2_square(a0, a1) == flat_fq2(tb_fq2(a0, a1).square())

    @given(vectors(4, unreduced))
    @settings(max_examples=30, deadline=None)
    def test_unreduced_inputs(self, v):
        a0, a1, b0, b1 = v
        assert field.fq2_mul(a0, a1, b0, b1) == flat_fq2(tb_fq2(a0, a1) * tb_fq2(b0, b1))
        assert field.fq2_square(a0, a1) == flat_fq2(tb_fq2(a0, a1).square())

    @given(vectors(2))
    @settings(max_examples=40, deadline=None)
    def test_inverse(self, v):
        if v == (0, 0):
            with pytest.raises(CryptoError):
                field.fq2_inverse(*v)
        else:
            assert field.fq2_inverse(*v) == flat_fq2(tb_fq2(*v).inverse())

    @given(vectors(2), st.integers(min_value=0, max_value=2**64))
    @settings(max_examples=20, deadline=None)
    def test_pow(self, v, exponent):
        assert field.fq2_pow(*v, exponent) == flat_fq2(tb_fq2(*v).pow(exponent))

    def test_frobenius_tables_are_the_oracles(self):
        for power, table in textbook._FROBENIUS_TABLES.items():
            assert field.FROBENIUS_TABLES[power] == tuple(flat_fq2(entry) for entry in table)
        assert flat_fq2(textbook._TWIST_FROB_X) == field.FROBENIUS_TABLES[1][2]
        assert flat_fq2(textbook._TWIST_FROB_Y) == field.FROBENIUS_TABLES[1][3]


def fq6_mul(a, b):
    """The reduced product of the raw kernel ``fq12_mul`` is built from."""
    return tuple(c % P for c in field._fq6_mul_raw(a, b))


def fq6_mul_by_01(a, b0, b1, b2, b3):
    """The reduced sparse product of the raw kernel the Miller line uses."""
    return tuple(c % P for c in field._fq6_mul_by_01_raw(a, b0, b1, b2, b3))


class TestFq6Kernels:
    @given(vectors(6), vectors(6))
    @settings(max_examples=30, deadline=None)
    def test_mul(self, a, b):
        assert fq6_mul(a, b) == flat_fq6(tb_fq6(a) * tb_fq6(b))

    @given(vectors(6, unreduced), vectors(6, unreduced))
    @settings(max_examples=20, deadline=None)
    def test_mul_unreduced_inputs(self, a, b):
        assert fq6_mul(a, b) == flat_fq6(tb_fq6(a) * tb_fq6(b))

    @given(vectors(6), vectors(4))
    @settings(max_examples=30, deadline=None)
    def test_mul_by_01(self, a, b):
        expected = tb_fq6(a).mul_by_01(tb_fq2(b[0], b[1]), tb_fq2(b[2], b[3]))
        assert fq6_mul_by_01(a, *b) == flat_fq6(expected)
        assert fq6_mul_by_01(a, *b) == fq6_mul(a, (*b, 0, 0))

    @given(vectors(6))
    @settings(max_examples=40, deadline=None)
    def test_inverse(self, a):
        if not any(a):
            with pytest.raises(CryptoError):
                field.fq6_inverse(a)
        else:
            assert field.fq6_inverse(a) == flat_fq6(tb_fq6(a).inverse())

    def test_inverse_of_sparse_elements(self):
        for a in ((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, P - 1), (0, 7, 0, 0, 3, 0)):
            assert field.fq6_inverse(a) == flat_fq6(tb_fq6(a).inverse())
            assert fq6_mul(a, field.fq6_inverse(a)) == (1, 0, 0, 0, 0, 0)


class TestFq12Kernels:
    @given(vectors(12), vectors(12))
    @settings(max_examples=30, deadline=None)
    def test_mul(self, a, b):
        assert field.fq12_mul(a, b) == flat_fq12(tb_fq12(a) * tb_fq12(b))

    @given(vectors(12, unreduced), vectors(12, unreduced))
    @settings(max_examples=20, deadline=None)
    def test_mul_and_square_unreduced_inputs(self, a, b):
        assert field.fq12_mul(a, b) == flat_fq12(tb_fq12(a) * tb_fq12(b))
        assert field.fq12_square(a) == flat_fq12(tb_fq12(a).square())

    @given(vectors(12))
    @settings(max_examples=30, deadline=None)
    def test_square_conjugate_frobenius(self, a):
        oracle = tb_fq12(a)
        assert field.fq12_square(a) == flat_fq12(oracle.square())
        assert field.fq12_conjugate(a) == flat_fq12(oracle.conjugate())
        for power in (1, 2, 3):
            assert field.fq12_frobenius(a, power) == flat_fq12(oracle.frobenius(power))

    @given(vectors(12))
    @settings(max_examples=30, deadline=None)
    def test_inverse(self, a):
        if not any(a):
            with pytest.raises(CryptoError):
                field.fq12_inverse(a)
        else:
            assert field.fq12_inverse(a) == flat_fq12(tb_fq12(a).inverse())

    @given(vectors(12), coefficients, vectors(4))
    @settings(max_examples=30, deadline=None)
    def test_mul_by_line(self, a, constant, line):
        """With a constant term in Fq it is the oracle's ``mul_by_line``."""
        expected = tb_fq12(a).mul_by_line(constant, tb_fq2(line[0], line[1]), tb_fq2(line[2], line[3]))
        assert field.fq12_mul_by_line(a, constant, 0, *line) == flat_fq12(expected)

    @given(vectors(12), vectors(6))
    @settings(max_examples=30, deadline=None)
    def test_mul_by_line_with_an_fq2_constant(self, a, line):
        """The projective Miller steps scale the line by an Fq2 factor, so its
        constant term is an Fq2 element: equal to the full product with the
        zero-padded line ``C + L1 w + L3 w^3``."""
        c0, c1, l0, l1, l2, l3 = line
        padded = (c0, c1, l0, l1, 0, 0, l2, l3, 0, 0, 0, 0)
        assert field.fq12_mul_by_line(a, *line) == flat_fq12(tb_fq12(a) * tb_fq12(padded))

    @given(vectors(12))
    @settings(max_examples=30, deadline=None)
    def test_cyclotomic_square(self, a):
        """Equal to the oracle's on *every* element (both are Granger-Scott),
        the true square after the easy part, and still wrong before it."""
        assert field.fq12_cyclotomic_square(a) == flat_fq12(tb_fq12(a).cyclotomic_square())
        if any(a):
            eased = cyclotomic_element(a)
            assert field.fq12_cyclotomic_square(eased) == field.fq12_square(eased)
            assert field.fq12_cyclotomic_square(eased) == flat_fq12(tb_fq12(eased).square())

    def test_cyclotomic_square_is_not_a_square_in_general(self):
        a = tuple(range(3, 15))
        assert field.fq12_cyclotomic_square(a) != field.fq12_square(a)

    @given(vectors(12), st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=10, deadline=None)
    def test_pow(self, a, exponent):
        assert field.fq12_pow(a, exponent) == flat_fq12(tb_fq12(a).pow(exponent))

    @given(vectors(12).filter(any))
    @settings(max_examples=10, deadline=None)
    def test_cyclotomic_pow_t(self, seed):
        """The width-4 chain over t, conjugates for its negative digits, is
        the generic power on the cyclotomic subgroup (where conjugation is
        inversion and the Granger-Scott squaring is a squaring)."""
        f = cyclotomic_element(seed)
        assert _cyclotomic_pow_t(f) == field.fq12_pow(f, BN_PARAMETER_T)


# --------------------------------------------------------------------------- #
# Miller line steps
# --------------------------------------------------------------------------- #
def _twist_point(scalar: int):
    return g2_generator().scalar_mul(scalar)


def _projective(point: G2Point, z: tuple[int, int]):
    """``point`` as homogeneous ``(xZ, yZ, Z)``."""
    z_fq2 = Fq2(*z)
    return (*flat_fq2(point.x * z_fq2), *flat_fq2(point.y * z_fq2), *z)


def _affine(t) -> G2Point:
    z_inv = Fq2(t[4], t[5]).inverse()
    return G2Point(Fq2(t[0], t[1]) * z_inv, Fq2(t[2], t[3]) * z_inv)


def _scaled(oracle_f, scale: Fq2):
    """The oracle's ``f * line`` times an Fq2 factor, flat."""
    return flat_fq12(oracle_f * tb_fq12((scale.c0, scale.c1) + (0,) * 10))


nonzero_z = vectors(2).filter(any)


class TestLineSteps:
    """The projective steps against the oracle's affine ``_line_step``: the
    same new point, and the same product up to the stated Fq2 factor (``2YZ``
    for a tangent, ``X - x Z`` for a chord), which the final exponentiation
    removes -- ``TestKnownAnswers`` pins that the pairing did not move."""

    @given(vectors(12), st.integers(1, CURVE_ORDER - 1), st.integers(1, CURVE_ORDER - 1), nonzero_z)
    @settings(max_examples=20, deadline=None)
    def test_double_step(self, f, a, c, z):
        r, p = _twist_point(a), g1_generator().scalar_mul(c)
        t = _projective(r, z)
        product, doubled = _double_step(f, t, p.x, p.y)
        expected_f, expected_point = textbook._line_step(tb_fq12(f), tb_g2(r), tb_g2(r), p)
        two_y_z = Fq2(t[2], t[3]) * Fq2(*z)
        assert product == _scaled(expected_f, two_y_z + two_y_z)
        assert canonical(product) and canonical(doubled)
        assert same_point(_affine(doubled), expected_point)

    @given(vectors(12), st.integers(1, CURVE_ORDER - 1), st.integers(1, CURVE_ORDER - 1),
           st.integers(1, CURVE_ORDER - 1), nonzero_z)
    @settings(max_examples=20, deadline=None)
    def test_add_step(self, f, a, b, c, z):
        if a == b or (a + b) % CURVE_ORDER == 0:
            b = 2 * a % CURVE_ORDER  # neither a nor -a: r is a prime above 3
        r, q, p = _twist_point(a), _twist_point(b), g1_generator().scalar_mul(c)
        t = _projective(r, z)
        product, total = _add_step(f, t, q._coordinates(), p.x, p.y)
        expected_f, expected_point = textbook._line_step(tb_fq12(f), tb_g2(r), tb_g2(q), p)
        lam = Fq2(t[0], t[1]) - q.x * Fq2(*z)
        assert product == _scaled(expected_f, lam)
        assert canonical(product) and canonical(total)
        assert same_point(_affine(total), expected_point)

    def test_degenerate_chord_refused(self):
        """Q == T (the oracle's doubling-inside-add) and Q == -T (its vertical
        line) cannot occur for a Q of order r; the step refuses both."""
        r, p = _twist_point(5), g1_generator()
        t = _projective(r, (3, 4))
        for q in (r, -r):
            with pytest.raises(CryptoError):
                _add_step(field.FQ12_ONE, t, q._coordinates(), p.x, p.y)

    def test_signed_digits(self):
        from repro.crypto.bn254.pairing import _LOOP_DIGITS, _T_WINDOW_DIGITS, _signed_digits

        assert digits_value(_LOOP_DIGITS, leading=1) == field.ATE_LOOP_COUNT
        assert set(_LOOP_DIGITS) <= {-1, 0, 1}
        assert all(not (x and y) for x, y in zip(_LOOP_DIGITS, _LOOP_DIGITS[1:]))
        assert sum(map(abs, _LOOP_DIGITS)) == 21
        # t in width 4: odd digits in [-7, 7], 14 of them nonzero
        assert _T_WINDOW_DIGITS == _signed_digits(BN_PARAMETER_T, 4)
        assert digits_value(_T_WINDOW_DIGITS) == BN_PARAMETER_T
        nonzero = [digit for digit in _T_WINDOW_DIGITS if digit]
        assert all(digit % 2 and -7 <= digit <= 7 for digit in nonzero)
        assert len(nonzero) == 14

    @given(st.integers(-(2**300), 2**300), st.integers(2, 6))
    @example(7, 2)
    @example(0, 4)
    @settings(max_examples=60, deadline=None)
    def test_signed_digits_any_width(self, value, width):
        """The one recoding helper: the digits rebuild the value, every
        nonzero one is odd and below ``2^(width-1)``, at least ``width - 1``
        zeros follow each, and a negative value recodes to the negated
        digits of its absolute value."""
        from repro.crypto.bn254.curve import _signed_digits

        digits = _signed_digits(value, width)
        assert digits_value(digits) == value
        assert not digits or digits[0] != 0
        positions = [i for i, digit in enumerate(digits) if digit]
        assert all(digits[i] % 2 and abs(digits[i]) < 2 ** (width - 1) for i in positions)
        assert all(b - a >= width for a, b in zip(positions, positions[1:]))
        assert _signed_digits(-value, width) == [-digit for digit in digits]

    def test_frobenius_on_the_twist(self):
        point = _twist_point(0xABCDEF)
        expected = textbook._frobenius_g2(tb_g2(point))
        assert curve.frobenius_twist(*point._coordinates()) == (*flat_fq2(expected.x), *flat_fq2(expected.y))
        assert same_point(point._frobenius(), expected)
        # psi acts on G2 as multiplication by p
        assert point._frobenius() == point.scalar_mul(FIELD_MODULUS % CURVE_ORDER)


# --------------------------------------------------------------------------- #
# G1 and G2 scalar multiplication
# --------------------------------------------------------------------------- #
def _tb_jacobian(point):
    return tuple(tb_fq2(point[k], point[k + 1]) for k in (0, 2, 4))


def _flat_jacobian(coordinates):
    return tuple(c for value in coordinates for c in flat_fq2(value))


def _order_10069_point():
    """A twist point of order 10069 (the cofactor's smallest prime), with its
    oracle twin."""
    cofactor = 2 * FIELD_MODULUS - CURVE_ORDER
    oracle = tb_g2(_off_subgroup_point(2)).mul_unreduced(CURVE_ORDER * cofactor // 10069)
    assert not oracle.is_identity() and oracle.mul_unreduced(10069).is_identity()
    return G2Point(Fq2(*flat_fq2(oracle.x)), Fq2(*flat_fq2(oracle.y))), oracle


class TestG2Kernels:
    @given(st.integers(1, CURVE_ORDER - 1), vectors(2))
    @settings(max_examples=25, deadline=None)
    def test_jacobian_double(self, scalar, z):
        """On a representative with a random Z, coordinate for coordinate."""
        if z == (0, 0):
            z = (1, 0)
        point = _twist_point(scalar)
        z_fq2 = Fq2(*z)
        z2 = z_fq2.square()
        jacobian = (*flat_fq2(point.x * z2), *flat_fq2(point.y * z2 * z_fq2), *z)
        doubled = curve._jacobian_double_fq2(jacobian)
        assert doubled == _flat_jacobian(textbook._jacobian_double_fq2(*_tb_jacobian(jacobian)))
        assert canonical(doubled)
        assert G2Point._from_jacobian(doubled) == point.double()
        assert same_point(point.double(), tb_g2(point).double())

    @given(st.integers(1, CURVE_ORDER - 1), st.integers(1, CURVE_ORDER - 1), vectors(2))
    @settings(max_examples=25, deadline=None)
    def test_mixed_addition(self, a, b, z):
        if z == (0, 0):
            z = (1, 0)
        left, right = _twist_point(a), _twist_point(b)
        z_fq2 = Fq2(*z)
        z2 = z_fq2.square()
        jacobian = (*flat_fq2(left.x * z2), *flat_fq2(left.y * z2 * z_fq2), *z)
        total = curve._jacobian_add_affine_fq2(jacobian, right._coordinates())
        assert total is None or canonical(total)
        assert same_point(G2Point._from_jacobian(total), tb_g2(left) + tb_g2(right))
        assert left + right == G2Point._from_jacobian(total)

    def test_mixed_addition_branches(self):
        point = _twist_point(77)
        base = point._coordinates()
        assert curve._jacobian_add_affine_fq2(None, base) == (*base, 1, 0)
        z = Fq2(3, 5)
        z2 = z.square()
        jacobian = (*flat_fq2(point.x * z2), *flat_fq2(point.y * z2 * z), 3, 5)
        # the doubling inside the addition
        doubled = curve._jacobian_add_affine_fq2(jacobian, base)
        assert G2Point._from_jacobian(doubled) == point.double()
        assert same_point(G2Point._from_jacobian(doubled), tb_g2(point).double())
        # P + (-P)
        assert curve._jacobian_add_affine_fq2(jacobian, (-point)._coordinates()) is None
        assert G2Point._from_jacobian(None).is_identity()
        assert G2Point._from_jacobian((1, 2, 3, 4, 0, 0)).is_identity()

    @given(st.integers(1, CURVE_ORDER - 1), scalars)
    @settings(max_examples=12, deadline=None)
    def test_scalar_mul(self, base_scalar, scalar):
        point = _twist_point(base_scalar)
        assert same_point(point.scalar_mul(scalar), tb_g2(point).scalar_mul(scalar))

    @pytest.mark.parametrize("scalar", EDGE_SCALARS)
    def test_scalar_mul_edges(self, scalar):
        point = _twist_point(0xC0FFEE)
        result = point.scalar_mul(scalar)
        assert same_point(result, tb_g2(point).scalar_mul(scalar))
        assert same_point(result, tb_g2(point).mul_unreduced(scalar % CURVE_ORDER))
        assert G2Point.identity().scalar_mul(scalar).is_identity()

    def test_scalar_mul_off_the_subgroup(self):
        """The ladder is a correct group law on the whole curve, where the
        P + (-P) and doubling branches can really be reached."""
        point = _off_subgroup_point(1)
        for scalar in (1, 2, 3, 10069, 2**64 + 1):
            assert same_point(point.scalar_mul(scalar), tb_g2(point).mul_unreduced(scalar))

    @pytest.mark.parametrize("scalar", [*range(21), BN_PARAMETER_T, 2 * BN_PARAMETER_T])
    def test_scalar_mul_on_a_point_of_order_10069(self, scalar):
        """The subgroup check multiplies by t and 2t: on the point a
        confinement attack would send, the window table and every branch of
        the chain must still give the true multiple."""
        point, oracle = _order_10069_point()
        assert same_point(point.scalar_mul(scalar), oracle.mul_unreduced(scalar))

    @given(scalars)
    @settings(max_examples=25, deadline=None)
    def test_generator_table(self, scalar):
        assert g2_generator_mul(scalar) == g2_generator().scalar_mul(scalar)

    @pytest.mark.parametrize("scalar", EDGE_SCALARS)
    def test_generator_table_edges(self, scalar):
        assert g2_generator_mul(scalar) == g2_generator().scalar_mul(scalar)
        assert same_point(g2_generator_mul(scalar), textbook.G2_GENERATOR.scalar_mul(scalar))


class TestG1Kernels:
    """G1 already ran on ints; its ladder now reduces less often."""

    @given(st.integers(1, CURVE_ORDER - 1), scalars)
    @settings(max_examples=25, deadline=None)
    def test_scalar_mul_matches_affine_double_and_add(self, base_scalar, scalar):
        point = g1_generator().scalar_mul(base_scalar)
        expected = G1Point.identity()
        for bit in bin(scalar % CURVE_ORDER)[2:]:
            expected = expected.double()
            if bit == "1":
                expected = expected + point
        result = point.scalar_mul(scalar)
        assert result == expected
        assert result.is_identity() or (0 <= result.x < P and 0 <= result.y < P)

    @given(st.integers(1, CURVE_ORDER - 1), st.integers(1, P - 1))
    @settings(max_examples=25, deadline=None)
    def test_jacobian_double(self, scalar, z):
        point = g1_generator().scalar_mul(scalar)
        X, Y, Z = curve._jacobian_double(point.x * z * z % P, point.y * z**3 % P, z)
        assert 0 <= X < P and 0 <= Y < P and 0 <= Z < P
        z_inv = pow(Z, -1, P)
        assert G1Point(X * z_inv**2, Y * z_inv**3) == point.double()


    def test_mixed_addition_branches(self):
        point = g1_generator().scalar_mul(77)
        assert curve._jacobian_add_affine(0, 0, 0, point.x, point.y) == (point.x, point.y, 1)
        z = 12345
        X, Y = point.x * z**2 % P, point.y * z**3 % P
        # the doubling inside the addition
        X3, Y3, Z3 = curve._jacobian_add_affine(X, Y, z, point.x, point.y)
        z_inv = pow(Z3, -1, P)
        assert G1Point(X3 * z_inv**2, Y3 * z_inv**3) == point.double()
        # P + (-P)
        assert curve._jacobian_add_affine(X, Y, z, point.x, P - point.y)[2] == 0
        # a general sum
        other = g1_generator().scalar_mul(91)
        X3, Y3, Z3 = curve._jacobian_add_affine(X, Y, z, other.x, other.y)
        z_inv = pow(Z3, -1, P)
        assert G1Point(X3 * z_inv**2, Y3 * z_inv**3) == point + other

    @given(st.integers(1, CURVE_ORDER - 1))
    @settings(max_examples=10, deadline=None)
    def test_odd_multiples(self, base_scalar):
        point = textbook_g1_mul(g1_generator(), base_scalar)
        multiples = curve._odd_multiples(point.x, point.y)
        assert multiples == [(m.x, m.y) for m in (textbook_g1_mul(point, d) for d in range(1, 16, 2))]
        twist_point = _twist_point(base_scalar)
        oracles = [tb_g2(twist_point).mul_unreduced(d) for d in (1, 3, 5, 7)]
        expected = [(*flat_fq2(oracle.x), *flat_fq2(oracle.y)) for oracle in oracles]
        assert curve._odd_multiples_fq2(twist_point._coordinates()) == expected

    @pytest.mark.parametrize("scalar", G1_EDGE_SCALARS)
    def test_scalar_mul_edges(self, scalar):
        point = g1_generator().scalar_mul(0xC0FFEE)
        result = point.scalar_mul(scalar)
        assert result == textbook_g1_mul(point, scalar)
        assert result == affine_g1_mul(point, scalar)
        assert G1Point.identity().scalar_mul(scalar).is_identity()

    @given(st.integers(1, CURVE_ORDER - 1), scalars)
    @settings(max_examples=25, deadline=None)
    def test_scalar_mul_matches_the_binary_ladder(self, base_scalar, scalar):
        point = textbook_g1_mul(g1_generator(), base_scalar)
        assert point.scalar_mul(scalar) == textbook_g1_mul(point, scalar)

    def test_identity_and_zero(self):
        point = g1_generator().scalar_mul(5)
        for scalar in (0, CURVE_ORDER, 7 * CURVE_ORDER):
            assert point.scalar_mul(scalar).is_identity()
        assert G1Point.identity().scalar_mul(12345).is_identity()
        assert point.scalar_mul(CURVE_ORDER - 1) == G1Point(point.x, P - point.y)

    def test_off_curve_point_refused(self):
        """``phi(P) = [lambda]P`` only on ``y^2 = x^3 + 3``: off it the chain
        would be a wrong multiple on another curve, so it is refused."""
        bad = G1Point(1, 1)
        assert not bad.is_on_curve()
        for scalar in (1, 2, 12345, CURVE_ORDER - 1):
            with pytest.raises(CryptoError):
                bad.scalar_mul(scalar)
        with pytest.raises(CryptoError):
            bad * 3

    @given(st.integers(0, 2**300))
    @settings(max_examples=100, deadline=None)
    def test_glv_split(self, scalar):
        k1, k2 = curve._glv_split(scalar)
        assert (k1 + k2 * curve._GLV_LAMBDA - scalar) % CURVE_ORDER == 0
        assert abs(k1) < 2**127 and abs(k2) < 2**127

    def test_glv_split_of_constructed_scalars(self):
        """Both halves zero in turn, and every pair of signs."""
        lam = curve._GLV_LAMBDA
        for m in (1, 5, 2**100 + 3):
            for sign in (1, -1):
                assert curve._glv_split(sign * m % CURVE_ORDER) == (sign * m, 0)
                assert curve._glv_split(sign * m * lam % CURVE_ORDER) == (0, sign * m)
        for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            m1, m2 = 2**125 + 12345, 2**124 + 999
            assert curve._glv_split((s1 * m1 + s2 * m2 * lam) % CURVE_ORDER) == (s1 * m1, s2 * m2)

    def test_glv_constants(self):
        """beta and lambda are primitive cube roots of unity and the basis
        spans the lattice ``a + b lambda = 0 (mod r)`` with determinant r."""
        beta, lam = curve._GLV_BETA, curve._GLV_LAMBDA
        assert pow(beta, 3, P) == 1 and beta != 1
        assert pow(lam, 3, CURVE_ORDER) == 1 and lam != 1
        (a1, b1), (a2, b2) = curve._GLV_BASIS
        assert a1 * b2 - a2 * b1 == CURVE_ORDER
        assert (a1 + b1 * lam) % CURVE_ORDER == 0 and (a2 + b2 * lam) % CURVE_ORDER == 0

    @given(st.integers(1, CURVE_ORDER - 1))
    @settings(max_examples=10, deadline=None)
    def test_endomorphism_is_multiplication_by_lambda(self, base_scalar):
        point = textbook_g1_mul(g1_generator(), base_scalar)
        phi = G1Point(curve._GLV_BETA * point.x, point.y)
        assert phi.is_on_curve()
        assert phi == textbook_g1_mul(point, curve._GLV_LAMBDA)


# --------------------------------------------------------------------------- #
# Subgroup membership of decoded G2 points
# --------------------------------------------------------------------------- #
class TestSubgroupCheck:
    def test_endomorphism_relation_and_soundness_condition(self):
        """``g(X) = (t+1) + tX + tX^2 - 2tX^3`` vanishes at X = p modulo r
        (psi is multiplication by p on G2), and its resultant with psi's
        characteristic polynomial ``X^2 - (6t^2+1)X + p`` is coprime to the
        cofactor ``2p - r``: a point passing the test has no component
        outside G2 (El Housni-Guillevic-Piellard's condition)."""
        t, p, r = BN_PARAMETER_T, FIELD_MODULUS, CURVE_ORDER
        trace = p + 1 - r
        assert trace == 6 * t * t + 1
        assert ((t + 1) + t * p + t * p**2 - 2 * t * p**3) % r == 0
        # g mod (X^2 - trace X + p) = a + b X, whose norm is a^2 + ab trace + b^2 p
        a = (t + 1) - t * p + 2 * t * trace * p
        b = t + t * trace - 2 * t * (trace * trace - p)
        resultant = a * a + a * b * trace + b * b * p
        cofactor = 2 * p - r
        assert resultant % r == 0
        assert gcd(resultant, cofactor) == 1
        assert gcd(r, cofactor) == 1

    @given(st.integers(0, CURVE_ORDER - 1))
    @settings(max_examples=10, deadline=None)
    def test_agrees_with_the_order_oracle_inside_the_subgroup(self, scalar):
        point = g2_generator_mul(scalar)
        assert tb_g2(point).mul_unreduced(CURVE_ORDER).is_identity()
        assert point.is_in_subgroup()
        assert G2Point.from_bytes(point.to_bytes()) == point

    @given(st.integers(0, 2**32))
    @settings(max_examples=8, deadline=None)
    def test_agrees_with_the_order_oracle_outside_the_subgroup(self, seed):
        point = _off_subgroup_point(seed)
        assert point.is_on_curve()
        cofactor_part = tb_g2(point).mul_unreduced(CURVE_ORDER)
        assert not cofactor_part.is_identity()
        assert not point.is_in_subgroup()
        # with a G2 component added, and with its own G2 component removed
        assert not (point + g2_generator()).is_in_subgroup()
        assert not G2Point(Fq2(*flat_fq2(cofactor_part.x)), Fq2(*flat_fq2(cofactor_part.y))).is_in_subgroup()

    def test_small_order_point_rejected(self):
        """The cofactor's smallest prime is 10069: a point of that order is
        what a confinement attack would send."""
        cofactor = 2 * FIELD_MODULUS - CURVE_ORDER
        assert cofactor % 10069 == 0
        oracle = tb_g2(_off_subgroup_point(2)).mul_unreduced(CURVE_ORDER * cofactor // 10069)
        assert not oracle.is_identity() and oracle.mul_unreduced(10069).is_identity()
        point = G2Point(Fq2(*flat_fq2(oracle.x)), Fq2(*flat_fq2(oracle.y)))
        assert point.is_on_curve() and not point.is_in_subgroup()
        with pytest.raises(CryptoError, match="subgroup"):
            G2Point.from_bytes(point.to_bytes())

    def test_rejected_on_every_decoding_path(self, monkeypatch):
        ibe = BonehFranklinIbe()
        encoded = _off_subgroup_point(3).to_bytes()
        with pytest.raises(CryptoError, match="subgroup"):
            ibe.master_public_from_bytes(encoded)
        with pytest.raises(CryptoError, match="subgroup"):
            G2Point.from_bytes(encoded)
        # an IBE header: decrypt answers None without running a pairing on it
        master = ibe.generate_master_keypair(seed=b"\x05" * 32)
        private = ibe.extract(master.secret, "victim@example.org")
        real = ibe.encrypt(master.public, "victim@example.org", b"hello")
        assert ibe.decrypt(private, real) == b"hello"
        calls = []

        def counting_pairing(p, q):
            calls.append(q)
            return pairing(p, q)

        monkeypatch.setattr(boneh_franklin, "pairing", counting_pairing)
        assert ibe.decrypt(private, IbeCiphertext(header=encoded, body=real.body)) is None
        assert calls == []
        assert ibe.decrypt(private, real) == b"hello"
        assert len(calls) == 1


# --------------------------------------------------------------------------- #
# Canonical representatives everywhere a value can be observed
# --------------------------------------------------------------------------- #
class TestCanonicalForm:
    @given(vectors(12, unreduced), vectors(12, unreduced), unreduced, vectors(4, unreduced))
    @settings(max_examples=40, deadline=None)
    def test_every_kernel_output_is_reduced(self, a, b, constant, line):
        outputs = [
            field.fq2_mul(*line),
            field.fq2_square(*line[:2]),
            field.fq2_pow(*line[:2], 5),
            fq6_mul(a[:6], b[:6]),
            fq6_mul_by_01(a[:6], *line),
            field.fq12_mul(a, b),
            field.fq12_square(a),
            field.fq12_cyclotomic_square(a),
            field.fq12_mul_by_line(a, constant, line[3], *line),
            field.fq12_conjugate(a),
            field.fq12_frobenius(a, 1),
            field.fq12_frobenius(a, 2),
            field.fq12_frobenius(a, 3),
            field.fq12_pow(a, 3),
        ]
        if any(c % P for c in a[:2]):
            outputs.append(field.fq2_inverse(*a[:2]))
        if any(c % P for c in a[:6]):
            outputs.append(field.fq6_inverse(a[:6]))
        if any(c % P for c in a):
            outputs.append(field.fq12_inverse(a))
        for output in outputs:
            assert canonical(output), output

    @given(vectors(12, unreduced), vectors(12, unreduced))
    @settings(max_examples=25, deadline=None)
    def test_value_types_only_show_reduced_coefficients(self, a, b):
        for value in (Fq12(a), Fq12(b)):
            assert canonical(value.coeffs)
            assert value.to_bytes() == b"".join(c.to_bytes(32, "big") for c in value.coeffs)
            assert Fq12([c + P for c in value.coeffs]).coeffs == value.coeffs
        assert Fq12([c + P for c in field.FQ12_ONE]).is_one()
        u, v = Fq2(a[0], a[1]), Fq2(b[0], b[1])
        fq2_values = [u, v, u + v, u - v, -u, u * v, u.square(), Fq2.zero(), Fq2(1)]
        if not u.is_zero():
            fq2_values.append(u.inverse())
        for value in fq2_values:
            assert canonical(flat_fq2(value))
            assert value == Fq2(value.c0 + P, value.c1 - P)

    @given(scalars, st.integers(1, CURVE_ORDER - 1))
    @settings(max_examples=10, deadline=None)
    def test_points_and_pairings(self, scalar, other):
        points = [
            g2_generator_mul(scalar),
            g2_generator().scalar_mul(scalar),
            g2_generator_mul(scalar) + g2_generator_mul(other),
            g2_generator_mul(other).double(),
            -g2_generator_mul(other),
            g2_generator_mul(other)._frobenius(),
            G2Point.from_bytes(g2_generator_mul(other).to_bytes()),
        ]
        for point in points:
            if not point.is_identity():
                assert canonical(point._coordinates())
                assert G2Point.from_bytes(point.to_bytes()) == point
        value = pairing(g1_generator().scalar_mul(other), points[0])
        assert canonical(value.coeffs)
        assert canonical(miller_loop(g1_generator(), points[3]).coeffs)


# --------------------------------------------------------------------------- #
# The fixed-base table: lazy, built once, public constants only
# --------------------------------------------------------------------------- #
class TestGeneratorTable:
    def test_import_builds_nothing_and_first_use_builds_once(self):
        """In a fresh interpreter: importing the pairing stack leaves the
        holder unbuilt; two threads racing on the first multiplication see
        one build between them and the same answers as the ladder."""
        script = textwrap.dedent(
            """
            import sys, threading
            import repro.crypto.bn254, repro.crypto.bls, repro.crypto.ibe
            from repro.crypto.bn254 import curve
            assert curve._g2_generator_table is None, "table built at import"

            builds = []
            build = curve._build_g2_generator_table
            def counting_build():
                builds.append(threading.get_ident())
                return build()
            curve._build_g2_generator_table = counting_build

            barrier = threading.Barrier(2)
            results = {}
            def first_call(scalar):
                barrier.wait(timeout=30)
                results[scalar] = curve.g2_generator_mul(scalar)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                threads = [threading.Thread(target=first_call, args=(s,)) for s in (12345, 67890)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
            finally:
                sys.setswitchinterval(interval)
            assert len(builds) == 1, builds
            assert curve._g2_generator_table is not None
            for scalar, point in results.items():
                assert point == curve.g2_generator().scalar_mul(scalar)
            curve.g2_generator_mul(999)
            assert len(builds) == 1, builds
            print("ok")
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"

    def test_table_holds_only_multiples_of_the_generator(self):
        """Every entry is ``j * 16^w * P2`` (checked by chaining the oracle's
        affine additions); nothing else -- no scalar, no key -- is stored."""
        g2_generator_mul(1)
        table = curve._g2_generator_table
        assert len(table) == 64 and all(len(row) == 15 for row in table)
        base = textbook.G2_GENERATOR
        for row in table:
            multiple = base
            for entry in row:
                assert type(entry) is tuple and len(entry) == 4 and canonical(entry)
                assert entry == (*flat_fq2(multiple.x), *flat_fq2(multiple.y))
                multiple = multiple + base
            base = multiple  # 16 * base
        assert table[5][6] == g2_generator().scalar_mul(7 * 16**5)._coordinates()


# --------------------------------------------------------------------------- #
# Same bytes across the rewrite, both ways
# --------------------------------------------------------------------------- #
#: Made by commit 9698e55 (object tower) and by this one (flat kernels); each
#: side's output was checked to decrypt/verify under the other when recorded.
CROSS_VERSION_VECTORS = {
    "parent": {
        "identity": "parent@example.org",
        "master_public": "2482b30289e292e8b49e4ae6722e8e38de7c6d4b12657c09fcd8246a1591a56c0af9b1d47a5da98d2c9cd0af92383c76105f53b1e6d6df0247dcfe783eab0fe9119ffe111b6faf82fa7c2ac3e523d7667b3215f8788d0fdf48bb0a5b3bfebd8f25cc75087abf96609ba9b86fea0fccd1aa3140c07450c02927a9d2be27021185",
        "private_key": "0a5f9071c6a1aa0052f3c1ca2105f95070da7976ec61ffd6917d6f452580afcc0813b3f9267fa07adf26b0853ccbd031c0706e3c7f918686a22cc5cd3380d51e",
        "header": "197df1aa39d2a0ed097247d794bc23c665d722324d3b8dee1c24b0e1eadb2bf10d7410293b6eb8308b44e8fd4cc517713f08ec6c7b8bc6505fff55094b9331690124a4933a4655006774239a997c49c2eea1b5b5f1ba917df68baf6d180df0341286d349b5bc1b4c78c58f6041560d4c9d79cc5dbb1461262e0c96165201925d",
        "body": "65b2dcd02e53e25416fb3575d88a0805f527314376783f6842929ff9e6cb86fa1e432f9bd20f2695bf28fa5db3a9",
        "bls_public": "019c1b69be7722b58c8b2c1a7496fdd02cc840271bc61f935a16760c070c646f2d67e155504db3d158b3ebd311314901c2a84b51cade8ea6a91d62accdbbe0ce2a00ce0a57ec12bb718343f00d1934fa456d57e014b1d4676a4195dd8165450a01035598d7580cb27c71f2c4f62b41d52dbe0b272e54c391aaeeb14a3c3b67fe",
        "bls_signature": "1c5f952436b6bf75e43d14a6c3d07f128d031d31b386216c783dee460d7cd218295d149553603a50bc440fdb4e72d2c3d5d4618f9c1305c2bc029895b40888d5",
    },
    "change": {
        "identity": "change@example.org",
        "master_public": "03d5677121bae6e581e3d6945a151874bbf44f97546a60d8e208c6556eda808b2864477dd9d8217f7a7da5edc69694ec2b456e8748d611058b5f0465379cd0bb1304cd167a8fccf7b0ea3d67bc870de9ceb974a3f897be91993df2f309fcade82de35d413032793fe4777c139b534eb313338b512076b00b67f2d438822639fa",
        "private_key": "05b9f25a15330c7ad9feb9b12d0521f7c0a0cdb9ba0deaf46ac172eb9ac9ceb013a1d4a2820c53d08ea658494b122d2c5c3ae1b297ff27bfa8c13d2c6f8e4d7d",
        "header": "0e8f7f313b7a1876b30bc5f61520276d0b7a7ed76f4fe6b777d825ec2d8b6a1f226322e01b44ee05f6da00e7c5d0f5a719fba4ce69d7a511903bce02de10716207713e02a7b69d19d871cb53068dd4c029af8d82a13877c3d3a7f2d65f639a790546dc90da6c80157089dcaadec0110296d161a75719a4f0f793b7459466358b",
        "body": "ac7077f4651a94c03ddf984f0d98093e40688b8d6609fc950782eb51bd443db0420075eec16af10f49d87834b1af",
        "bls_public": "00e30cb7fe7607ac1a0545fdcd0303bf30f63025acf99e19b78cc8a227448972056a186e208665759ad6c92700336006ba4dc3ca53d9df8b9c16233ab2c22d8e1232eb64275ca4da86c4571e84431d2e59f059930078dafc48595cc911557a1615874ff02c6cf33a7ad9353303316dad6f505251d6cdaac3ce87090199fd22cc",
        "bls_signature": "12c8c97e74b167da7d6412ea0278d251189b763874ccde97e9b84cdde0dce0ab2cc7bd8b3f00351b0b9c91573c59f7f094cdb758e626f1cfe73cd9afccb0d6d2",
    },
}


class TestCrossVersionVectors:
    @pytest.mark.parametrize("side", ["parent", "change"])
    def test_ibe_ciphertext_and_bls_aggregate(self, side):
        vector = {key: value if key == "identity" else bytes.fromhex(value)
                  for key, value in CROSS_VERSION_VECTORS[side].items()}
        tag = side.encode()
        ibe = BonehFranklinIbe()
        # The deterministic halves are reproduced byte for byte ...
        master = ibe.generate_master_keypair(seed=(tag * 32)[:32])
        assert ibe.master_public_to_bytes(master.public) == vector["master_public"]
        private = ibe.extract(master.secret, vector["identity"])
        assert ibe.private_key_to_bytes(private) == vector["private_key"]
        keys = [bls.generate_keypair(seed=(tag + bytes([i])) * 8) for i in (1, 2)]
        message = b"statement signed by the " + tag
        assert bls.aggregate_publics([k.public for k in keys]).to_bytes() == vector["bls_public"]
        signature = bls.aggregate_signatures([bls.sign(k.secret, message) for k in keys])
        assert bls.signature_to_bytes(signature) == vector["bls_signature"]
        # ... and what the other side encrypted (at its own random r) opens.
        decoded = ibe.private_key_from_bytes(vector["identity"], vector["private_key"])
        ciphertext = IbeCiphertext(header=vector["header"], body=vector["body"])
        assert ibe.decrypt(decoded, ciphertext) == b"made by the " + tag
        public = G2Point.from_bytes(vector["bls_public"])
        assert bls.verify(public, message, bls.signature_from_bytes(vector["bls_signature"])) is True
        assert bls.verify(public, message + b"!", bls.signature_from_bytes(vector["bls_signature"])) is False
