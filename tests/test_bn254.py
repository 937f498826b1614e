"""Tests for the BN254 value types, curve groups, and pairing.

The flat kernels underneath are held to the textbook object tower in
``test_bn254_kernels.py``; this file checks the algebra the rest of the repo
relies on and the recorded known answers.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.bn254.curve import (
    B_G2,
    G1Point,
    G2Point,
    g1_generator,
    g2_generator,
    g2_generator_mul,
    hash_to_g1,
)
from repro.crypto.bn254.field import (
    ATE_LOOP_COUNT,
    BN_PARAMETER_T,
    CURVE_ORDER,
    FIELD_MODULUS,
    Fq2,
    Fq12,
    fq12_cyclotomic_square,
    fq12_frobenius,
    fq12_mul_by_line,
    fq12_square,
    fq_sqrt,
)
from repro.crypto import bls
from repro.crypto.bn254.pairing import (
    final_exponentiation,
    miller_loop,
    multi_pairing,
    pairing,
)
from repro.errors import CryptoError

fq2_elements = st.builds(
    Fq2,
    st.integers(min_value=0, max_value=FIELD_MODULUS - 1),
    st.integers(min_value=0, max_value=FIELD_MODULUS - 1),
)

small_scalars = st.integers(min_value=1, max_value=2**64)
group_scalars = st.integers(min_value=1, max_value=CURVE_ORDER - 1)

FINAL_EXPONENT = (FIELD_MODULUS**12 - 1) // CURVE_ORDER

# A general Fq12 element (not in any special subgroup).
GENERAL_FQ12 = Fq12.from_w_coefficients([Fq2(3, 1), Fq2(0, 2), Fq2(5, 0), Fq2(1, 1), Fq2(2, 7), Fq2(4, 9)])


def _sha256_hex(value: Fq12) -> str:
    return hashlib.sha256(value.to_bytes()).hexdigest()


def _frobenius(f: Fq12, power: int = 1) -> Fq12:
    return Fq12(fq12_frobenius(f.coeffs, power))


def _easy_part(f: Fq12) -> Fq12:
    """``f^((p^6 - 1)(p^2 + 1))``: lands in the cyclotomic subgroup."""
    f = f.conjugate() * f.inverse()
    return _frobenius(f, 2) * f


def _off_subgroup_point(seed: int) -> G2Point:
    """An on-curve twist point from a hashed x: its order divides
    ``r * (2p - r)`` and (for all but ~2^-254 of them) not r."""
    counter = 0
    while True:
        digest = hashlib.sha512(b"off-subgroup|%d|%d" % (seed, counter)).digest()
        x = Fq2(int.from_bytes(digest[:32], "big"), int.from_bytes(digest[32:], "big"))
        y = (x.square() * x + B_G2).sqrt()
        if y is not None:
            return G2Point(x, y)
        counter += 1


class TestParameters:
    def test_bn_polynomials(self):
        """p and r must come from the BN parameterisation of t."""
        t = BN_PARAMETER_T
        assert FIELD_MODULUS == 36 * t**4 + 36 * t**3 + 24 * t**2 + 6 * t + 1
        assert CURVE_ORDER == 36 * t**4 + 36 * t**3 + 18 * t**2 + 6 * t + 1
        assert ATE_LOOP_COUNT == 6 * t + 2

    def test_field_modulus_is_3_mod_4(self):
        assert FIELD_MODULUS % 4 == 3

    def test_curve_order_divides_cyclotomic(self):
        assert (FIELD_MODULUS**4 - FIELD_MODULUS**2 + 1) % CURVE_ORDER == 0

    def test_hard_part_decomposition(self):
        """The base-p digits ``final_exponentiation`` hard-codes are *exactly*
        (p^4 - p^2 + 1) / r -- not a multiple of it -- so the optimised chain
        and the generic ``pow`` agree element for element."""
        t, p = BN_PARAMETER_T, FIELD_MODULUS
        lambda2 = 6 * t**2 + 1
        lambda1 = -36 * t**3 - 18 * t**2 - 12 * t + 1
        lambda0 = -36 * t**3 - 30 * t**2 - 18 * t - 2
        assert (p**3 + lambda2 * p**2 + lambda1 * p + lambda0) * CURVE_ORDER == p**4 - p**2 + 1
        # ... and the addition chain's weights regroup to the same digits.
        y = {0: p + p**2 + p**3, 1: -1, 2: t**2 * p**2, 3: -t * p,
             4: -t - t**2 * p, 5: -(t**2), 6: -(t**3) - t**3 * p}
        weights = {0: 1, 1: 2, 2: 6, 3: 12, 4: 18, 5: 30, 6: 36}
        assert sum(weights[i] * y[i] for i in y) * CURVE_ORDER == p**4 - p**2 + 1
        assert (p**6 - 1) * (p**2 + 1) * (p**4 - p**2 + 1) == p**12 - 1

    def test_fq_sqrt(self):
        assert fq_sqrt(4) in (2, FIELD_MODULUS - 2)
        # A non-residue: -1 is a non-residue when p = 3 (mod 4).
        assert fq_sqrt(FIELD_MODULUS - 1) is None


class TestFq2:
    @given(fq2_elements, fq2_elements, fq2_elements)
    @settings(max_examples=30, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)

    @given(fq2_elements)
    @settings(max_examples=30, deadline=None)
    def test_inverse(self, a):
        if a.is_zero():
            with pytest.raises(CryptoError):
                a.inverse()
        else:
            assert a * a.inverse() == Fq2.one()

    @given(fq2_elements)
    @settings(max_examples=30, deadline=None)
    def test_square_matches_mul(self, a):
        assert a.square() == a * a

    @given(fq2_elements)
    @settings(max_examples=20, deadline=None)
    def test_sqrt_of_square(self, a):
        root = a.square().sqrt()
        assert root is not None
        assert root.square() == a.square()

    def test_pow_matches_repeated_multiplication(self):
        a = Fq2(3, 5)
        assert a.pow(5) == a * a * a * a * a


class TestFq12:
    def test_inverse(self):
        a = GENERAL_FQ12
        assert a * a.inverse() == Fq12.one()
        assert a.pow(-3) * a.pow(3) == Fq12.one()
        with pytest.raises(CryptoError):
            Fq12.zero().inverse()

    def test_square_matches_mul(self):
        a = GENERAL_FQ12
        assert Fq12(fq12_square(a.coeffs)) == a * a

    def test_frobenius_is_p_power(self):
        """x^p computed via Frobenius must equal x.pow(p) (small sanity case)."""
        a = GENERAL_FQ12
        assert _frobenius(a) == a.pow(FIELD_MODULUS)

    def test_frobenius_tables_match_repeated_frobenius(self):
        a = GENERAL_FQ12
        assert _frobenius(a, 2) == _frobenius(_frobenius(a))
        assert _frobenius(a, 3) == _frobenius(_frobenius(_frobenius(a)))

    def test_frobenius_order_twelve(self):
        a = GENERAL_FQ12
        assert _frobenius(_frobenius(_frobenius(_frobenius(a, 3), 3), 3), 3) == a

    def test_conjugate_is_frobenius_six(self):
        a = GENERAL_FQ12
        assert a.conjugate() == _frobenius(_frobenius(a, 3), 3)

    @given(st.lists(fq2_elements, min_size=6, max_size=6), fq2_elements, fq2_elements, fq2_elements)
    @settings(max_examples=20, deadline=None)
    def test_mul_by_line_matches_full_mul(self, coeffs, constant, w1, w3):
        """The sparse line product equals ``*`` by the zero-padded line."""
        a = Fq12.from_w_coefficients(coeffs)
        zero = Fq2.zero()
        line = Fq12.from_w_coefficients([constant, w1, zero, w3, zero, zero])
        product = fq12_mul_by_line(a.coeffs, constant.c0, constant.c1, w1.c0, w1.c1, w3.c0, w3.c1)
        assert Fq12(product) == a * line

    @given(group_scalars, group_scalars)
    @settings(max_examples=5, deadline=None)
    def test_cyclotomic_square_matches_square_after_easy_part(self, a, b):
        f = _easy_part(miller_loop(g1_generator().scalar_mul(a), g2_generator().scalar_mul(b)))
        assert fq12_cyclotomic_square(f.coeffs) == fq12_square(f.coeffs)
        assert f.conjugate() == f.inverse()

    def test_cyclotomic_square_is_wrong_outside_the_cyclotomic_subgroup(self):
        """Granger-Scott squaring assumes ``f^(p^4 - p^2 + 1) == 1``; it is only
        ever called past the easy part of the final exponentiation."""
        a = GENERAL_FQ12
        assert fq12_cyclotomic_square(a.coeffs) != fq12_square(a.coeffs)
        eased = _easy_part(a).coeffs
        assert fq12_cyclotomic_square(eased) == fq12_square(eased)

    def test_is_one(self):
        assert Fq12.one().is_one()
        assert not Fq12.zero().is_one()
        assert not Fq12((2,) + (0,) * 11).is_one()
        assert Fq12((FIELD_MODULUS + 1,) + (FIELD_MODULUS,) * 11).is_one()

    def test_w_coefficient_roundtrip(self):
        coeffs = [Fq2(i, i + 1) for i in range(6)]
        assert Fq12.from_w_coefficients(coeffs).w_coefficients() == coeffs

    def test_wrong_coefficient_count_rejected(self):
        with pytest.raises(CryptoError):
            Fq12((1,) * 11)
        with pytest.raises(CryptoError):
            Fq12.from_w_coefficients([Fq2.one()] * 5)

    def test_to_bytes_length(self):
        assert len(Fq12.one().to_bytes()) == 384


class TestG1:
    def test_generator_on_curve_and_order(self):
        g = g1_generator()
        assert g.is_on_curve()
        assert g.scalar_mul(CURVE_ORDER).is_identity()

    def test_group_laws(self):
        g = g1_generator()
        a, b = g.scalar_mul(17), g.scalar_mul(23)
        assert a + b == b + a
        assert a + G1Point.identity() == a
        assert (a - a).is_identity()
        assert a.double() == a + a

    @given(small_scalars, small_scalars)
    @settings(max_examples=10, deadline=None)
    def test_scalar_mul_homomorphism(self, m, n):
        g = g1_generator()
        assert g.scalar_mul(m) + g.scalar_mul(n) == g.scalar_mul(m + n)

    def test_serialization_roundtrip(self):
        point = g1_generator().scalar_mul(987654321)
        assert G1Point.from_bytes(point.to_bytes()) == point
        assert G1Point.from_bytes(G1Point.identity().to_bytes()).is_identity()

    def test_invalid_point_rejected(self):
        with pytest.raises(CryptoError):
            G1Point.from_bytes(b"\x01" * 64)
        with pytest.raises(CryptoError):
            G1Point.from_bytes(b"\x01" * 63)

    def test_non_canonical_encoding_rejected(self):
        """x and x + p both fit in 32 bytes (2p < 2^256); only x may decode,
        or every signature would have a second valid encoding."""
        point = g1_generator().scalar_mul(5)
        x, y = point.x.to_bytes(32, "big"), point.y.to_bytes(32, "big")
        shifted_x = (point.x + FIELD_MODULUS).to_bytes(32, "big")
        shifted_y = (point.y + FIELD_MODULUS).to_bytes(32, "big")
        assert G1Point.from_bytes(x + y) == point
        for encoding in (shifted_x + y, x + shifted_y, FIELD_MODULUS.to_bytes(32, "big") + y):
            with pytest.raises(CryptoError):
                G1Point.from_bytes(encoding)

    def test_hash_to_g1_deterministic_and_on_curve(self):
        a = hash_to_g1(b"alice@example.org")
        b = hash_to_g1(b"alice@example.org")
        c = hash_to_g1(b"bob@example.org")
        assert a == b
        assert a != c
        assert a.is_on_curve()
        assert a.scalar_mul(CURVE_ORDER).is_identity()

    def test_hash_to_g1_domain_separation(self):
        assert hash_to_g1(b"x", domain=b"d1") != hash_to_g1(b"x", domain=b"d2")


class TestG2:
    def test_generator_on_curve_and_order(self):
        g = g2_generator()
        assert g.is_on_curve()
        assert g.scalar_mul(CURVE_ORDER).is_identity()

    def test_group_laws(self):
        g = g2_generator()
        a, b = g.scalar_mul(5), g.scalar_mul(11)
        assert a + b == b + a
        assert a + G2Point.identity() == a
        assert (a - a).is_identity()
        assert a.double() == a + a

    @given(small_scalars, small_scalars)
    @settings(max_examples=6, deadline=None)
    def test_scalar_mul_homomorphism(self, m, n):
        g = g2_generator()
        assert g.scalar_mul(m) + g.scalar_mul(n) == g.scalar_mul(m + n)

    def test_serialization_roundtrip(self):
        point = g2_generator().scalar_mul(123456789)
        assert G2Point.from_bytes(point.to_bytes()) == point
        assert G2Point.from_bytes(G2Point.identity().to_bytes()).is_identity()

    def test_invalid_point_rejected(self):
        with pytest.raises(CryptoError):
            G2Point.from_bytes(b"\x02" * 128)

    def test_non_canonical_encoding_rejected(self):
        point = g2_generator().scalar_mul(5)
        canonical = point.to_bytes()
        assert G2Point.from_bytes(canonical) == point
        for index in range(4):
            chunk = canonical[32 * index : 32 * index + 32]
            shifted = int.from_bytes(chunk, "big") + FIELD_MODULUS
            encoding = canonical[: 32 * index] + shifted.to_bytes(32, "big") + canonical[32 * index + 32 :]
            with pytest.raises(CryptoError):
                G2Point.from_bytes(encoding)


    def test_generator_table_matches_scalar_mul(self):
        for scalar in (1, 15, 16, 2**128 + 5, CURVE_ORDER - 1):
            assert g2_generator_mul(scalar) == g2_generator().scalar_mul(scalar)
        assert g2_generator_mul(0).is_identity()
        assert g2_generator_mul(CURVE_ORDER).is_identity()

    def test_off_subgroup_point_rejected(self):
        """On the curve is not in G2: the twist's cofactor is 2p - r."""
        point = _off_subgroup_point(0)
        assert point.is_on_curve()
        assert not point.is_in_subgroup()
        with pytest.raises(CryptoError, match="subgroup"):
            G2Point.from_bytes(point.to_bytes())
        assert g2_generator().is_in_subgroup()
        assert G2Point.identity().is_in_subgroup()


class TestPairing:
    def test_bilinearity(self):
        g1, g2 = g1_generator(), g2_generator()
        base = pairing(g1, g2)
        assert pairing(g1.scalar_mul(2), g2.scalar_mul(3)) == base.pow(6)

    def test_linearity_in_first_argument(self):
        g1, g2 = g1_generator(), g2_generator()
        lhs = pairing(g1.scalar_mul(5), g2)
        rhs = pairing(g1, g2).pow(5)
        assert lhs == rhs

    def test_linearity_in_second_argument(self):
        g1, g2 = g1_generator(), g2_generator()
        assert pairing(g1, g2.scalar_mul(7)) == pairing(g1, g2).pow(7)

    def test_non_degenerate_and_order_r(self):
        value = pairing(g1_generator(), g2_generator())
        assert not value.is_one()
        assert value.pow(CURVE_ORDER).is_one()

    def test_identity_inputs_give_one(self):
        assert pairing(G1Point.identity(), g2_generator()).is_one()
        assert pairing(g1_generator(), G2Point.identity()).is_one()

    def test_multi_pairing_product(self):
        g1, g2 = g1_generator(), g2_generator()
        product = multi_pairing([(g1, g2), (g1.scalar_mul(2), g2)])
        assert product == pairing(g1, g2).pow(3)

    def test_multi_pairing_cancellation(self):
        """e(P, Q) * e(-P, Q) == 1 -- the identity used by BLS verification."""
        g1, g2 = g1_generator(), g2_generator()
        assert multi_pairing([(g1, g2), (-g1, g2)]).is_one()

    def test_pairing_rejects_off_curve_points(self):
        bad = G1Point(1, 1)
        with pytest.raises(CryptoError):
            pairing(bad, g2_generator())

    def test_off_curve_inputs_rejected_everywhere(self):
        g1, g2 = g1_generator(), g2_generator()
        bad_g1, bad_g2 = G1Point(1, 1), G2Point(Fq2(1, 2), Fq2(3, 4))
        with pytest.raises(CryptoError):
            pairing(g1, bad_g2)
        with pytest.raises(CryptoError):
            multi_pairing([(g1, g2), (bad_g1, g2)])
        with pytest.raises(CryptoError):
            multi_pairing([(g1, g2), (g1, bad_g2)])
        # Off-curve is checked before the identity short-cut.
        with pytest.raises(CryptoError):
            multi_pairing([(G1Point.identity(), bad_g2)])

    @given(small_scalars, small_scalars)
    @settings(max_examples=4, deadline=None)
    def test_bilinearity_in_both_arguments(self, a, b):
        g1, g2 = g1_generator(), g2_generator()
        assert pairing(g1.scalar_mul(a), g2.scalar_mul(b)) == pairing(g1, g2).pow(a * b)

    def test_additivity_in_second_argument(self):
        p = g1_generator().scalar_mul(3)
        q, r = g2_generator().scalar_mul(5), g2_generator().scalar_mul(11)
        assert pairing(p, q + r) == pairing(p, q) * pairing(p, r)

    def test_identity_inputs_give_exactly_one(self):
        assert pairing(G1Point.identity(), g2_generator()) == Fq12.one()
        assert pairing(g1_generator(), G2Point.identity()) == Fq12.one()
        assert multi_pairing([]) == Fq12.one()
        assert multi_pairing([(G1Point.identity(), G2Point.identity())]) == Fq12.one()

    def test_lockstep_multi_pairing_is_product_of_single_pairings(self):
        """All pairs share one Miller accumulator; identity pairs drop out."""
        g1, g2 = g1_generator(), g2_generator()
        pairs = [
            (g1.scalar_mul(3), g2.scalar_mul(7)),
            (G1Point.identity(), g2),
            (hash_to_g1(b"m"), g2.scalar_mul(2**100 + 1)),
            (g1, G2Point.identity()),
            (-g1.scalar_mul(9), g2),
        ]
        product = Fq12.one()
        for p, q in pairs:
            product = product * pairing(p, q)
        assert multi_pairing(pairs) == product
        assert multi_pairing(pairs[:1]) == pairing(*pairs[0])


class TestFinalExponentiation:
    @given(group_scalars, group_scalars)
    @settings(max_examples=3, deadline=None)
    def test_matches_generic_pow_oracle(self, a, b):
        """The BN addition chain against plain square-and-multiply to the
        power (p^12 - 1) / r, which lives on only here."""
        f = miller_loop(g1_generator().scalar_mul(a), g2_generator().scalar_mul(b))
        assert final_exponentiation(f) == f.pow(FINAL_EXPONENT)

    def test_matches_generic_pow_on_arbitrary_element(self):
        """Exact for every nonzero Fq12 element, not just Miller-loop outputs."""
        f = GENERAL_FQ12
        assert final_exponentiation(f) == f.pow(FINAL_EXPONENT)

    def test_zero_rejected(self):
        with pytest.raises(CryptoError):
            final_exponentiation(Fq12.zero())


class TestKnownAnswers:
    """Digests recorded at the commit before the kernel rewrite (generic
    hard-part ``pow``, Fermat inversions, per-pair Miller loops): every shared
    secret and verdict must stay byte-identical."""

    @pytest.mark.parametrize(
        "a, b, digest",
        [
            (1, 1, "a0ffc0e668848ab9dc71bdd8266d647a346d814b9d2bcfc710c426ffdfd3922c"),
            (0xDEADBEEF, 0xC0FFEE, "fb96aceebd0ff8068d0d082246ac9921b95db8d69a9db2d7e4c31396d5b5f7de"),
            (CURVE_ORDER - 5, 2**200 + 12345, "1f7490fa476357a3287eed76d43a9129264aca6681151374337fb03ed9c67854"),
        ],
    )
    def test_pairing_digests(self, a, b, digest):
        value = pairing(g1_generator().scalar_mul(a), g2_generator().scalar_mul(b))
        assert _sha256_hex(value) == digest

    def test_bls_aggregate_accept_and_reject(self):
        signature = G1Point.from_bytes(bytes.fromhex(
            "2e4184eb3b0204103137ea7e0e7e859713b5c263c5f3daa7cd350e14711039d9"
            "0fdefdc13529e7dc317de550f2101ceb8f47537d2eedd813b1007bebb6b6ed88"
        ))
        public = G2Point.from_bytes(bytes.fromhex(
            "08ab6cd645153e2eb9a8fe5bfc47038d42e781d1cc111f853831eaff73557434"
            "195a865179cfd7680b8382d6f468648851550a8663eacb38d3962514cdf013c6"
            "1157177a8ac806a045790cf21e46c4d2db5c85c6b9f6c3833e73003a375605fc"
            "10dd0ba43a1d16c493741980e71a19ac03dac663bc3b36c1c18a6c1ca69a1cd6"
        ))
        keys = [bls.generate_keypair(seed=bytes([i]) * 32) for i in (1, 2, 3)]
        message = b"alice@example.org|round 7"
        assert bls.aggregate_publics([k.public for k in keys]) == public
        assert bls.aggregate_signatures([bls.sign(k.secret, message) for k in keys]) == signature
        assert bls.verify(public, message, signature) is True
        assert bls.verify(public, message + b"!", signature) is False
        rejected = multi_pairing([
            (signature, -g2_generator()),
            (bls.hash_message(message + b"!"), public),
        ])
        assert _sha256_hex(rejected) == "2ead5fc74af1e1fe6932ce8e2c823fce981ef137dec3a2fe79420e87a4086204"
