"""Optimal-ate pairing on BN254.

The pairing ``e: G1 x G2 -> GT`` (GT being the order-r subgroup of Fq12*)
is computed with the standard optimal-ate construction for Barreto-Naehrig
curves: a Miller loop of length ``6t + 2`` over the twist, two extra line
evaluations at the Frobenius images of Q, and a final exponentiation to the
power ``(p^12 - 1) / r`` (split into its easy and hard parts).

All line evaluations keep the G2 point in Fq2 twist coordinates; a line has
only three nonzero w-basis coefficients and is multiplied into the
accumulator in that sparse form (:func:`fq12_mul_by_line`), which avoids
ever materialising points, or lines, with Fq12 coordinates.  The running
point is homogeneous projective, so a line step has no field inversion.
Inside this module points and field elements are tuples of ints;
:class:`Fq12` wraps what leaves it.
"""

from __future__ import annotations

from repro.crypto.bn254.curve import B_G2, G1Point, G2Point, _signed_digits, frobenius_twist
from repro.crypto.bn254.field import (
    ATE_LOOP_COUNT,
    BN_PARAMETER_T,
    FIELD_MODULUS,
    FQ12_ONE,
    Fq12,
    fq12_conjugate,
    fq12_cyclotomic_square,
    fq12_frobenius,
    fq12_inverse,
    fq12_mul,
    fq12_mul_by_line,
    fq12_square,
)
from repro.errors import CryptoError

_P = FIELD_MODULUS

# 3b' for the twist y^2 = x^3 + b', used by the doubling step.
_B3_0 = 3 * B_G2.c0 % _P
_B3_1 = 3 * B_G2.c1 % _P


# The NAF of 6t + 2 below its leading 1: 21 additions instead of the 36 of
# its binary form, at one more doubling.
_LOOP_DIGITS = _signed_digits(ATE_LOOP_COUNT, 2)[1:]
# The width-4 NAF of t: 14 nonzero digits in [-7, 7].
_T_WINDOW_DIGITS = _signed_digits(BN_PARAMETER_T, 4)


def _double_step(f, t, xp: int, yp: int):
    """Multiply ``f`` by the tangent at T evaluated at P; return it with 2T.

    ``f`` is an Fq12 coefficient tuple, ``t = (X, Y, Z)`` a twist point in
    homogeneous projective coordinates as six ints, ``(xp, yp)`` the G1
    point.  No inversion: the line is the affine tangent
    ``yp - s xp w + (s x - y) w^3`` scaled by ``2YZ``, an Fq2 factor that the
    final exponentiation kills, and with ``Y^2 Z = X^3 + b' Z^3`` it reads
    ``2YZ yp - 3X^2 xp w + (Y^2 - 3b' Z^2) w^3``.  The point update is
    ``X3 = 2XY (Y^2 - 9b'Z^2)``, ``Y3 = (Y^2 + 9b'Z^2)^2 - 12 (3b'Z^2)^2``,
    ``Z3 = 8 Y^3 Z`` (Costello-Lange-Naehrig).
    """
    X0, X1, Y0, Y1, Z0, Z1 = t
    # B = Y^2, E = 3b' Z^2, H = 2YZ
    B0 = (Y0 - Y1) * (Y0 + Y1) % _P
    B1 = 2 * Y0 * Y1 % _P
    c0 = (Z0 - Z1) * (Z0 + Z1)
    c1 = 2 * Z0 * Z1
    m = c0 * _B3_0
    n = c1 * _B3_1
    E0 = (m - n) % _P
    E1 = ((c0 + c1) * (_B3_0 + _B3_1) - m - n) % _P
    m = Y0 * Z0
    n = Y1 * Z1
    H0 = 2 * (m - n) % _P
    H1 = 2 * ((Y0 + Y1) * (Z0 + Z1) - m - n) % _P
    f = fq12_mul_by_line(
        f, H0 * yp % _P, H1 * yp % _P,
        -3 * (X0 - X1) * (X0 + X1) * xp % _P, -6 * X0 * X1 * xp % _P,
        B0 - E0, B1 - E1,
    )
    # X3 = 2XY (B - 3E)
    m = X0 * Y0
    n = X1 * Y1
    c0 = 2 * (m - n)
    c1 = 2 * ((X0 + X1) * (Y0 + Y1) - m - n)
    s0 = B0 - 3 * E0
    s1 = B1 - 3 * E1
    m = c0 * s0
    n = c1 * s1
    X30 = (m - n) % _P
    X31 = ((c0 + c1) * (s0 + s1) - m - n) % _P
    # Y3 = (B + 3E)^2 - 12 E^2, Z3 = 4 B H
    s0 = B0 + 3 * E0
    s1 = B1 + 3 * E1
    Y30 = ((s0 - s1) * (s0 + s1) - 12 * (E0 - E1) * (E0 + E1)) % _P
    Y31 = (2 * s0 * s1 - 24 * E0 * E1) % _P
    m = B0 * H0
    n = B1 * H1
    return f, (
        X30, X31, Y30, Y31,
        4 * (m - n) % _P, 4 * ((B0 + B1) * (H0 + H1) - m - n) % _P,
    )


def _add_step(f, t, q, xp: int, yp: int):
    """Multiply ``f`` by the line through T and Q evaluated at P; return it
    with T + Q.

    ``t`` is projective as in :func:`_double_step`, ``q = (x, y)`` affine as
    four ints.  With ``theta = Y - y Z`` and ``lam = X - x Z`` (so the
    affine slope is ``theta / lam``) the line, scaled by ``lam``, is
    ``lam yp - theta xp w + (theta x - lam y) w^3``.  ``lam == 0`` means
    ``Q == +-T``: it cannot happen for a Q of order r (the loop only ever
    holds ``[k]Q`` with ``1 < k < r - 1``), so a point that gets there is
    not in G2 and is refused rather than paired.
    """
    X0, X1, Y0, Y1, Z0, Z1 = t
    x0, x1, y0, y1 = q
    z01 = Z0 + Z1
    m = y0 * Z0
    n = y1 * Z1
    th0 = (Y0 - m + n) % _P
    th1 = (Y1 - (y0 + y1) * z01 + m + n) % _P
    m = x0 * Z0
    n = x1 * Z1
    la0 = (X0 - m + n) % _P
    la1 = (X1 - (x0 + x1) * z01 + m + n) % _P
    if la0 == 0 and la1 == 0:
        raise CryptoError("Miller loop reached a degenerate line: Q is not in G2")
    th01 = th0 + th1
    la01 = la0 + la1
    m = th0 * x0
    n = th1 * x1
    k = la0 * y0
    l = la1 * y1
    f = fq12_mul_by_line(
        f, la0 * yp % _P, la1 * yp % _P, -th0 * xp % _P, -th1 * xp % _P,
        (m - n - k + l) % _P, (th01 * (x0 + x1) - m - n - la01 * (y0 + y1) + k + l) % _P,
    )
    # C = theta^2, D = lam^2, E = lam^3, F = Z C, G = X D, H = E + F - 2G
    c0 = (th0 - th1) * th01
    c1 = 2 * th0 * th1
    D0 = (la0 - la1) * la01 % _P
    D1 = 2 * la0 * la1 % _P
    d01 = D0 + D1
    m = la0 * D0
    n = la1 * D1
    E0 = (m - n) % _P
    E1 = (la01 * d01 - m - n) % _P
    m = X0 * D0
    n = X1 * D1
    G0 = m - n
    G1 = (X0 + X1) * d01 - m - n
    m = Z0 * c0
    n = Z1 * c1
    H0 = (E0 + m - n - 2 * G0) % _P
    H1 = (E1 + z01 * (c0 + c1) - m - n - 2 * G1) % _P
    # X3 = lam H, Y3 = theta (G - H) - E Y, Z3 = Z E
    m = la0 * H0
    n = la1 * H1
    X30 = (m - n) % _P
    X31 = (la01 * (H0 + H1) - m - n) % _P
    s0 = G0 - H0
    s1 = G1 - H1
    m = th0 * s0
    n = th1 * s1
    k = E0 * Y0
    l = E1 * Y1
    e01 = E0 + E1
    Y30 = (m - n - k + l) % _P
    Y31 = (th01 * (s0 + s1) - m - n - e01 * (Y0 + Y1) + k + l) % _P
    m = Z0 * E0
    n = Z1 * E1
    return f, (X30, X31, Y30, Y31, (m - n) % _P, (z01 * e01 - m - n) % _P)


def _miller_loop(pairs: list[tuple[G1Point, G2Point]]):
    """The product of the pairs' Miller functions, computed in lock-step.

    All pairs share one accumulator, so the Fq12 squaring happens once per
    loop digit rather than once per digit per pair.  Pairs containing the
    point at infinity contribute a factor of one and are skipped.  The loop
    count runs in signed digits (a -1 adds -Q).  Returns the Fq12 coefficient
    tuple, which is the Miller function only up to factors in proper
    subfields -- exactly what the final exponentiation removes.
    """
    points = []
    for p, q in pairs:
        if not (p.is_identity() or q.is_identity()):
            x0, x1, y0, y1 = q.x.c0, q.x.c1, q.y.c0, q.y.c1
            points.append((p.x, p.y, (x0, x1, y0, y1), (x0, x1, -y0 % _P, -y1 % _P)))
    f = FQ12_ONE
    ts = [(*q, 1, 0) for _, _, q, _ in points]
    for digit in _LOOP_DIGITS:
        f = fq12_square(f)
        for i, (xp, yp, q, minus_q) in enumerate(points):
            f, ts[i] = _double_step(f, ts[i], xp, yp)
            if digit:
                f, ts[i] = _add_step(f, ts[i], q if digit == 1 else minus_q, xp, yp)

    for (xp, yp, q, _), t in zip(points, ts):
        q1 = frobenius_twist(*q)
        x0, x1, y0, y1 = frobenius_twist(*q1)
        f, t = _add_step(f, t, q1, xp, yp)
        f, _ = _add_step(f, t, (x0, x1, -y0 % _P, -y1 % _P), xp, yp)
    return f


def miller_loop(p: G1Point, q: G2Point) -> Fq12:
    """The optimal-ate Miller loop (without the final exponentiation)."""
    return Fq12(_miller_loop([(p, q)]))


def _cyclotomic_pow_t(f):
    """``f^t`` for ``f`` in the cyclotomic subgroup (t is the BN parameter).

    One chain of cyclotomic squarings over the width-4 NAF of t, multiplying
    in ``f^d`` (a conjugate for negative d) from ``f, f^3, f^5, f^7``: 13
    multiplications in the chain and 3 for the table, plus the squaring of
    ``f`` the table needs.
    """
    square = fq12_cyclotomic_square(f)
    # powers[d] is f^d for odd d in [-7, 7]; a negative d indexes from the end.
    powers = [None] * 16
    powers[1], powers[-1] = f, fq12_conjugate(f)
    for digit in (3, 5, 7):
        power = fq12_mul(powers[digit - 2], square)
        powers[digit], powers[-digit] = power, fq12_conjugate(power)
    result = powers[_T_WINDOW_DIGITS[0]]
    for digit in _T_WINDOW_DIGITS[1:]:
        result = fq12_cyclotomic_square(result)
        if digit:
            result = fq12_mul(result, powers[digit])
    return result


def final_exponentiation(f: Fq12) -> Fq12:
    """Raise a Miller-loop output to the power ``(p^12 - 1) / r``.

    Split into the "easy" part ``(p^6 - 1)(p^2 + 1)`` (cheap, via Frobenius
    and one inversion) and the "hard" part, for which BN curves give the
    exact decomposition (Devegili, Scott, Dahab 2007)::

        (p^4 - p^2 + 1) / r = p^3 + (6t^2 + 1) p^2
                              + (-36t^3 - 18t^2 - 12t + 1) p
                              + (-36t^3 - 30t^2 - 18t - 2)

    so it costs three exponentiations by the 63-bit ``t`` (each 63
    cyclotomic squarings and 16 multiplications over the width-4 NAF of t,
    :func:`_cyclotomic_pow_t`), a handful of Frobenius maps and a short
    addition chain.  After the easy part the element lies in the cyclotomic
    subgroup, where inversion is conjugation and squaring is
    :func:`fq12_cyclotomic_square`.
    """
    if f.is_zero():
        raise CryptoError("cannot exponentiate zero")
    mul, square, frobenius, conjugate = fq12_mul, fq12_cyclotomic_square, fq12_frobenius, fq12_conjugate
    f = f.coeffs
    # Easy part.
    f = mul(conjugate(f), fq12_inverse(f))      # f^(p^6 - 1)
    f = mul(frobenius(f, 2), f)                 # ^(p^2 + 1)
    # Hard part: f^(y0 + 2*y1 + 6*y2 + 12*y3 + 18*y4 + 30*y5 + 36*y6).
    ft = _cyclotomic_pow_t(f)
    ft2 = _cyclotomic_pow_t(ft)
    ft3 = _cyclotomic_pow_t(ft2)
    y0 = mul(mul(frobenius(f, 1), frobenius(f, 2)), frobenius(f, 3))    # p + p^2 + p^3
    y1 = conjugate(f)                                                   # -1
    y2 = frobenius(ft2, 2)                                              # t^2 p^2
    y3 = conjugate(frobenius(ft, 1))                                    # -t p
    y4 = conjugate(mul(ft, frobenius(ft2, 1)))                          # -t - t^2 p
    y5 = conjugate(ft2)                                                 # -t^2
    y6 = conjugate(mul(ft3, frobenius(ft3, 1)))                         # -t^3 - t^3 p
    t0 = mul(mul(square(y6), y4), y5)
    t1 = mul(mul(y3, y5), t0)
    t0 = mul(t0, y2)
    t1 = square(mul(square(t1), t0))
    t0 = square(mul(t1, y1))
    return Fq12(mul(t0, mul(t1, y0)))


def pairing(p: G1Point, q: G2Point) -> Fq12:
    """The full optimal-ate pairing e(P, Q)."""
    if not p.is_on_curve():
        raise CryptoError("pairing: P is not on G1")
    if not q.is_on_curve():
        raise CryptoError("pairing: Q is not on G2")
    return final_exponentiation(miller_loop(p, q))


def multi_pairing(pairs: list[tuple[G1Point, G2Point]]) -> Fq12:
    """Compute the product of pairings sharing one Miller accumulator and
    one final exponentiation.

    Used by BLS verification, where checking ``e(sig, -P2) * e(H(m), pk) == 1``
    this way saves well over half the work of two independent pairings.
    """
    for p, q in pairs:
        if not p.is_on_curve():
            raise CryptoError("multi_pairing: P is not on G1")
        if not q.is_on_curve():
            raise CryptoError("multi_pairing: Q is not on G2")
    return final_exponentiation(Fq12(_miller_loop(pairs)))
