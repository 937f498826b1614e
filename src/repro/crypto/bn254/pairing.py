"""Optimal-ate pairing on BN254.

The pairing ``e: G1 x G2 -> GT`` (GT being the order-r subgroup of Fq12*)
is computed with the standard optimal-ate construction for Barreto-Naehrig
curves: a Miller loop of length ``6t + 2`` over the twist, two extra line
evaluations at the Frobenius images of Q, and a final exponentiation to the
power ``(p^12 - 1) / r`` (split into its easy and hard parts).

All line evaluations keep the G2 point in Fq2 twist coordinates; a line has
only three nonzero w-basis coefficients and is multiplied into the
accumulator in that sparse form (:meth:`Fq12.mul_by_line`), which avoids
ever materialising points, or lines, with Fq12 coordinates.
"""

from __future__ import annotations

from repro.crypto.bn254.curve import G1Point, G2Point
from repro.crypto.bn254.field import (
    ATE_LOOP_COUNT,
    BN_PARAMETER_T,
    FIELD_MODULUS,
    Fq2,
    Fq6,
    Fq12,
    XI,
)
from repro.errors import CryptoError

_P = FIELD_MODULUS

# Frobenius twist constants: applying the p-power Frobenius to an untwisted
# point psi(x, y) = (x w^2, y w^3) keeps it in twisted form with
# x -> conj(x) * gamma1^2 and y -> conj(y) * gamma1^3, gamma1 = xi^((p-1)/6).
_GAMMA1 = XI.pow((_P - 1) // 6)
_TWIST_FROB_X = _GAMMA1.square()
_TWIST_FROB_Y = _GAMMA1.square() * _GAMMA1

_LOOP_BITS = bin(ATE_LOOP_COUNT)[3:]  # below the leading one, MSB first
_T_BITS = bin(BN_PARAMETER_T)[3:]


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


def _miller_loop(pairs: list[tuple[G1Point, G2Point]]) -> Fq12:
    """The product of the pairs' Miller functions, computed in lock-step.

    All pairs share one accumulator, so the Fq12 squaring happens once per
    loop bit rather than once per bit per pair.  Pairs containing the point
    at infinity contribute a factor of one and are skipped.
    """
    pairs = [(p, q) for p, q in pairs if not (p.is_identity() or q.is_identity())]
    f = Fq12.one()
    rs = [q for _, q in pairs]
    for bit in _LOOP_BITS:
        f = f.square()
        for i, (p, q) in enumerate(pairs):
            f, rs[i] = _line_step(f, rs[i], rs[i], p)
            if bit == "1":
                f, rs[i] = _line_step(f, rs[i], q, p)

    for (p, q), r in zip(pairs, rs):
        q1 = _frobenius_g2(q)
        q2 = -_frobenius_g2(q1)
        f, r = _line_step(f, r, q1, p)
        f, _ = _line_step(f, r, q2, p)
    return f


def miller_loop(p: G1Point, q: G2Point) -> Fq12:
    """The optimal-ate Miller loop (without the final exponentiation)."""
    return _miller_loop([(p, q)])


def _cyclotomic_pow_t(f: Fq12) -> Fq12:
    """``f^t`` for ``f`` in the cyclotomic subgroup (t is the BN parameter)."""
    result = f
    for bit in _T_BITS:
        result = result.cyclotomic_square()
        if bit == "1":
            result = result * f
    return result


def final_exponentiation(f: Fq12) -> Fq12:
    """Raise a Miller-loop output to the power ``(p^12 - 1) / r``.

    Split into the "easy" part ``(p^6 - 1)(p^2 + 1)`` (cheap, via Frobenius
    and one inversion) and the "hard" part, for which BN curves give the
    exact decomposition (Devegili, Scott, Dahab 2007)::

        (p^4 - p^2 + 1) / r = p^3 + (6t^2 + 1) p^2
                              + (-36t^3 - 18t^2 - 12t + 1) p
                              + (-36t^3 - 30t^2 - 18t - 2)

    so it costs three exponentiations by the 63-bit ``t``, a handful of
    Frobenius maps and a short addition chain.  After the easy part the
    element lies in the cyclotomic subgroup, where inversion is conjugation
    and squaring is :meth:`Fq12.cyclotomic_square`.
    """
    if f.is_zero():
        raise CryptoError("cannot exponentiate zero")
    # Easy part.
    f = f.conjugate() * f.inverse()          # f^(p^6 - 1)
    f = f.frobenius(2) * f                   # ^(p^2 + 1)
    # Hard part: f^(y0 + 2*y1 + 6*y2 + 12*y3 + 18*y4 + 30*y5 + 36*y6).
    ft = _cyclotomic_pow_t(f)
    ft2 = _cyclotomic_pow_t(ft)
    ft3 = _cyclotomic_pow_t(ft2)
    y0 = f.frobenius(1) * f.frobenius(2) * f.frobenius(3)    # p + p^2 + p^3
    y1 = f.conjugate()                                       # -1
    y2 = ft2.frobenius(2)                                    # t^2 p^2
    y3 = ft.frobenius(1).conjugate()                         # -t p
    y4 = (ft * ft2.frobenius(1)).conjugate()                 # -t - t^2 p
    y5 = ft2.conjugate()                                     # -t^2
    y6 = (ft3 * ft3.frobenius(1)).conjugate()                # -t^3 - t^3 p
    t0 = y6.cyclotomic_square() * y4 * y5
    t1 = y3 * y5 * t0
    t0 = t0 * y2
    t1 = (t1.cyclotomic_square() * t0).cyclotomic_square()
    t0 = (t1 * y1).cyclotomic_square()
    return t0 * (t1 * y0)


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
    return final_exponentiation(_miller_loop(pairs))
