"""BN254 (alt_bn128) pairing-friendly curve, implemented from scratch.

The paper's prototype uses the BN-256 curve with an AMD64-assembly pairing
(§7).  We substitute BN254 / alt_bn128 -- the same Barreto-Naehrig curve
family with public, widely cross-checked parameters -- implemented in pure
Python.  The algebraic structure (asymmetric pairing e: G1 x G2 -> GT,
sextic twist, 254-bit prime field) is identical, so the Boneh-Franklin IBE,
Anytrust-IBE and BLS multi-signature layers built on top exercise exactly
the code paths the paper describes.

Module layout:

* :mod:`repro.crypto.bn254.field`   -- Fq -> Fq2 -> Fq6 -> Fq12 tower kernels
  on flat integers, and the ``Fq2``/``Fq12`` value types.
* :mod:`repro.crypto.bn254.curve`   -- affine G1/G2 group operations,
  serialization, hashing to G1, the fixed-base table for the G2 generator.
* :mod:`repro.crypto.bn254.pairing` -- optimal-ate Miller loop and final
  exponentiation.
"""

from repro.crypto.bn254.field import FIELD_MODULUS, CURVE_ORDER, Fq2, Fq12
from repro.crypto.bn254.curve import (
    G1Point,
    G2Point,
    g1_generator,
    g2_generator,
    g2_generator_mul,
    hash_to_g1,
)
from repro.crypto.bn254.pairing import pairing

__all__ = [
    "FIELD_MODULUS",
    "CURVE_ORDER",
    "Fq2",
    "Fq12",
    "G1Point",
    "G2Point",
    "g1_generator",
    "g2_generator",
    "g2_generator_mul",
    "hash_to_g1",
    "pairing",
]
