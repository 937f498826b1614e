"""BLS signatures and same-message multi-signatures over BN254.

Used for the ``PKGSigs`` field of friend requests (§4.5 of the paper): every
PKG signs the statement ``(email, long-term signing key, round)`` when it
hands the user their IBE private key, the user aggregates the n signatures
into one compact value, and the recipient verifies the aggregate against the
sum of the PKG public keys.  As long as one PKG is honest, a valid aggregate
convinces the recipient that the sender's long-term key really belongs to
the claimed email address.

Scheme (Boneh-Lynn-Shacham, asymmetric setting):

* key pair:  ``sk`` random scalar, ``pk = sk * P2`` in G2;
* sign:      ``sig = sk * H(m)`` in G1;
* verify:    ``e(sig, P2) == e(H(m), pk)``;
* aggregate (same message m): ``sig_agg = sum(sig_i)``, verified against
  ``pk_agg = sum(pk_i)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.bn254.curve import (
    G1Point,
    G2Point,
    g2_generator,
    g2_generator_mul,
    hash_to_g1,
)
from repro.crypto.bn254.field import CURVE_ORDER
from repro.crypto.bn254.pairing import multi_pairing
from repro.errors import CryptoError, SignatureError
from repro.utils.rng import random_bytes

_MESSAGE_DOMAIN = b"repro/bls/message"

SIGNATURE_SIZE = 64  # uncompressed G1
PUBLIC_KEY_SIZE = 128  # uncompressed G2


@dataclass(frozen=True)
class BlsKeyPair:
    secret: int
    public: G2Point


def generate_keypair(seed: bytes | None = None) -> BlsKeyPair:
    """Generate a BLS key pair (optionally from a 32-byte seed)."""
    raw = seed if seed is not None else random_bytes(32)
    if len(raw) < 32:
        raise CryptoError("BLS seed must be at least 32 bytes")
    secret = int.from_bytes(raw[:32], "big") % CURVE_ORDER
    if secret == 0:
        secret = 1
    return BlsKeyPair(secret=secret, public=g2_generator_mul(secret))


def hash_message(message: bytes) -> G1Point:
    """Hash a message into G1 (the signing group)."""
    return hash_to_g1(message, domain=_MESSAGE_DOMAIN)


def sign(secret: int, message: bytes) -> G1Point:
    """Sign a message with a BLS secret key."""
    if not 0 < secret < CURVE_ORDER:
        raise CryptoError("invalid BLS secret key")
    return hash_message(message).scalar_mul(secret)


def verify(public: G2Point, message: bytes, signature: G1Point) -> bool:
    """Verify a (possibly aggregated) BLS signature.

    Uses a product-of-pairings check, ``e(sig, -P2) * e(H(m), pk) == 1``,
    so only one final exponentiation is needed.
    """
    if signature.is_identity() or public.is_identity():
        return False
    if not signature.is_on_curve() or not public.is_on_curve():
        return False
    result = multi_pairing([
        (signature, -g2_generator()),
        (hash_message(message), public),
    ])
    return result.is_one()


def verify_strict(public: G2Point, message: bytes, signature: G1Point) -> None:
    """Like :func:`verify` but raises :class:`SignatureError` on failure."""
    if not verify(public, message, signature):
        raise SignatureError("BLS signature verification failed")


def aggregate_signatures(signatures: list[G1Point]) -> G1Point:
    """Aggregate same-message signatures into one G1 point (``PKGSigs``)."""
    if not signatures:
        raise CryptoError("no signatures to aggregate")
    total = G1Point.identity()
    for signature in signatures:
        total = total + signature
    return total


def aggregate_publics(publics: list[G2Point]) -> G2Point:
    """Aggregate the corresponding public keys for verification."""
    if not publics:
        raise CryptoError("no public keys to aggregate")
    total = G2Point.identity()
    for public in publics:
        total = total + public
    return total


def signature_to_bytes(signature: G1Point) -> bytes:
    return signature.to_bytes()


def signature_from_bytes(data: bytes) -> G1Point:
    return G1Point.from_bytes(data)


def public_to_bytes(public: G2Point) -> bytes:
    return public.to_bytes()


def public_from_bytes(data: bytes) -> G2Point:
    return G2Point.from_bytes(data)
