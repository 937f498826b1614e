"""Boneh-Franklin IBE over BN254, with ciphertext anonymity.

The scheme follows the BasicIdent construction adapted to an asymmetric
pairing, used as a key-encapsulation mechanism around ChaCha20-Poly1305
(hybrid encryption):

* Setup:    master secret ``s``; master public ``P_pub = s * P2`` in G2.
* Extract:  ``d_id = s * H1(id)`` in G1.
* Encrypt:  pick ``r``; ``U = r * P2``; ``shared = e(r * H1(id), P_pub)``
            (``= e(H1(id), P_pub)^r`` by bilinearity, but the scalar costs a
            G1 multiplication instead of a GT exponentiation);
            seal the payload under ``H2(shared || U)``.
* Decrypt:  ``shared = e(d_id, U)`` and open the seal.

Ciphertext anonymity (§4.3 of the paper) holds because the only public-key
component of a ciphertext is ``U = r * P2``, a uniformly random G2 element
that is independent of the recipient identity; recipients discover whether a
ciphertext is theirs only by attempting the AEAD open.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.aead import AEAD_OVERHEAD, open_sealed, seal
from repro.crypto.bn254.curve import (
    G1Point,
    G2Point,
    G2_ENCODED_SIZE,
    g2_generator_mul,
    hash_to_g1,
)
from repro.crypto.bn254.field import CURVE_ORDER
from repro.crypto.bn254.pairing import pairing
from repro.crypto.hashing import hkdf
from repro.crypto.ibe.interface import IbeCiphertext, IbeScheme
from repro.errors import CryptoError, DecryptionError
from repro.utils.rng import random_bytes

# Size in bytes added to a plaintext by one IBE encryption: the G2 header
# plus the AEAD nonce/tag.  (The paper's prototype reports a 64-byte IBE
# ciphertext component using compressed BN-256 points; we use uncompressed
# 128-byte G2 encodings -- see analysis/sizes.py for how both are modelled.)
IBE_OVERHEAD = 2 + G2_ENCODED_SIZE + AEAD_OVERHEAD

_IDENTITY_DOMAIN = b"repro/bf-ibe/identity"
_KEY_DOMAIN = b"repro/bf-ibe/kdf"


@dataclass(frozen=True)
class IbeMasterKeyPair:
    """A PKG's per-round master key pair."""

    secret: int
    public: G2Point


@dataclass(frozen=True)
class IbePrivateKey:
    """A user's identity private key for one round (a G1 point)."""

    identity: str
    point: G1Point


def _hash_identity(identity: str) -> G1Point:
    return hash_to_g1(identity.encode("utf-8"), domain=_IDENTITY_DOMAIN)


def _derive_seal_key(shared: bytes, header: bytes) -> bytes:
    return hkdf(shared, salt=header, info=_KEY_DOMAIN, length=32)


class BonehFranklinIbe(IbeScheme):
    """Single-PKG Boneh-Franklin IBE backend."""

    def generate_master_keypair(self, seed: bytes | None = None) -> IbeMasterKeyPair:
        raw = seed if seed is not None else random_bytes(32)
        if len(raw) < 32:
            raise CryptoError("master key seed must be at least 32 bytes")
        secret = int.from_bytes(raw[:32], "big") % CURVE_ORDER
        if secret == 0:
            secret = 1
        public = g2_generator_mul(secret)
        return IbeMasterKeyPair(secret=secret, public=public)

    def extract(self, master_secret: int, identity: str) -> IbePrivateKey:
        if not 0 < master_secret < CURVE_ORDER:
            raise CryptoError("invalid master secret")
        point = _hash_identity(identity).scalar_mul(master_secret)
        return IbePrivateKey(identity=identity, point=point)

    def encrypt(self, master_public: G2Point, identity: str, message: bytes) -> IbeCiphertext:
        if master_public.is_identity():
            raise CryptoError("master public key is the identity point")
        r = int.from_bytes(random_bytes(32), "big") % CURVE_ORDER or 1
        u = g2_generator_mul(r)
        shared = pairing(_hash_identity(identity).scalar_mul(r), master_public).to_bytes()
        header = u.to_bytes()
        key = _derive_seal_key(shared, header)
        body = seal(key, message, associated_data=header)
        return IbeCiphertext(header=header, body=body)

    def decrypt(self, identity_private: IbePrivateKey, ciphertext: IbeCiphertext) -> bytes | None:
        try:
            u = G2Point.from_bytes(ciphertext.header)
        except CryptoError:
            return None
        if u.is_identity():
            return None
        shared = pairing(identity_private.point, u).to_bytes()
        key = _derive_seal_key(shared, ciphertext.header)
        try:
            return open_sealed(key, ciphertext.body, associated_data=ciphertext.header)
        except DecryptionError:
            return None

    def combine_master_publics(self, publics: list[G2Point]) -> G2Point:
        if not publics:
            raise CryptoError("no master public keys to combine")
        total = G2Point.identity()
        for public in publics:
            total = total + public
        return total

    def combine_private_keys(self, privates: list[IbePrivateKey]) -> IbePrivateKey:
        if not privates:
            raise CryptoError("no private keys to combine")
        identity = privates[0].identity
        total = G1Point.identity()
        for private in privates:
            if private.identity != identity:
                raise CryptoError("cannot combine private keys for different identities")
            total = total + private.point
        return IbePrivateKey(identity=identity, point=total)

    def master_public_to_bytes(self, public: G2Point) -> bytes:
        return public.to_bytes()

    def master_public_from_bytes(self, data: bytes) -> G2Point:
        return G2Point.from_bytes(data)

    def private_key_to_bytes(self, private: IbePrivateKey) -> bytes:
        return private.point.to_bytes()

    def private_key_from_bytes(self, identity: str, data: bytes) -> IbePrivateKey:
        return IbePrivateKey(identity=identity, point=G1Point.from_bytes(data))

    def ciphertext_overhead(self) -> int:
        return IBE_OVERHEAD
