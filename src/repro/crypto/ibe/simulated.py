"""A functional (insecure) IBE backend for large-scale simulation.

The paper's evaluation runs millions of clients against Go + assembly
pairings; a pure-Python pairing cannot sustain that volume, which would make
the *protocol-level* experiments (mailbox sizes, noise volumes, round
structure, skewed workloads) needlessly slow without changing what they
measure.  ``SimulatedIbe`` therefore provides an oracle-based stand-in with
the same interface and the same ciphertext layout/overhead knobs:

* "master secrets" are 32-byte seeds held by a process-local oracle,
* identity private keys are HMAC(master_seed, identity),
* "encryption to an identity" derives the same HMAC through the oracle and
  seals the payload under it.

This is NOT public-key cryptography -- an encryptor holding only the master
*public* handle could not do this outside a single process -- and it is
clearly labelled as such.  Every security-relevant test in the repository
uses the real Boneh-Franklin backend; the simulated backend is only wired
into the benchmark deployments (see ``AlpenhornConfig.ibe_backend``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.aead import AEAD_OVERHEAD, open_sealed, seal
from repro.crypto.hashing import hmac_sha256
from repro.crypto.ibe.interface import IbeCiphertext, IbeScheme
from repro.errors import CryptoError, DecryptionError
from repro.utils.rng import random_bytes

# Header mimics the real scheme's G2 element so that simulated wire formats
# have realistic sizes (configurable via analysis/sizes.py for the paper's
# compressed 64-byte encoding).  Keys encode at the BN254 widths too: a
# master public key as a G2 element, an identity private key as a G1 one.
_SIM_HEADER_SIZE = 128
_SIM_MASTER_PUBLIC_SIZE = 128
_SIM_PRIVATE_KEY_SIZE = 64
SIMULATED_IBE_OVERHEAD = 2 + _SIM_HEADER_SIZE + AEAD_OVERHEAD


@dataclass(frozen=True)
class SimulatedMasterKeyPair:
    secret: bytes
    public: bytes  # an opaque handle; equals HMAC(secret, "public-handle")


@dataclass(frozen=True)
class SimulatedPrivateKey:
    identity: str
    key: bytes


def _pad(value: bytes, size: int) -> bytes:
    """A 32-byte simulated value zero-padded to the real scheme's width."""
    if len(value) != 32:
        raise CryptoError("simulated keys are 32 bytes")
    return value + bytes(size - 32)


def _unpad(data: bytes, size: int) -> bytes:
    if len(data) != size or data[32:] != bytes(size - 32):
        raise CryptoError(f"simulated key encoding must be 32 bytes zero-padded to {size}")
    return data[:32]


class SimulatedPkgOracle:
    """Process-local registry mapping public handles back to master seeds.

    The oracle is what makes "encryption with only the public key" possible
    in the simulation: it re-derives the per-identity key on behalf of the
    encryptor.  Real deployments have no such oracle; this class exists only
    so protocol simulations exercise byte-identical message flows.
    """

    def __init__(self) -> None:
        self._secrets: dict[bytes, bytes] = {}

    def register(self, keypair: SimulatedMasterKeyPair) -> None:
        self._secrets[keypair.public] = keypair.secret

    def identity_key(self, public_handle: bytes, identity: str) -> bytes:
        if public_handle not in self._secrets:
            raise CryptoError("unknown simulated master public handle")
        return hmac_sha256(self._secrets[public_handle], identity.encode("utf-8"))


class SimulatedIbe(IbeScheme):
    """Oracle-backed IBE stand-in (insecure; simulation only)."""

    def __init__(self, oracle: SimulatedPkgOracle | None = None) -> None:
        self.oracle = oracle if oracle is not None else SimulatedPkgOracle()

    def generate_master_keypair(self, seed: bytes | None = None) -> SimulatedMasterKeyPair:
        secret = seed if seed is not None else random_bytes(32)
        if len(secret) < 32:
            raise CryptoError("master key seed must be at least 32 bytes")
        secret = secret[:32]
        public = hmac_sha256(secret, b"public-handle")
        keypair = SimulatedMasterKeyPair(secret=secret, public=public)
        self.oracle.register(keypair)
        return keypair

    def extract(self, master_secret: bytes, identity: str) -> SimulatedPrivateKey:
        return SimulatedPrivateKey(
            identity=identity, key=hmac_sha256(master_secret, identity.encode("utf-8"))
        )

    def _combined_key(self, publics_blob: bytes, identity: str) -> bytes:
        # Combination of per-PKG identity keys is XOR, matching how
        # combine_private_keys aggregates below.
        keys = [
            self.oracle.identity_key(publics_blob[i : i + 32], identity)
            for i in range(0, len(publics_blob), 32)
        ]
        combined = bytes(32)
        for key in keys:
            combined = bytes(a ^ b for a, b in zip(combined, key))
        return combined

    def encrypt(self, master_public: bytes, identity: str, message: bytes) -> IbeCiphertext:
        if len(master_public) % 32 != 0 or not master_public:
            raise CryptoError("invalid simulated master public handle")
        key = self._combined_key(master_public, identity)
        header = random_bytes(_SIM_HEADER_SIZE)
        body = seal(hmac_sha256(key, header), message, associated_data=header)
        return IbeCiphertext(header=header, body=body)

    def decrypt(self, identity_private: SimulatedPrivateKey, ciphertext: IbeCiphertext) -> bytes | None:
        key = hmac_sha256(identity_private.key, ciphertext.header)
        try:
            return open_sealed(key, ciphertext.body, associated_data=ciphertext.header)
        except DecryptionError:
            return None

    def combine_master_publics(self, publics: list[bytes]) -> bytes:
        if not publics:
            raise CryptoError("no master public keys to combine")
        return b"".join(publics)

    def combine_private_keys(self, privates: list[SimulatedPrivateKey]) -> SimulatedPrivateKey:
        if not privates:
            raise CryptoError("no private keys to combine")
        identity = privates[0].identity
        combined = bytes(32)
        for private in privates:
            if private.identity != identity:
                raise CryptoError("cannot combine private keys for different identities")
            combined = bytes(a ^ b for a, b in zip(combined, private.key))
        return SimulatedPrivateKey(identity=identity, key=combined)

    def master_public_to_bytes(self, public: bytes) -> bytes:
        return _pad(public, _SIM_MASTER_PUBLIC_SIZE)

    def master_public_from_bytes(self, data: bytes) -> bytes:
        return _unpad(data, _SIM_MASTER_PUBLIC_SIZE)

    def private_key_to_bytes(self, private: SimulatedPrivateKey) -> bytes:
        return _pad(private.key, _SIM_PRIVATE_KEY_SIZE)

    def private_key_from_bytes(self, identity: str, data: bytes) -> SimulatedPrivateKey:
        return SimulatedPrivateKey(identity=identity, key=_unpad(data, _SIM_PRIVATE_KEY_SIZE))

    def ciphertext_overhead(self) -> int:
        return SIMULATED_IBE_OVERHEAD
