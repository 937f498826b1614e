"""Pluggable PKG attestation schemes.

Every add-friend round, each PKG signs ``(email, signing_key, round)`` and
clients aggregate those attestations into the 64-byte ``PKGSigs`` field of a
friend request (§4.5).  The paper uses BLS multi-signatures; at simulation
scale (100k clients x several PKGs x rounds) the pairing-curve scalar
multiplications dominate wall-clock the same way pure-Python ChaCha20 did
before the pluggable crypto engine.

This module makes the scheme itself pluggable, mirroring
:mod:`repro.crypto.engine`:

* ``"bls"`` -- the real multi-signature over BN254 (the default; what the
  deployed system would run and what the crypto unit tests pin).
* ``"simulated"`` -- an oracle stand-in for protocol-scale simulation: the
  attestation is a hash bound to the PKG's *public* key and the statement,
  aggregation is a bytewise XOR, and verification recomputes the XOR from
  the individual public keys.  Anyone can forge it (the "secret" never
  enters), so it models the protocol flow and the exact wire sizes -- both
  the per-PKG attestation and the aggregate are
  :data:`ATTESTATION_SIZE` = 64 bytes, like a compressed G1 point -- with
  none of the security, which is precisely the trade the simulated IBE
  backend already makes.

Schemes reuse the PKGs' existing BLS keypairs, so swapping the scheme never
changes key distribution, configuration, or message layouts.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod

from repro.crypto import bls
from repro.errors import ConfigurationError, CryptoError

#: Wire size of one attestation and of the aggregate (a compressed G1 point).
ATTESTATION_SIZE = 64


class AttestationScheme(ABC):
    """One way for PKGs to attest ``(email, signing_key, round)`` bindings."""

    name: str

    @abstractmethod
    def attest(self, secret, public, statement: bytes) -> object:
        """One PKG's attestation over ``statement`` (scheme-specific type)."""

    @abstractmethod
    def to_bytes(self, attestation) -> bytes:
        """One PKG's attestation as its :data:`ATTESTATION_SIZE` wire bytes."""

    @abstractmethod
    def from_bytes(self, data: bytes) -> object:
        """Inverse of :meth:`to_bytes`; ``CryptoError`` if malformed."""

    @abstractmethod
    def aggregate(self, attestations: list) -> bytes:
        """Combine per-PKG attestations into the 64-byte ``PKGSigs`` field."""

    @abstractmethod
    def aggregate_publics(self, publics: list) -> object:
        """The verification key for an aggregate (scheme-specific type)."""

    @abstractmethod
    def verify(self, aggregate_public, statement: bytes, aggregate_sig: bytes) -> bool:
        """Check a 64-byte aggregate against the aggregated public key."""


class BlsAttestation(AttestationScheme):
    """The paper's scheme: BLS multi-signatures over BN254 (§4.5)."""

    name = "bls"

    def attest(self, secret, public, statement: bytes):
        return bls.sign(secret, statement)

    def to_bytes(self, attestation) -> bytes:
        return bls.signature_to_bytes(attestation)

    def from_bytes(self, data: bytes):
        return bls.signature_from_bytes(data)

    def aggregate(self, attestations: list) -> bytes:
        return bls.aggregate_signatures(attestations).to_bytes()

    def aggregate_publics(self, publics: list):
        return bls.aggregate_publics(publics)

    def verify(self, aggregate_public, statement: bytes, aggregate_sig: bytes) -> bool:
        try:
            signature = bls.signature_from_bytes(aggregate_sig)
        except Exception:
            return False
        return bls.verify(aggregate_public, statement, signature)


class SimulatedAttestation(AttestationScheme):
    """Oracle scheme for protocol-scale simulation: hash, XOR, recompute.

    The attestation is derived from the PKG's *public* key, so verification
    can recompute it -- and so can anyone else.  Size and flow match BLS
    exactly; security is explicitly not modeled (simulation only).
    """

    name = "simulated"

    _DOMAIN = b"alpenhorn/sim-attestation"

    def _attest_bytes(self, public, statement: bytes) -> bytes:
        raw = public if isinstance(public, (bytes, bytearray)) else public.to_bytes()
        return hashlib.sha512(self._DOMAIN + bytes(raw) + statement).digest()[:ATTESTATION_SIZE]

    def attest(self, secret, public, statement: bytes) -> bytes:
        return self._attest_bytes(public, statement)

    def to_bytes(self, attestation: bytes) -> bytes:
        return attestation

    def from_bytes(self, data: bytes) -> bytes:
        if len(data) != ATTESTATION_SIZE:
            raise CryptoError(f"attestation must be {ATTESTATION_SIZE} bytes, got {len(data)}")
        return data

    def aggregate(self, attestations: list) -> bytes:
        if not attestations:
            raise CryptoError("cannot aggregate zero attestations")
        combined = bytearray(ATTESTATION_SIZE)
        for attestation in attestations:
            if len(attestation) != ATTESTATION_SIZE:
                raise CryptoError(
                    f"attestation must be {ATTESTATION_SIZE} bytes, got {len(attestation)}"
                )
            for i, byte in enumerate(attestation):
                combined[i] ^= byte
        return bytes(combined)

    def aggregate_publics(self, publics: list):
        if not publics:
            raise CryptoError("cannot aggregate zero public keys")
        return tuple(publics)

    def verify(self, aggregate_public, statement: bytes, aggregate_sig: bytes) -> bool:
        expected = self.aggregate(
            [self._attest_bytes(public, statement) for public in aggregate_public]
        )
        return expected == aggregate_sig


_SCHEMES: dict[str, AttestationScheme] = {
    BlsAttestation.name: BlsAttestation(),
    SimulatedAttestation.name: SimulatedAttestation(),
}

#: What every call site that predates pluggable attestation gets.
DEFAULT_SCHEME = _SCHEMES["bls"]


def registered_schemes() -> list[str]:
    return sorted(_SCHEMES)


def get_scheme(name: str) -> AttestationScheme:
    scheme = _SCHEMES.get(name)
    if scheme is None:
        raise ConfigurationError(
            f"unknown attestation backend {name!r}; registered: {registered_schemes()}"
        )
    return scheme
