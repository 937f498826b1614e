"""Common interface for identity-based encryption backends.

Alpenhorn's add-friend protocol only needs three operations from IBE
(§4.1 of the paper):

* ``Encrypt(master_public, identity, message) -> ciphertext``
* ``Decrypt(identity_private, ciphertext) -> (message, ok)``
* ``Extract(identity, master_secret) -> identity_private``

plus, for Anytrust-IBE, the ability to *combine* several master public keys
and several identity private keys by addition.  The interface below captures
this; the client and PKG code is written against it so the pairing-based and
simulated backends are interchangeable.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass


@dataclass(frozen=True)
class IbeCiphertext:
    """An anonymous IBE ciphertext.

    ``header`` carries the public-key part (for Boneh-Franklin, the point
    ``U = r*P2``); ``body`` carries the hybrid AEAD-sealed payload.  Neither
    part reveals the recipient identity (ciphertext anonymity, §4.3).
    """

    header: bytes
    body: bytes

    def to_bytes(self) -> bytes:
        return len(self.header).to_bytes(2, "big") + self.header + self.body

    @staticmethod
    def from_bytes(data: bytes) -> "IbeCiphertext":
        if len(data) < 2:
            raise ValueError("IBE ciphertext too short")
        header_len = int.from_bytes(data[:2], "big")
        if len(data) < 2 + header_len:
            raise ValueError("IBE ciphertext truncated")
        return IbeCiphertext(header=data[2 : 2 + header_len], body=data[2 + header_len :])

    def __len__(self) -> int:
        return 2 + len(self.header) + len(self.body)


class IbeScheme(abc.ABC):
    """Abstract IBE backend."""

    @abc.abstractmethod
    def generate_master_keypair(self, seed: bytes | None = None):
        """Create a fresh (master_public, master_secret) pair."""

    @abc.abstractmethod
    def extract(self, master_secret, identity: str):
        """Derive the private key for an identity from a master secret."""

    @abc.abstractmethod
    def encrypt(self, master_public, identity: str, message: bytes) -> IbeCiphertext:
        """Encrypt ``message`` to ``identity`` under ``master_public``."""

    @abc.abstractmethod
    def decrypt(self, identity_private, ciphertext: IbeCiphertext) -> bytes | None:
        """Decrypt, returning None if the ciphertext is not for this key."""

    @abc.abstractmethod
    def combine_master_publics(self, publics: list):
        """Sum master public keys (Anytrust-IBE encryption key)."""

    @abc.abstractmethod
    def combine_private_keys(self, privates: list):
        """Sum identity private keys (Anytrust-IBE decryption key)."""

    @abc.abstractmethod
    def master_public_to_bytes(self, public) -> bytes:
        """Canonical encoding of a master public key."""

    @abc.abstractmethod
    def master_public_from_bytes(self, data: bytes):
        """Inverse of :meth:`master_public_to_bytes`; ``CryptoError`` if malformed."""

    @abc.abstractmethod
    def private_key_to_bytes(self, private) -> bytes:
        """Canonical encoding of an identity private key (share)."""

    @abc.abstractmethod
    def private_key_from_bytes(self, identity: str, data: bytes):
        """Inverse of :meth:`private_key_to_bytes` for ``identity``'s key."""

    @abc.abstractmethod
    def ciphertext_overhead(self) -> int:
        """Bytes added on top of the plaintext by one IBE encryption."""
