"""Friend request wire format and authentication (Figure 3 and §4.5).

A friend request is what one user sends another, IBE-encrypted, through the
add-friend mixnet.  Its fields follow Figure 3 of the paper:

* ``sender_email``   -- who is asking to be friends,
* ``sender_key``     -- the sender's long-term Ed25519 signing key,
* ``sender_sig``     -- an Ed25519 signature by that key over the
  (email, dialing key, dialing round) tuple,
* ``pkg_sigs``       -- the aggregated BLS multi-signature from the PKGs
  attesting that ``sender_key`` belongs to ``sender_email`` for this round,
* ``dialing_key``    -- an ephemeral X25519 public key (the Diffie-Hellman
  half used to derive the keywheel secret), and
* ``dialing_round``  -- the dialing round at which the new keywheel starts.

One field extends Figure 3: ``is_confirmation`` marks the reply leg of the
handshake (Algorithm 1 step 5).  Recipients use it to answer re-sent
*initial* requests idempotently (re-send the stored reply) while never
responding to a duplicated confirmation -- without it, two confirmed peers
deduplicating each other's re-sends would answer each other forever.

Verification mirrors Algorithm 1 step 4: check the PKG multi-signature
against the aggregate PKG public key (one honest PKG suffices), and check
the sender's own signature.  If the recipient knows the sender's key
out-of-band, it is additionally compared against ``sender_key``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.attestation import DEFAULT_SCHEME, AttestationScheme
from repro.crypto.engine import active_backend
from repro.pkg.server import pkg_statement
from repro.utils.serialization import U64, Bytes, Fixed, Flag, Message, Str

_SENDER_SIG_DOMAIN = b"alpenhorn/friend-request/sender-sig"

SENDER_STATEMENT = Message(
    "sender_statement",
    Bytes("domain"), Str("email"), Bytes("dialing_key"), U64("dialing_round"),
    Flag("is_confirmation"),
)
#: A decrypted add-friend request (Figure 3): Ed25519 key and signature, the
#: aggregated PKG attestation (G1), the X25519 dialing key.
FRIEND_REQUEST = Message(
    "friend_request",
    Str("sender_email"), Fixed("sender_key", 32), Fixed("sender_sig", 64), Fixed("pkg_sigs", 64),
    Fixed("dialing_key", 32), U64("dialing_round"), U64("pkg_round"), Flag("is_confirmation"),
)


def sender_statement(
    email: str, dialing_key: bytes, dialing_round: int, is_confirmation: bool = False
) -> bytes:
    """The statement covered by ``sender_sig``."""
    return SENDER_STATEMENT.encode(
        _SENDER_SIG_DOMAIN, email.lower(), dialing_key, dialing_round, is_confirmation
    )


@dataclass
class FriendRequest:
    """A decrypted add-friend request (Figure 3)."""

    sender_email: str
    sender_key: bytes              # Ed25519 public key, 32 bytes
    sender_sig: bytes              # Ed25519 signature, 64 bytes
    pkg_sigs: bytes                # aggregated BLS signature (G1), 64 bytes
    dialing_key: bytes             # X25519 public key, 32 bytes
    dialing_round: int
    pkg_round: int                 # add-friend round the PKG attestation covers
    is_confirmation: bool = False  # the reply leg of the handshake

    # -- construction ------------------------------------------------------
    @staticmethod
    def build(
        sender_email: str,
        sender_signing_private: bytes,
        sender_signing_public: bytes,
        pkg_attestations: list,
        pkg_round: int,
        dialing_key: bytes,
        dialing_round: int,
        is_confirmation: bool = False,
        attestation_scheme: AttestationScheme | None = None,
    ) -> "FriendRequest":
        scheme = attestation_scheme if attestation_scheme is not None else DEFAULT_SCHEME
        statement = sender_statement(sender_email, dialing_key, dialing_round, is_confirmation)
        sender_sig = active_backend().ed25519_sign(sender_signing_private, statement)
        return FriendRequest(
            sender_email=sender_email.lower(),
            sender_key=sender_signing_public,
            sender_sig=sender_sig,
            pkg_sigs=scheme.aggregate(pkg_attestations),
            dialing_key=dialing_key,
            dialing_round=dialing_round,
            pkg_round=pkg_round,
            is_confirmation=is_confirmation,
        )

    # -- serialization ------------------------------------------------------
    def to_bytes(self) -> bytes:
        return FRIEND_REQUEST.encode(
            self.sender_email, self.sender_key, self.sender_sig, self.pkg_sigs,
            self.dialing_key, self.dialing_round, self.pkg_round, self.is_confirmation,
        )

    @staticmethod
    def from_bytes(data: bytes) -> "FriendRequest":
        return FriendRequest(*FRIEND_REQUEST.decode(data))

    def wire_size(self) -> int:
        return len(self.to_bytes())

    # -- verification ----------------------------------------------------------
    def verify(
        self,
        aggregate_pkg_public,
        expected_sender_key: bytes | None = None,
        attestation_scheme: AttestationScheme | None = None,
    ) -> bool:
        """Algorithm 1, step 4: ok1 (PKG attestation) and ok2 (sender sig).

        ``expected_sender_key`` is the out-of-band key, if the recipient has
        one; a mismatch fails verification regardless of the signatures.
        """
        scheme = attestation_scheme if attestation_scheme is not None else DEFAULT_SCHEME
        if expected_sender_key is not None and expected_sender_key != self.sender_key:
            return False
        ok1 = scheme.verify(
            aggregate_pkg_public,
            pkg_statement(self.sender_email, self.sender_key, self.pkg_round),
            self.pkg_sigs,
        )
        if not ok1:
            return False
        statement = sender_statement(
            self.sender_email, self.dialing_key, self.dialing_round, self.is_confirmation
        )
        return active_backend().ed25519_verify(self.sender_key, statement, self.sender_sig)
