"""A single PKG server: per-round master keys, extraction, attestations.

Each PKG holds a long-term BLS signing key (whose public half is baked into
the client configuration, like a CA certificate) and, for every add-friend
round, a short-lived IBE master key pair.  A client that authenticates with
its registered long-term Ed25519 key receives:

* its identity private-key *share* for the round (to be summed with the
  shares from the other PKGs -- Anytrust-IBE), and
* a BLS signature over ``(email, signing_key, round)`` which, aggregated
  across PKGs, becomes the ``PKGSigs`` field of friend requests (§4.5).

Forward secrecy (§4.4): when a round closes, the PKG deletes that round's
master secret, so a later compromise of every PKG cannot recover the
identity keys used in past rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import bls
from repro.crypto.attestation import DEFAULT_SCHEME, AttestationScheme
from repro.crypto.engine import active_backend
from repro.crypto.ibe.interface import IbeScheme
from repro.emailsim.provider import EmailNetwork
from repro.errors import ExtractionError, NetworkError, RoundError
from repro.net import rpc
from repro.net.transport import RpcRequest, RpcResult
from repro.pkg.registration import RegistrationManager
from repro.utils.serialization import U64, Bytes, Message, Str


# The signed statements; ``domain`` separates them.
PKG_STATEMENT = Message(
    "pkg_statement", Str("domain"), Str("email"), Bytes("signing_key"), U64("round")
)
EXTRACTION_REQUEST_STATEMENT = Message(
    "extraction_request_statement", Str("domain"), Str("email"), U64("round")
)
DEREGISTER_STATEMENT = Message("deregister_statement", Str("domain"), Str("email"))


def pkg_statement(email: str, signing_key: bytes, round_number: int) -> bytes:
    """The statement each PKG signs when handing out a round key (§4.5)."""
    return PKG_STATEMENT.encode(
        "alpenhorn/pkg-attestation", email.lower(), signing_key, round_number
    )


def extraction_request_statement(email: str, round_number: int) -> bytes:
    """The statement a user signs to authenticate a key-extraction request."""
    return EXTRACTION_REQUEST_STATEMENT.encode(
        "alpenhorn/extraction-request", email.lower(), round_number
    )


@dataclass
class ExtractionResponse:
    """What one PKG returns for a key-extraction request."""

    pkg_name: str
    round_number: int
    private_key_share: object  # backend-specific identity private key share
    attestation: object  # scheme-specific attestation over pkg_statement(...)


class PkgServer:
    """One private key generator in the anytrust set."""

    def __init__(
        self,
        name: str,
        ibe_backend: IbeScheme,
        email_network: EmailNetwork,
        bls_seed: bytes | None = None,
        attestation: AttestationScheme | None = None,
    ) -> None:
        self.name = name
        self.ibe = ibe_backend
        self.attestation = attestation if attestation is not None else DEFAULT_SCHEME
        self.registration = RegistrationManager(pkg_name=name, email_network=email_network)
        self.signing_keypair = bls.generate_keypair(seed=bls_seed)
        # round -> master key pair; closed rounds have their secrets deleted.
        self._round_masters: dict[int, object] = {}
        self._closed_rounds: set[int] = set()
        self.extractions_served = 0

    # -- identity ---------------------------------------------------------
    @property
    def bls_public_key(self):
        """Long-term attestation key, distributed with the client software."""
        return self.signing_keypair.public

    # -- registration (delegates to the registration manager) -------------
    def begin_registration(self, email: str, signing_key: bytes, now: float) -> None:
        self.registration.begin_registration(email, signing_key, now)

    def confirm_registration(self, email: str, token: str, now: float) -> None:
        self.registration.confirm_registration(email, token, now)

    def deregister(self, email: str, signature: bytes, now: float) -> None:
        """Deregister an account; must be signed with the registered key (§9)."""
        record = self.registration.lookup(email)
        if record is None:
            raise ExtractionError(f"{email} is not registered")
        statement = self.deregistration_statement(email)
        if not active_backend().ed25519_verify(record.signing_key, statement, signature):
            raise ExtractionError("deregistration signature invalid")
        self.registration.deregister(email, now)

    @staticmethod
    def deregistration_statement(email: str) -> bytes:
        return DEREGISTER_STATEMENT.encode("alpenhorn/deregister", email.lower())

    # -- round lifecycle ----------------------------------------------------
    def open_round(self, round_number: int, seed: bytes | None = None):
        """Generate this round's IBE master key pair; returns the public half."""
        if round_number in self._closed_rounds:
            raise RoundError(f"round {round_number} already closed on {self.name}")
        if round_number not in self._round_masters:
            self._round_masters[round_number] = self.ibe.generate_master_keypair(seed)
        return self._round_masters[round_number].public

    def close_round(self, round_number: int) -> None:
        """Forget the round's master secret (forward secrecy, §4.4)."""
        self._round_masters.pop(round_number, None)
        self._closed_rounds.add(round_number)

    def has_master_secret(self, round_number: int) -> bool:
        """Used by forward-secrecy tests: is the secret still in memory?"""
        return round_number in self._round_masters

    # -- key extraction -------------------------------------------------------
    def extract(
        self,
        email: str,
        round_number: int,
        request_signature: bytes,
        now: float,
    ) -> ExtractionResponse:
        """Hand the user their identity private-key share for one round.

        The request must be signed with the long-term key registered for the
        email address; this is the automatic second step of authentication
        described in §4.6.
        """
        email = email.lower()
        record = self.registration.lookup(email)
        if record is None or record.deregistered_at is not None:
            raise ExtractionError(f"{email} is not registered with {self.name}")
        statement = extraction_request_statement(email, round_number)
        if not active_backend().ed25519_verify(record.signing_key, statement, request_signature):
            raise ExtractionError("extraction request signature invalid")
        master = self._round_masters.get(round_number)
        if master is None:
            raise RoundError(f"round {round_number} is not open on {self.name}")

        self.registration.record_extraction(email, now)
        self.extractions_served += 1
        share = self.ibe.extract(master.secret, email)
        attestation = self.attestation.attest(
            self.signing_keypair.secret,
            self.signing_keypair.public,
            pkg_statement(email, record.signing_key, round_number),
        )
        return ExtractionResponse(
            pkg_name=self.name,
            round_number=round_number,
            private_key_share=share,
            attestation=attestation,
        )

    # -- transport dispatch --------------------------------------------------
    def handle_rpc(self, request: RpcRequest) -> RpcResult:
        """Serve one framed RPC (see ``repro/net/rpc.py`` for the layouts).

        Timestamps come from the transport's delivery time (``request.time``):
        a networked PKG trusts its own clock, not one claimed by the client.
        """
        if request.method == "begin_registration":
            email, signing_key = rpc.REGISTRATION_REQUEST.decode(request.payload)
            self.begin_registration(email, signing_key, now=request.time)
            return RpcResult()
        if request.method == "confirm_registration":
            email, token = rpc.REGISTRATION_REQUEST.decode(request.payload)
            self.confirm_registration(email, token.decode("utf-8"), now=request.time)
            return RpcResult()
        if request.method == "deregister":
            email, signature = rpc.REGISTRATION_REQUEST.decode(request.payload)
            self.deregister(email, signature, now=request.time)
            return RpcResult()
        if request.method == "extract":
            email, round_number, signature = rpc.EXTRACT_REQUEST.decode(request.payload)
            response = self.extract(email, round_number, signature, now=request.time)
            return RpcResult(
                payload=rpc.EXTRACTION_RESPONSE.encode(
                    response.pkg_name,
                    response.round_number,
                    self.ibe.private_key_to_bytes(response.private_key_share),
                    self.attestation.to_bytes(response.attestation),
                )
            )

        (round_number,) = rpc.PKG_ROUND_REF.decode(request.payload)
        if request.method == "open_round":
            public = self.open_round(round_number)
            return RpcResult(payload=self.ibe.master_public_to_bytes(public))
        if request.method == "close_round":
            self.close_round(round_number)
            return RpcResult()
        if request.method == "has_master_secret":
            return RpcResult(payload=rpc.FLAG_REPLY.encode(self.has_master_secret(round_number)))
        raise NetworkError(f"PKG {self.name} has no RPC method {request.method!r}")
