"""The entry server: announces rounds, batches client requests (§7).

The paper's prototype separates an *entry server* from the mixnet and PKGs.
Its jobs are to hold the (many) client connections, announce when a new
round starts -- including everything a client needs to participate: the
round number, the mixnet round public keys, the PKG round master public
keys, the number of mailboxes, and the expected request size -- and to
aggregate all client envelopes into a single batch handed to the first mix
server.  The entry server is untrusted: it sees only onion-encrypted,
fixed-size envelopes, one per client per round.

As an extension (§9, "DoS attacks"), the entry server can require a valid
blind-signature rate token per submitted request.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

from repro.crypto import blind
from repro.errors import NetworkError, RateLimitError, RoundError
from repro.mixnet.chain import MixChain, RoundResult
from repro.net import rpc
from repro.net.transport import RpcRequest, RpcResult
from repro.pkg.coordinator import PkgCoordinator


@dataclass
class RoundAnnouncement:
    """Everything a client needs to participate in one round."""

    protocol: str
    round_number: int
    mix_public_keys: list[bytes]
    pkg_public_keys: list
    mailbox_count: int
    request_body_length: int
    #: With a sharded entry/CDN tier (see ``repro.cluster``), the per-round
    #: routing table: which shard owns which contiguous mailbox-ID range.
    #: ``None`` under the default single entry server / single CDN.
    shard_directory: object = None


@dataclass
class _OpenRound:
    announcement: RoundAnnouncement
    envelopes: list[bytes] = field(default_factory=list)
    submitted_by: set[str] = field(default_factory=set)


class EntryServer:
    """Coordinates rounds for both protocols and feeds batches to the mixnet."""

    def __init__(
        self,
        mix_chain: MixChain,
        pkg_coordinator: PkgCoordinator | None = None,
        rate_limit_verifier: blind.TokenVerifier | None = None,
        cdn=None,
    ) -> None:
        self.mix_chain = mix_chain
        self.pkg_coordinator = pkg_coordinator
        self.rate_limit_verifier = rate_limit_verifier
        #: Where the ``close_round`` RPC publishes the round's mailboxes (a
        #: :class:`~repro.net.rpc.CdnStub`): whoever ran the mix chain
        #: publishes, so mailboxes cross the wire once, entry -> CDN.
        self.cdn = cdn
        self._open_rounds: dict[tuple[str, int], _OpenRound] = {}

    # -- round lifecycle ---------------------------------------------------
    def announce_round(
        self,
        protocol: str,
        round_number: int,
        mailbox_count: int,
        request_body_length: int,
    ) -> RoundAnnouncement:
        """Open a round: collect server round keys and publish the parameters."""
        key = (protocol, round_number)
        if key in self._open_rounds:
            return self._open_rounds[key].announcement

        pkg_publics: list = []
        try:
            mix_publics = self.mix_chain.open_round(protocol, round_number)
            if protocol == "add-friend" and self.pkg_coordinator is not None:
                pkg_publics = list(self.pkg_coordinator.open_round(round_number).public_keys)
        except Exception:
            # The round cannot open (e.g. a server is unreachable during
            # key setup).  Erase whatever round secrets were already
            # generated -- leaving them live would defeat the forward
            # secrecy the close path exists to provide.  Mix round keys are
            # namespaced by (protocol, round), so a failed *dialing* announce
            # cannot poison the same-numbered add-friend round's keys.
            self.abort_round(protocol, round_number)
            raise

        announcement = RoundAnnouncement(
            protocol=protocol,
            round_number=round_number,
            mix_public_keys=mix_publics,
            pkg_public_keys=pkg_publics,
            mailbox_count=mailbox_count,
            request_body_length=request_body_length,
        )
        self._open_rounds[key] = _OpenRound(announcement=announcement)
        return announcement

    def current_announcement(self, protocol: str, round_number: int) -> RoundAnnouncement:
        key = (protocol, round_number)
        if key not in self._open_rounds:
            raise RoundError(f"{protocol} round {round_number} is not open")
        return self._open_rounds[key].announcement

    # -- request submission ---------------------------------------------------
    def submit(
        self,
        protocol: str,
        round_number: int,
        client_id: str,
        envelope: bytes,
        rate_token: blind.RateToken | None = None,
    ) -> None:
        """Accept one fixed-size envelope from a client for an open round."""
        key = (protocol, round_number)
        if key not in self._open_rounds:
            raise RoundError(f"{protocol} round {round_number} is not open")
        open_round = self._open_rounds[key]
        if client_id in open_round.submitted_by:
            # One request per client per round: duplicates are dropped, which
            # also defeats naive replay flooding.
            return
        if self.rate_limit_verifier is not None:
            if rate_token is None:
                raise RateLimitError("round requires a rate token")
            self.rate_limit_verifier.spend(rate_token)
        open_round.submitted_by.add(client_id)
        open_round.envelopes.append(envelope)

    def submissions(self, protocol: str, round_number: int) -> int:
        key = (protocol, round_number)
        if key not in self._open_rounds:
            return 0
        return len(self._open_rounds[key].envelopes)

    # -- closing a round ----------------------------------------------------------
    def close_round(self, protocol: str, round_number: int) -> RoundResult:
        """Hand the batch to the mix chain and return the resulting mailboxes."""
        key = (protocol, round_number)
        if key not in self._open_rounds:
            raise RoundError(f"{protocol} round {round_number} is not open")
        open_round = self._open_rounds.pop(key)
        announcement = open_round.announcement
        result = self.mix_chain.run_round(
            round_number=round_number,
            protocol=protocol,
            envelopes=open_round.envelopes,
            mailbox_count=announcement.mailbox_count,
            payload_body_length=announcement.request_body_length,
        )
        # Forward secrecy: the mixnet round keys are erased as soon as the
        # batch has been processed; PKG master secrets are erased by the
        # deployment once clients have fetched their round keys.
        self.mix_chain.close_round(protocol, round_number)
        return result

    def abort_round(self, protocol: str, round_number: int) -> None:
        """Tear down a round that cannot complete: drop its batch and erase
        every server-side round secret.  Idempotent; used by the deployment
        operator when the round's control plane fails mid-flight, so a stuck
        round can never retain envelopes or keys indefinitely."""
        self._open_rounds.pop((protocol, round_number), None)
        self.mix_chain.close_round(protocol, round_number)
        if protocol == "add-friend" and self.pkg_coordinator is not None:
            self.pkg_coordinator.close_round(round_number)

    # -- transport dispatch --------------------------------------------------
    def handle_rpc(self, request: RpcRequest) -> RpcResult:
        """Serve one framed RPC (see ``repro/net/rpc.py`` for the layouts)."""
        if request.method == "announce_round":
            protocol, round_number, mailbox_count, body_length = rpc.ANNOUNCE_REQUEST.decode(
                request.payload
            )
            announcement = self.announce_round(protocol, round_number, mailbox_count, body_length)
            pkg_publics: list[bytes] = []
            if announcement.pkg_public_keys:
                pkg_publics = self.pkg_coordinator.round_keys(round_number).encoded_public_keys
            directory = announcement.shard_directory
            return RpcResult(
                payload=rpc.ANNOUNCE_RESPONSE.encode(
                    announcement.mailbox_count,
                    announcement.request_body_length,
                    announcement.mix_public_keys,
                    directory and directory.to_fields(),
                    pkg_publics,
                )
            )
        if request.method == "submit":
            protocol, round_number, client_id, envelope, token_bytes = rpc.SUBMIT_REQUEST.decode(
                request.payload
            )
            token = blind.RateToken.from_bytes(token_bytes) if token_bytes is not None else None
            self.submit(protocol, round_number, client_id, envelope, rate_token=token)
            return RpcResult()
        if request.method == "submissions":
            protocol, round_number = rpc.ROUND_REF.decode(request.payload)
            return RpcResult(payload=rpc.COUNT_REPLY.encode(self.submissions(protocol, round_number)))
        if request.method == "close_round":
            protocol, round_number = rpc.ROUND_REF.decode(request.payload)
            result = self.close_round(protocol, round_number)
            # The mailboxes go entry -> CDN; the coordinator gets statistics.
            self.cdn.publish(result.mailboxes)
            return RpcResult(payload=rpc.ROUND_COUNTS.encode(*astuple(result.counts())))
        raise NetworkError(f"entry server has no RPC method {request.method!r}")
