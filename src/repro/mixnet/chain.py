"""The full mix chain: drives a batch through every server and builds mailboxes.

The chain is the anytrust core of Alpenhorn's metadata privacy: the batch of
fixed-size envelopes submitted by the entry server is peeled, padded with
noise, and shuffled by each server in turn.  After the last server the
payloads are plaintext ``(mailbox_id, body)`` pairs; the chain groups them
into mailboxes (dropping cover traffic) and, for the dialing protocol,
encodes each mailbox as a Bloom filter.

The chain driver (run by the entry server) reaches the mix servers through
*handles*: either in-process wrappers around :class:`MixServer` objects, or
:class:`~repro.net.rpc.MixStub` proxies that frame every hop of the pipeline
over a :class:`~repro.net.transport.Transport`.  Deployments always use the
transport path; constructing a chain from bare servers keeps standalone unit
tests and one-off experiments simple.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import MixnetError, RoundError
from repro.mixnet.mailbox import (
    COVER_MAILBOX_ID,
    AddFriendMailbox,
    DialingMailbox,
    MailboxSet,
)
from repro.mixnet.noise import NoiseConfig
from repro.mixnet.server import INNER_PAYLOAD, MixServer, MixServerStats
from repro.errors import SerializationError


class _LocalMixHandle:
    """Direct in-process access to one mix server (no transport)."""

    def __init__(self, server: MixServer) -> None:
        self.server = server
        self.name = server.name

    def open_round(self, protocol: str, round_number: int) -> bytes:
        return self.server.open_round(protocol, round_number)

    def close_round(self, protocol: str, round_number: int) -> None:
        self.server.close_round(protocol, round_number)

    def process_batch(self, **kwargs) -> tuple[list[bytes], MixServerStats]:
        batch = self.server.process_batch(**kwargs)
        return batch, self.server.last_stats


@dataclass
class RoundCounts:
    """One round's statistics: what a ``close_round`` reply carries."""

    submitted: int
    delivered_real: int
    dropped: int
    noise_added: int
    cover_dropped: int
    #: Noise each mix server actually drew, in chain order.
    per_server_noise: list[int]
    #: Messages per mailbox ID, noise included (``MailboxSet.message_counts``).
    mailbox_counts: list[int]


@dataclass
class RoundResult(RoundCounts):
    """Everything produced by one pass through the chain."""

    round_number: int
    protocol: str
    mailboxes: MailboxSet

    def counts(self) -> RoundCounts:
        """The statistics alone, without the mailboxes."""
        return RoundCounts(*(getattr(self, f.name) for f in fields(RoundCounts)))


class MixChain:
    """An ordered chain of mix servers ending in mailbox construction."""

    def __init__(
        self,
        servers: list[MixServer] | None = None,
        noise_config: NoiseConfig | None = None,
        transport=None,
        server_names: list[str] | None = None,
        driver_src: str = "entry",
    ) -> None:
        self.servers = list(servers) if servers is not None else []
        self.noise_config = noise_config if noise_config is not None else NoiseConfig()
        if transport is not None:
            from repro.net.rpc import MixStub

            names = server_names if server_names is not None else [s.name for s in self.servers]
            if not names:
                raise MixnetError("mix chain needs at least one server")
            # driver_src names the process driving the chain: the entry
            # server's, which with a sharded front is the coordinator's.
            self._handles = [MixStub(transport, name, src=driver_src) for name in names]
        else:
            if not self.servers:
                raise MixnetError("mix chain needs at least one server")
            self._handles = [_LocalMixHandle(server) for server in self.servers]
        # Round public keys collected at open_round: run_round needs them
        # to hand each server its downstream keys, so it refuses a round
        # this chain did not open (or has closed).  Keyed by (protocol,
        # round_number): the two protocols run independently numbered,
        # possibly concurrent, rounds.
        self._round_publics: dict[tuple[str, int], list[bytes]] = {}

    # -- round key management ------------------------------------------------
    def open_round(self, protocol: str, round_number: int) -> list[bytes]:
        """Open the round on every server; returns their round public keys."""
        publics = [handle.open_round(protocol, round_number) for handle in self._handles]
        self._round_publics[(protocol, round_number)] = publics
        return publics

    def close_round(self, protocol: str, round_number: int) -> None:
        """Erase the round's keys on every reachable server (best-effort:
        an unreachable server keeps its key until it heals)."""
        from repro.errors import NetworkError

        self._round_publics.pop((protocol, round_number), None)
        for handle in self._handles:
            try:
                handle.close_round(protocol, round_number)
            except NetworkError:
                continue

    # -- the round itself -------------------------------------------------------
    def run_round(
        self,
        round_number: int,
        protocol: str,
        envelopes: list[bytes],
        mailbox_count: int,
        payload_body_length: int,
    ) -> RoundResult:
        """Push a batch through every server and build the round's mailboxes."""
        if protocol not in ("add-friend", "dialing"):
            raise MixnetError(f"unknown protocol {protocol!r}")

        batch = list(envelopes)
        publics = self._round_publics.get((protocol, round_number))
        if publics is None:
            raise RoundError(f"{protocol} round {round_number} is not open on this chain")
        per_server_noise: list[int] = []
        dropped = 0
        for index, handle in enumerate(self._handles):
            downstream = publics[index + 1 :]
            batch, stats = handle.process_batch(
                round_number=round_number,
                protocol=protocol,
                envelopes=batch,
                downstream_publics=downstream,
                mailbox_count=mailbox_count,
                noise_config=self.noise_config,
                noise_body_length=payload_body_length,
            )
            per_server_noise.append(stats.noise_added)
            dropped += stats.dropped

        # After the last server the batch holds plaintext inner payloads.
        mailboxes = MailboxSet(
            round_number=round_number, protocol=protocol, mailbox_count=mailbox_count
        )
        delivered = 0
        cover_dropped = 0
        tokens_by_mailbox: dict[int, list[bytes]] = {}
        for payload in batch:
            try:
                mailbox_id, body = INNER_PAYLOAD.decode(payload)
            except SerializationError:
                dropped += 1
                continue
            if mailbox_id == COVER_MAILBOX_ID:
                cover_dropped += 1
                continue
            if mailbox_id >= mailbox_count:
                dropped += 1
                continue
            delivered += 1
            if protocol == "add-friend":
                mailboxes.addfriend.setdefault(
                    mailbox_id, AddFriendMailbox(mailbox_id=mailbox_id)
                ).add(body)
            else:
                tokens_by_mailbox.setdefault(mailbox_id, []).append(body)

        if protocol == "dialing":
            for mailbox_id in range(mailbox_count):
                tokens = tokens_by_mailbox.get(mailbox_id, [])
                mailboxes.dialing[mailbox_id] = DialingMailbox.build(mailbox_id, tokens)
        else:
            for mailbox_id in range(mailbox_count):
                mailboxes.addfriend.setdefault(
                    mailbox_id, AddFriendMailbox(mailbox_id=mailbox_id)
                )

        # "delivered" counts every payload that landed in a mailbox, noise
        # included (noise is always addressed to a real mailbox).  The real
        # request count is what remains after subtracting the noise that
        # made it through.
        total_noise = sum(per_server_noise)
        return RoundResult(
            round_number=round_number,
            protocol=protocol,
            mailboxes=mailboxes,
            submitted=len(envelopes),
            delivered_real=max(0, delivered - total_noise),
            dropped=dropped,
            noise_added=total_noise,
            cover_dropped=cover_dropped,
            per_server_noise=per_server_noise,
            mailbox_counts=mailboxes.message_counts(),
        )
