"""The entry server: announces rounds, batches client requests (§7).

The paper's prototype separates an *entry server* from the mixnet and PKGs.
Its jobs are to hold the (many) client connections, announce when a new
round starts -- including everything a client needs to participate: the
round number, the mixnet round public keys, the PKG round master public
keys, the number of mailboxes, and the expected request size -- and to
aggregate all client envelopes into a single batch handed to the first mix
server.  The entry server is untrusted: it sees only onion-encrypted,
fixed-size envelopes, one per client per round.

The paper's deployment sketch scales only *where the envelopes wait*: the
untrusted front tier, split by mailbox range (see :mod:`repro.cluster`).
So :class:`EntryServer` runs every round's lifecycle once, at any shard
count -- open the mix chain and the PKG commit-reveal, build the round's
:class:`~repro.cluster.directory.ShardDirectory`, collect, mix once,
publish, erase -- and only its *front* changes: one in-process
:class:`~repro.cluster.shard.EntryShard` owning all of ``[0, K)``, or N
``entry{i}``/``ingress{i}``/``cdn{i}`` shard endpoints reached in waves.

As an extension (§9, "DoS attacks"), the front can require a valid
blind-signature rate token per submitted request.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

from repro.cluster.directory import ShardDirectory
from repro.cluster.shard import EntryShard
from repro.crypto import blind
from repro.errors import NetworkError, RoundError
from repro.mixnet.chain import MixChain, RoundCounts, RoundResult
from repro.net import rpc
from repro.net.frames import ENVELOPE_BATCH
from repro.net.transport import (
    BatchCall,
    BatchCallOutcome,
    RpcRequest,
    RpcResult,
    Transport,
    raise_first_error,
)
from repro.obs.trace import active_tracer
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
    #: With a sharded front (see ``repro.cluster``), the per-round routing
    #: table: which shard owns which contiguous mailbox-ID range.  ``None``
    #: with one shard, where every client submits to the entry server itself.
    shard_directory: object = None


def _reply(outcome: BatchCallOutcome, layout):
    """One wave outcome's reply -- the single field of ``layout`` -- or its error, raised."""
    if outcome.error is not None:
        raise outcome.error
    return rpc.decode_reply(layout.decode, outcome.result.payload)[0]


class EntryServer:
    """Coordinates rounds for both protocols and feeds batches to the mixnet."""

    #: How many rounds' directories (and per-shard load records) stay
    #: resolvable per protocol.  Matches the CDN's default
    #: ``retained_rounds``: once a round's mailboxes are evicted there,
    #: routing to them is moot, and a directory miss can uniformly mean
    #: "unknown or evicted round".
    RETAINED_DIRECTORIES = 32

    def __init__(
        self,
        mix_chain: MixChain,
        pkg_coordinator: PkgCoordinator | None = None,
        rate_limit_verifier: blind.TokenVerifier | None = None,
        cdn=None,
        transport: Transport | None = None,
        shard_count: int = 1,
        src: str = "entry",
    ) -> None:
        if shard_count < 1:
            raise ValueError("need at least one shard")
        self.mix_chain = mix_chain
        self.pkg_coordinator = pkg_coordinator
        #: Where :meth:`close_round` publishes the round's mailboxes (a
        #: :class:`~repro.net.rpc.CdnStub` or a
        #: :class:`~repro.cluster.shard.ShardedCdnStub`): whoever ran the mix
        #: chain publishes, so mailboxes cross the wire once.  ``None``: the
        #: caller gets the :class:`RoundResult` and publishes it itself.
        self.cdn = cdn
        #: Carries the waves to a sharded front, issued from ``src`` (the
        #: coordinator's process, where a sharded entry server runs).
        self.transport = transport
        self.shard_count = shard_count
        self.src = src
        #: The one in-process front shard, or ``None`` when the front is
        #: ``shard_count`` shard endpoints.  It expires a round whose close
        #: or abort never arrived (``EntryShard.RETAINED_ROUNDS``).
        self.front = EntryShard("entry", 0, rate_limit_verifier) if shard_count == 1 else None
        self._announcements: dict[tuple[str, int], RoundAnnouncement] = {}
        self._directories: dict[tuple[str, int], ShardDirectory] = {}
        #: Per-shard accepted-envelope counts recorded at each close; feeds
        #: the load-imbalance reporting of the shard benchmarks.
        self.load_by_round: dict[tuple[str, int], list[int]] = {}

    # -- directory access ----------------------------------------------------
    def directory(self, protocol: str, round_number: int) -> ShardDirectory:
        directory = self._directories.get((protocol, round_number))
        if directory is None:
            raise RoundError(
                f"no shard directory for {protocol} round {round_number} "
                "(round never announced, or evicted)"
            )
        return directory

    def directory_or_none(self, protocol: str, round_number: int) -> ShardDirectory | None:
        return self._directories.get((protocol, round_number))

    def _prune(self, protocol: str, round_number: int) -> None:
        """Forget what the front itself has expired, and old directories."""
        horizon = round_number - EntryShard.RETAINED_ROUNDS
        for key in [k for k in self._announcements if k[0] == protocol and k[1] < horizon]:
            del self._announcements[key]
        rounds = sorted(r for (p, r) in self._directories if p == protocol)
        for oldest in rounds[: -self.RETAINED_DIRECTORIES]:
            self._directories.pop((protocol, oldest), None)
            self.load_by_round.pop((protocol, oldest), None)

    def _wave(self, endpoints: list[str], method: str, payload: bytes) -> list[BatchCallOutcome]:
        """The same control RPC to every shard endpoint, as one wave."""
        return self.transport.call_batch(
            [BatchCall(self.src, endpoint, method, payload) for endpoint in endpoints]
        )

    def _span(self, name: str, protocol: str, round_number: int):
        return active_tracer().span(
            name,
            category="cluster",
            track=self.src,
            protocol=protocol,
            round=round_number,
            shards=self.shard_count,
        )

    # -- round lifecycle ---------------------------------------------------
    def announce_round(
        self,
        protocol: str,
        round_number: int,
        mailbox_count: int,
        request_body_length: int,
    ) -> RoundAnnouncement:
        """Open a round: collect server round keys, open the front, and
        publish the parameters."""
        key = (protocol, round_number)
        if key in self._announcements:
            return self._announcements[key]

        pkg_publics: list = []
        try:
            mix_publics = self.mix_chain.open_round(protocol, round_number)
            if protocol == "add-friend" and self.pkg_coordinator is not None:
                pkg_publics = list(self.pkg_coordinator.open_round(round_number).public_keys)
            directory = ShardDirectory.build(protocol, round_number, mailbox_count, self.shard_count)
            # Registered *before* the front opens: if a shard cannot be
            # told, abort_round needs the directory to reach the shards
            # that already opened the round and tear their state down.
            self._directories[key] = directory
            if self.front is not None:
                self.front.open_round(protocol, round_number, request_body_length, directory)
            else:
                payload = rpc.OPEN_SHARD_ROUND.encode(request_body_length, directory.to_fields())
                with self._span("shard.open_broadcast", protocol, round_number):
                    entries = [shard.entry for shard in directory.ranges]
                    raise_first_error(self._wave(entries, "open_round", payload))
        except Exception:
            # The round cannot open (a server unreachable during key setup,
            # or a shard that would silently reject its clients all round
            # long).  Erase whatever round secrets were already generated --
            # leaving them live would defeat the forward secrecy the close
            # path exists to provide.  Mix round keys are namespaced by
            # (protocol, round), so a failed *dialing* announce cannot
            # poison the same-numbered add-friend round's keys.
            self.abort_round(protocol, round_number)
            raise

        announcement = RoundAnnouncement(
            protocol=protocol,
            round_number=round_number,
            mix_public_keys=mix_publics,
            pkg_public_keys=pkg_publics,
            mailbox_count=mailbox_count,
            request_body_length=request_body_length,
            shard_directory=directory if self.front is None else None,
        )
        self._announcements[key] = announcement
        self._prune(protocol, round_number)
        return announcement

    def abort_round(self, protocol: str, round_number: int) -> None:
        """Tear down a round that cannot complete: drop its envelopes on
        every shard and erase every server-side round secret.  Idempotent;
        used by the deployment operator when the round's control plane fails
        mid-flight, so a stuck round can never retain envelopes or keys
        indefinitely."""
        key = (protocol, round_number)
        self._announcements.pop(key, None)
        directory = self._directories.pop(key, None)
        if self.front is not None:
            self.front.abort_round(protocol, round_number)
        elif directory is not None:
            # One wave like every other shard broadcast: an abort under
            # partition must cost one retry budget, not 2*S serial ones.
            outcomes = self._wave(
                [e for shard in directory.ranges for e in (shard.entry, shard.ingress)],
                "abort_round",
                rpc.ROUND_REF.encode(protocol, round_number),
            )
            for outcome in outcomes:
                # Unreachable shards expire the round on later activity.
                if outcome.error is not None and not isinstance(outcome.error, NetworkError):
                    raise outcome.error
        self.mix_chain.close_round(protocol, round_number)
        if protocol == "add-friend" and self.pkg_coordinator is not None:
            self.pkg_coordinator.close_round(round_number)

    # -- request submission ---------------------------------------------------
    def submit(
        self,
        protocol: str,
        round_number: int,
        client_id: str,
        envelope: bytes,
        rate_token: blind.RateToken | None = None,
    ) -> None:
        """Accept one fixed-size envelope into the in-process front (one
        shard; a sharded front's clients submit to their shard's ingress)."""
        self.front.submit(protocol, round_number, client_id, envelope, rate_token)

    def submit_many(
        self,
        protocol: str,
        round_number: int,
        entries: list[tuple[str, bytes, float | None]],
    ) -> list[BatchCallOutcome]:
        """One submit wave, each envelope routed to its owning shard's ingress.

        Same contract as :meth:`~repro.net.rpc.EntryStub.submit_many`:
        ``(client_id, envelope, start_time)`` per entry, outcomes in order.
        """
        directory = self.directory(protocol, round_number)
        calls = [
            BatchCall(
                src=client_id,
                dst=directory.shard_for_identity(client_id).ingress,
                method="submit",
                payload=rpc.SUBMIT_REQUEST.encode(
                    protocol, round_number, client_id, envelope, None
                ),
                start=start,
            )
            for client_id, envelope, start in entries
        ]
        return self.transport.call_batch(calls)

    def flush_submissions(self, protocol: str, round_number: int) -> list[tuple[str, str]]:
        """Drain every ingress proxy's remainder; returns the round's rejects.

        Called by the round engine at the end of the submit stage (inside
        the stage's transport phase, so the flush frames land in the stage's
        simulated interval).  The in-process front answers every submission
        itself, so it has nothing buffered.  An unreachable proxy is skipped:
        its buffered envelopes are lost with it, and their senders -- like
        any client whose ack was lost -- fall back to the session retry
        machinery.
        """
        directory = self.directory_or_none(protocol, round_number)
        if self.front is not None or directory is None:
            return []
        with self._span("shard.flush_drain", protocol, round_number) as span:
            outcomes = self._wave(
                [shard.ingress for shard in directory.ranges],
                "flush",
                rpc.ROUND_REF.encode(protocol, round_number),
            )
            rejected: list[tuple[str, str]] = []
            for outcome in outcomes:
                try:
                    rejected += _reply(outcome, rpc.REJECTS)
                except NetworkError:
                    pass  # unreachable proxy, or a garbled reply: see above
            span.set(rejected=len(rejected))
        return rejected

    def submissions(self, protocol: str, round_number: int) -> int:
        if self.front is not None:
            return self.front.submissions(protocol, round_number)
        directory = self.directory_or_none(protocol, round_number)
        if directory is None:
            return 0
        outcomes = self._wave(
            [shard.entry for shard in directory.ranges],
            "submissions",
            rpc.ROUND_REF.encode(protocol, round_number),
        )
        return sum(_reply(outcome, rpc.COUNT_REPLY) for outcome in outcomes)

    # -- closing a round ----------------------------------------------------------
    def close_round(self, protocol: str, round_number: int) -> RoundCounts | RoundResult:
        """Collect the front's batch, mix it once, and publish the mailboxes.

        Returns the round's statistics once published to ``self.cdn``; with
        no CDN, the :class:`RoundResult` itself, mailboxes included.
        """
        key = (protocol, round_number)
        announcement = self._announcements.get(key)
        if announcement is None:
            raise RoundError(f"{protocol} round {round_number} is not open")
        if self.front is not None:
            per_shard = [self.front.collect_round(protocol, round_number)]
        else:
            endpoints = [shard.entry for shard in self._directories[key].ranges]
            payload = rpc.ROUND_REF.encode(protocol, round_number)
            with self._span("shard.collect", protocol, round_number) as span:
                per_shard = [
                    _reply(outcome, ENVELOPE_BATCH)
                    for outcome in self._wave(endpoints, "close_round", payload)
                ]
                span.set(envelopes=sum(len(envelopes) for envelopes in per_shard))
        self.load_by_round[key] = [len(envelopes) for envelopes in per_shard]

        self._announcements.pop(key)
        result = self.mix_chain.run_round(
            round_number=round_number,
            protocol=protocol,
            # Shard order, arrival order within a shard.
            envelopes=[envelope for envelopes in per_shard for envelope in envelopes],
            mailbox_count=announcement.mailbox_count,
            payload_body_length=announcement.request_body_length,
        )
        # Forward secrecy: the mixnet round keys are erased as soon as the
        # batch has been processed; PKG master secrets are erased by the
        # deployment once clients have fetched their round keys.
        self.mix_chain.close_round(protocol, round_number)
        if self.cdn is None:
            return result
        self.cdn.publish(result.mailboxes)
        return result.counts()

    # -- benchmarking ---------------------------------------------------------
    def load_report(self) -> dict:
        """Per-shard load and imbalance over every closed round.

        ``imbalance`` is ``max(shard load) / mean(shard load)``: 1.0 is a
        perfectly balanced tier, ``shard_count`` is everything on one shard.
        Empty for the one-shard front: it has no balance to report.
        """
        if self.front is not None:
            return {}
        totals = [0] * self.shard_count
        per_round = []
        for (protocol, round_number), loads in sorted(self.load_by_round.items()):
            for index, load in enumerate(loads):
                totals[index] += load
            total = sum(loads)
            per_round.append(
                {
                    "protocol": protocol,
                    "round": round_number,
                    "loads": list(loads),
                    "imbalance": round(max(loads) * len(loads) / total, 4) if total else 1.0,
                }
            )
        grand_total = sum(totals)
        return {
            "shards": self.shard_count,
            "submissions_by_shard": totals,
            "imbalance": round(max(totals) * len(totals) / grand_total, 4) if grand_total else 1.0,
            "per_round": per_round,
        }

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
            # The mailboxes go entry -> CDN; the coordinator gets statistics.
            counts = self.close_round(protocol, round_number)
            return RpcResult(payload=rpc.ROUND_COUNTS.encode(*astuple(counts)))
        raise NetworkError(f"entry server has no RPC method {request.method!r}")
