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
count -- open the mix chain and the PKGs, build the round's
:class:`~repro.cluster.directory.ShardDirectory`, collect, mix once, erase,
publish -- and only its *front* changes: one in-process
:class:`~repro.cluster.shard.EntryShard` owning all of ``[0, K)``, or N
``entry{i}``/``ingress{i}``/``cdn{i}`` shard endpoints reached in waves.

The server itself runs in the round driver's process at every shard count:
the driver calls :meth:`EntryServer.announce_round`, :meth:`~EntryServer.submit_many`,
:meth:`~EntryServer.flush_submissions` and :meth:`~EntryServer.close_round`
directly, and every control RPC the server issues leaves from
:data:`~repro.net.rpc.CONTROL_SRC`.  Its one transport method is ``submit``,
a client's envelope into the one-shard front.

The server owns every round secret (§4.4): it opens the mixes' round keys and
the PKGs' master keys at announce and erases both together, once, when the
round closes or aborts -- each mix and each PKG gets exactly one
``close_round`` per round on every path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.directory import ShardDirectory
from repro.cluster.shard import EntryShard
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


@dataclass
class RoundAnnouncement:
    """Everything a client needs to participate in one round."""

    protocol: str
    round_number: int
    mix_public_keys: list[bytes]
    pkg_public_keys: list
    mailbox_count: int
    request_body_length: int


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
        pkgs=(),
        cdn=None,
        transport: Transport | None = None,
        shard_count: int = 1,
    ) -> None:
        if shard_count < 1:
            raise ValueError("need at least one shard")
        self.mix_chain = mix_chain
        #: The PKGs (:class:`~repro.net.rpc.PkgStub` or
        #: :class:`~repro.pkg.server.PkgServer`) each add-friend round opens.
        self.pkgs = list(pkgs)
        #: Where :meth:`close_round` publishes the round's mailboxes (a
        #: :class:`~repro.net.rpc.CdnStub` or a
        #: :class:`~repro.cluster.shard.ShardedCdnStub`): whoever ran the mix
        #: chain publishes, so mailboxes cross the wire once.  ``None``: the
        #: caller gets the :class:`RoundResult` and publishes it itself.
        self.cdn = cdn
        #: Carries the clients' submit waves, and the waves to a sharded
        #: front (issued from ``rpc.CONTROL_SRC``).
        self.transport = transport
        self.shard_count = shard_count
        #: The one in-process front shard, or ``None`` when the front is
        #: ``shard_count`` shard endpoints.  It expires a round whose close
        #: or abort never arrived (``EntryShard.RETAINED_ROUNDS``).
        self.front = EntryShard("entry", 0) if shard_count == 1 else None
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
            [BatchCall(rpc.CONTROL_SRC, endpoint, method, payload) for endpoint in endpoints]
        )

    # -- the sharded front's three waves -------------------------------------
    def open_broadcast(
        self, protocol: str, round_number: int, directory: ShardDirectory, request_body_length: int
    ) -> None:
        """Open the round on every entry shard, as one wave; the first
        failure is raised."""
        payload = rpc.OPEN_SHARD_ROUND.encode(request_body_length, directory.to_fields())
        entries = [shard.entry for shard in directory.ranges]
        raise_first_error(self._wave(entries, "open_round", payload))

    def flush_drain(
        self, protocol: str, round_number: int, directory: ShardDirectory
    ) -> list[tuple[str, str]]:
        """Drain every ingress proxy, as one wave; returns the round's rejects."""
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
                pass  # unreachable proxy, or a garbled reply: see flush_submissions
        return rejected

    def collect(
        self, protocol: str, round_number: int, directory: ShardDirectory
    ) -> list[list[bytes]]:
        """Every entry shard's envelope batch, in shard order, as one wave."""
        outcomes = self._wave(
            [shard.entry for shard in directory.ranges],
            "close_round",
            rpc.ROUND_REF.encode(protocol, round_number),
        )
        return [_reply(outcome, ENVELOPE_BATCH) for outcome in outcomes]

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
            if protocol == "add-friend":
                pkg_publics = [pkg.open_round(round_number) for pkg in self.pkgs]
            directory = ShardDirectory.build(protocol, round_number, mailbox_count, self.shard_count)
            # Registered *before* the front opens: if a shard cannot be
            # told, abort_round needs the directory to reach the shards
            # that already opened the round and tear their state down.
            self._directories[key] = directory
            if self.front is not None:
                self.front.open_round(protocol, round_number, request_body_length, directory)
            else:
                self.open_broadcast(protocol, round_number, directory, request_body_length)
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
        )
        self._announcements[key] = announcement
        self._prune(protocol, round_number)
        return announcement

    def abort_round(self, protocol: str, round_number: int) -> None:
        """Tear down a round that cannot complete: drop its envelopes on
        every shard and erase every server-side round secret.  Idempotent;
        :meth:`announce_round` and :meth:`close_round` call it on their own
        failures, so a stuck round can never retain envelopes or keys
        indefinitely."""
        self._abort_front(protocol, round_number)
        self._erase_secrets(protocol, round_number)

    def _abort_front(self, protocol: str, round_number: int) -> None:
        """Drop the round's envelopes wherever they wait."""
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

    def _erase_secrets(self, protocol: str, round_number: int) -> None:
        """Forward secrecy (§4.4): erase the round's mix keys and, for an
        add-friend round, the PKG master secrets.  Best-effort over the
        network: an unreachable server (the very partition that may have
        aborted the round) keeps its secret until it heals; the reachable
        ones still erase theirs."""
        self.mix_chain.close_round(protocol, round_number)
        if protocol != "add-friend":
            return
        for pkg in self.pkgs:
            try:
                pkg.close_round(round_number)
            except NetworkError:
                continue

    # -- request submission ---------------------------------------------------
    def submit(
        self,
        protocol: str,
        round_number: int,
        client_id: str,
        envelope: bytes,
    ) -> None:
        """Accept one fixed-size envelope into the in-process front (one
        shard; a sharded front's clients submit to their shard's ingress)."""
        self.front.submit(protocol, round_number, client_id, envelope)

    def submit_many(
        self,
        protocol: str,
        round_number: int,
        entries: list[tuple[str, bytes, float | None]],
    ) -> list[BatchCallOutcome]:
        """The clients' submit wave, each envelope sent to its owning shard's
        ingress (the one-shard front's is ``entry``, this server's endpoint).

        ``(client_id, envelope, start_time)`` per entry, where ``start_time``
        is when that client logically begins (e.g. when its key extraction
        finished); outcomes in order -- a round with no directory is a
        ``RoundError`` outcome per entry.
        """
        try:
            directory = self.directory(protocol, round_number)
        except RoundError as exc:
            now = self.transport.now()
            return [BatchCallOutcome(error=RoundError(str(exc)), finished_at=now) for _ in entries]
        calls = [
            BatchCall(
                src=client_id,
                dst=directory.shard_for_identity(client_id).ingress,
                method="submit",
                payload=rpc.SUBMIT_REQUEST.encode(protocol, round_number, client_id, envelope),
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
        return self.flush_drain(protocol, round_number, directory)

    def submissions(self, protocol: str, round_number: int) -> int:
        """Envelopes the one-shard front holds for an open round.  A sharded
        front's envelopes wait at its shards; the round driver reads every
        front's count from :meth:`close_round`'s ``submitted``."""
        return self.front.submissions(protocol, round_number)

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
        try:
            if self.front is not None:
                per_shard = [self.front.collect_round(protocol, round_number)]
            else:
                per_shard = self.collect(protocol, round_number, self._directories[key])
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
        except Exception:
            # A shard or a mix failed mid-round: tear the round down, its
            # secrets with it, and let the failure surface.
            self.abort_round(protocol, round_number)
            raise
        # Forward secrecy: every extraction finished in the submit stage and
        # the batch has been processed, so the round's mix keys and PKG master
        # secrets go now, before anything is published.
        self._erase_secrets(protocol, round_number)
        if self.cdn is None:
            return result
        try:
            self.cdn.publish(result.mailboxes)
        except Exception:
            # The secrets are already gone; only the front is left to drop.
            self._abort_front(protocol, round_number)
            raise
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
        """Serve a client's ``submit`` into the one-shard front (see
        ``repro/net/rpc.py`` for the layout)."""
        if request.method == "submit":
            self.submit(*rpc.SUBMIT_REQUEST.decode(request.payload))
            return RpcResult()
        raise NetworkError(f"entry server has no RPC method {request.method!r}")
