"""The coordinator-side shard router: round control over a sharded tier.

The :class:`ShardRouter` replaces the single
:class:`~repro.entry.server.EntryServer` as the round control plane when the
entry tier is sharded.  It presents the same surface the round engine drives
through ``Deployment.entry_stub`` (``announce_round`` / ``submit_many`` /
``flush_submissions`` / ``submissions`` / ``close_round``) plus
``abort_round`` (the ``Deployment.entry`` operator surface), so
:class:`~repro.core.roundengine.RoundEngine` needs no sharding knowledge.

Per round the router:

1. opens the mix chain (and, for add-friend, the PKG commit-reveal) exactly
   once -- round keys must not be per-shard;
2. builds the :class:`~repro.cluster.directory.ShardDirectory` for the
   round's mailbox count and broadcasts it to every entry shard in one
   concurrent phase;
3. routes each client submission to the ingress proxy of the shard owning
   the client's own mailbox;
4. at close, collects every shard's envelope buffer concurrently, merges
   them (shard order, arrival order within a shard) into one batch for the
   mix chain, and records the per-shard counts that feed the load-imbalance
   benchmarks;
5. publishes the resulting mailboxes itself through :class:`ShardedCdnStub`
   (``router.cdn``), which fans each shard's range out to the owning CDN
   shard, and returns the round's statistics.

The router runs in the coordinator process: all its RPCs originate from
``src="coordinator"`` and ride the server mesh, like the legacy announce and
close RPCs did.
"""

from __future__ import annotations

from repro.cluster.directory import ShardDirectory
from repro.entry.server import RoundAnnouncement
from repro.errors import NetworkError, RoundError, UnknownRoundError
from repro.mixnet.chain import RoundCounts
from repro.mixnet.mailbox import MailboxSet
from repro.net import rpc
from repro.net.frames import ENVELOPE_BATCH
from repro.net.transport import BatchCall, BatchCallOutcome, Transport, raise_first_error
from repro.obs.trace import active_tracer


def _reply(outcome: BatchCallOutcome, layout):
    """One wave outcome's reply -- the single field of ``layout`` -- or its error, raised."""
    if outcome.error is not None:
        raise outcome.error
    return rpc.decode_reply(layout.decode, outcome.result.payload)[0]


class ShardRouter:
    """Round control and submission routing for a sharded entry tier."""

    #: How many closed rounds' directories (and per-shard load records)
    #: stay resolvable per protocol.  Matches the CDN shards' default
    #: ``retained_rounds``: once a round's mailboxes are evicted there,
    #: routing to them is moot, and a directory miss can uniformly mean
    #: "unknown or evicted round".
    RETAINED_DIRECTORIES = 32

    def __init__(
        self,
        transport: Transport,
        mix_chain,
        pkg_coordinator,
        shard_count: int,
        src: str = "coordinator",
    ) -> None:
        if shard_count < 1:
            raise ValueError("need at least one shard")
        self.transport = transport
        self.mix_chain = mix_chain
        self.pkg_coordinator = pkg_coordinator
        self.shard_count = shard_count
        self.src = src
        self._announcements: dict[tuple[str, int], RoundAnnouncement] = {}
        self._directories: dict[tuple[str, int], ShardDirectory] = {}
        #: Per-shard accepted-envelope counts recorded at each close; feeds
        #: the load-imbalance reporting of the shard benchmarks.
        self.load_by_round: dict[tuple[str, int], list[int]] = {}
        #: The CDN tier: whoever ran the mix chain publishes its mailboxes.
        self.cdn = ShardedCdnStub(transport, self, src=src)

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

    def _prune_directories(self, protocol: str) -> None:
        rounds = sorted(r for (p, r) in self._directories if p == protocol)
        while len(rounds) > self.RETAINED_DIRECTORIES:
            oldest = rounds.pop(0)
            self._directories.pop((protocol, oldest), None)
            self.load_by_round.pop((protocol, oldest), None)

    # -- round lifecycle -----------------------------------------------------
    def announce_round(
        self,
        protocol: str,
        round_number: int,
        mailbox_count: int,
        request_body_length: int,
    ) -> RoundAnnouncement:
        """Open the round everywhere and return the sharded announcement."""
        key = (protocol, round_number)
        if key in self._announcements:
            return self._announcements[key]

        pkg_publics: list = []
        try:
            mix_publics = self.mix_chain.open_round(protocol, round_number)
            if protocol == "add-friend" and self.pkg_coordinator is not None:
                pkg_publics = list(self.pkg_coordinator.open_round(round_number).public_keys)
        except Exception:
            # Same contract as the single entry server: a failed open must
            # not leave round secrets live anywhere.
            self.abort_round(protocol, round_number)
            raise

        directory = ShardDirectory.build(protocol, round_number, mailbox_count, self.shard_count)
        # Registered *before* the broadcast: if the broadcast fails partway,
        # abort_round needs the directory to reach the shards that already
        # opened the round and tear their state down.
        self._directories[key] = directory
        payload = rpc.OPEN_SHARD_ROUND.encode(request_body_length, directory.to_fields())
        try:
            with active_tracer().span(
                "shard.open_broadcast",
                category="cluster",
                track=self.src,
                protocol=protocol,
                round=round_number,
                shards=self.shard_count,
            ):
                raise_first_error(
                    self._wave([shard.entry for shard in directory.ranges], "open_round", payload)
                )
        except NetworkError:
            # A shard that cannot learn about the round would silently
            # reject its clients all round long; abort instead.
            self.abort_round(protocol, round_number)
            raise

        announcement = RoundAnnouncement(
            protocol=protocol,
            round_number=round_number,
            mix_public_keys=mix_publics,
            pkg_public_keys=pkg_publics,
            mailbox_count=mailbox_count,
            request_body_length=request_body_length,
            shard_directory=directory,
        )
        self._announcements[key] = announcement
        self._prune_directories(protocol)
        return announcement

    def abort_round(self, protocol: str, round_number: int) -> None:
        """Tear a round down everywhere (idempotent, best-effort per shard)."""
        key = (protocol, round_number)
        self._announcements.pop(key, None)
        directory = self._directories.pop(key, None)
        if directory is not None:
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

    # -- submission path -----------------------------------------------------
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
        simulated interval).  An unreachable proxy is skipped: its buffered
        envelopes are lost with it, and their senders -- like any client
        whose ack was lost -- fall back to the session retry machinery.
        """
        directory = self.directory_or_none(protocol, round_number)
        if directory is None:
            return []
        with active_tracer().span(
            "shard.flush_drain",
            category="cluster",
            track=self.src,
            protocol=protocol,
            round=round_number,
            shards=self.shard_count,
        ) as span:
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

    def _wave(self, endpoints: list[str], method: str, payload: bytes) -> list[BatchCallOutcome]:
        """The same control RPC to every endpoint, as one wave."""
        return self.transport.call_batch(
            [BatchCall(self.src, endpoint, method, payload) for endpoint in endpoints]
        )

    def submissions(self, protocol: str, round_number: int) -> int:
        directory = self.directory_or_none(protocol, round_number)
        if directory is None:
            return 0
        outcomes = self._wave(
            [shard.entry for shard in directory.ranges],
            "submissions",
            rpc.ROUND_REF.encode(protocol, round_number),
        )
        return sum(_reply(outcome, rpc.COUNT_REPLY) for outcome in outcomes)

    # -- closing a round ------------------------------------------------------
    def close_round(self, protocol: str, round_number: int) -> RoundCounts:
        """Collect every shard's batch, mix once, publish; returns the statistics."""
        key = (protocol, round_number)
        announcement = self._announcements.get(key)
        if announcement is None:
            raise RoundError(f"{protocol} round {round_number} is not open")
        directory = self._directories[key]
        payload = rpc.ROUND_REF.encode(protocol, round_number)
        with active_tracer().span(
            "shard.collect",
            category="cluster",
            track=self.src,
            protocol=protocol,
            round=round_number,
            shards=self.shard_count,
        ) as span:
            per_shard = [
                _reply(outcome, ENVELOPE_BATCH)
                for outcome in self._wave(
                    [shard.entry for shard in directory.ranges], "close_round", payload
                )
            ]
            self.load_by_round[key] = [len(envelopes) for envelopes in per_shard]
            merged = [envelope for envelopes in per_shard for envelope in envelopes]
            span.set(envelopes=len(merged))

        self._announcements.pop(key, None)
        result = self.mix_chain.run_round(
            round_number=round_number,
            protocol=protocol,
            envelopes=merged,
            mailbox_count=announcement.mailbox_count,
            payload_body_length=announcement.request_body_length,
        )
        # Forward secrecy, same as the single entry server: mix round keys
        # are erased as soon as the merged batch has been processed.
        self.mix_chain.close_round(protocol, round_number)
        self.cdn.publish(result.mailboxes)
        return result.counts()

    # -- benchmarking ---------------------------------------------------------
    def load_report(self) -> dict:
        """Per-shard load and imbalance over every closed round.

        ``imbalance`` is ``max(shard load) / mean(shard load)``: 1.0 is a
        perfectly balanced tier, ``shard_count`` is everything on one shard.
        """
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


class ShardedCdnStub:
    """The client/coordinator-side CDN facade over the CDN shards.

    Presents the exact :class:`~repro.net.rpc.CdnStub` surface; routes every
    download to the CDN shard owning the mailbox (per the round's directory)
    and fans a round's publish out so each shard stores only its range.
    """

    def __init__(self, transport: Transport, router: ShardRouter, src: str = "coordinator") -> None:
        self.transport = transport
        self.router = router
        self.src = src

    def publish(self, mailboxes: MailboxSet) -> None:
        directory = self.router.directory(mailboxes.protocol, mailboxes.round_number)
        blobs = mailboxes.blobs()
        # Empty subsets are published too: a shard must know the round
        # exists so an empty mailbox stays distinguishable from an unknown
        # round (see CdnShard.download_blob).
        calls = [
            BatchCall(
                self.src,
                shard.cdn,
                "publish",
                rpc.SHARD_PUBLISH_REQUEST.encode(
                    shard.lo,
                    shard.hi,
                    mailboxes.protocol,
                    mailboxes.round_number,
                    mailboxes.mailbox_count,
                    [(mid, blob) for mid, blob in blobs.items() if shard.contains(mid)],
                ),
            )
            for shard in directory.ranges
        ]
        raise_first_error(self.transport.call_batch(calls))

    def _round_directory(self, protocol: str, round_number: int):
        """The round's directory, or the same error the single CDN raises.

        Directory retention matches the CDN shards' round retention, so a
        missing directory means the round is unknown, aborted, or already
        evicted shard-side -- exactly :class:`UnknownRoundError` territory,
        keeping sharded and single-CDN callers on one error contract.
        """
        directory = self.router.directory_or_none(protocol, round_number)
        if directory is None:
            raise UnknownRoundError(
                f"no published {protocol} mailboxes for round {round_number} "
                "(unknown, aborted, or evicted)"
            )
        return directory

    def download_many(
        self,
        protocol: str,
        round_number: int,
        items: list[tuple[int, str]],
    ) -> list[tuple[object, Exception | None]]:
        """One download wave, each mailbox routed to its owning CDN shard.

        Same contract as :meth:`~repro.net.rpc.CdnStub.download_many`.  An
        unknown round raises :class:`UnknownRoundError` up front.
        """
        directory = self._round_directory(protocol, round_number)
        return rpc.download_wave(
            self.transport,
            protocol,
            round_number,
            items,
            lambda mailbox_id: directory.shard_for_mailbox(mailbox_id).cdn,
        )
