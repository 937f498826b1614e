"""The shard servers of the entry/CDN front tier, and the CDN facade over them.

Three server roles live here, each bound to its own transport endpoint:

* :class:`EntryShard` -- one slice of the entry tier: where envelopes wait.
  It owns a contiguous mailbox-ID range per round (told to it by the entry
  server at round open), buffers the envelopes of the clients whose own
  mailbox falls in that range, and hands them back when the entry server
  closes the round.  It never touches the mix chain or the PKGs -- round
  control lives in the :class:`~repro.entry.server.EntryServer`, which runs
  in the coordinator's process at every shard count and calls the shards
  from :data:`~repro.net.rpc.CONTROL_SRC`.  Its one-shard front is an
  in-process ``EntryShard`` owning all of ``[0, K)``.
* :class:`IngressProxy` -- the shard's access-link aggregation point.
  Clients submit to the proxy; the proxy coalesces envelopes into
  ``SubmitBatch`` frames of up to ``batch_size`` toward its shard, paying
  one frame overhead per batch instead of per envelope (visible in
  ``TransportStats.calls_by_method`` as ``submit_batch`` counts).  Client
  submissions are acknowledged optimistically; per-envelope rejections and
  lost batches are reported back to the round driver on the end-of-stage
  ``flush``, which requeues the affected clients' requests.
* :class:`CdnShard` -- one slice of the CDN.  It stores only the mailboxes
  in its published range and answers downloads for them; a download for a
  mailbox outside the range raises :class:`~repro.errors.ShardRoutingError`
  (a routing bug must surface loudly, never read as silent no-mail).

:class:`ShardedCdnStub` is the client/entry-server side of the CDN shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cdn.cdn import Cdn
from repro.cluster.directory import ShardDirectory
from repro.errors import (
    NetworkError,
    RoundError,
    ShardRoutingError,
    UnknownRoundError,
)
from repro.mixnet.mailbox import MailboxSet, mailbox_for_identity
from repro.net import rpc
from repro.net.frames import ENVELOPE_BATCH
from repro.net.transport import BatchCall, RpcRequest, RpcResult, Transport, raise_first_error


@dataclass
class _ShardRound:
    """One open round's state on one entry shard."""

    mailbox_count: int
    request_body_length: int
    lo: int
    hi: int
    envelopes: list[bytes] = field(default_factory=list)
    submitted_by: set[str] = field(default_factory=set)


class EntryShard:
    """One mailbox-range slice of the entry tier."""

    #: Open rounds more than this many rounds behind a newly opened one are
    #: expired: a round whose close/abort never arrived (coordinator died
    #: mid-round) must not retain envelopes indefinitely.
    RETAINED_ROUNDS = 4

    def __init__(self, name: str, index: int) -> None:
        self.name = name
        self.index = index
        self._open_rounds: dict[tuple[str, int], _ShardRound] = {}
        self.rounds_expired = 0

    # -- round lifecycle (driven by the entry server) ----------------------
    def open_round(self, protocol: str, round_number: int, request_body_length: int, directory) -> None:
        """Accept submissions for a round; idempotent (pipelined re-opens)."""
        key = (protocol, round_number)
        if key in self._open_rounds:
            return
        horizon = round_number - self.RETAINED_ROUNDS
        for stale in [k for k in self._open_rounds if k[0] == protocol and k[1] < horizon]:
            self._open_rounds.pop(stale, None)
            self.rounds_expired += 1
        own = directory.ranges[self.index]
        self._open_rounds[key] = _ShardRound(
            mailbox_count=directory.mailbox_count,
            request_body_length=request_body_length,
            lo=own.lo,
            hi=own.hi,
        )

    def collect_round(self, protocol: str, round_number: int) -> list[bytes]:
        """Close the round on this shard and return its collected envelopes."""
        key = (protocol, round_number)
        if key not in self._open_rounds:
            raise RoundError(f"{protocol} round {round_number} is not open on {self.name}")
        return self._open_rounds.pop(key).envelopes

    def abort_round(self, protocol: str, round_number: int) -> None:
        """Drop a dead round's buffered envelopes (idempotent)."""
        self._open_rounds.pop((protocol, round_number), None)

    def submissions(self, protocol: str, round_number: int) -> int:
        key = (protocol, round_number)
        if key not in self._open_rounds:
            return 0
        return len(self._open_rounds[key].envelopes)

    # -- submission --------------------------------------------------------
    def _accept(self, protocol: str, round_number: int, client_id: str, envelope: bytes) -> int:
        """Validate and buffer one envelope; returns a ``SUBMIT_*`` status."""
        open_round = self._open_rounds.get((protocol, round_number))
        if open_round is None:
            return rpc.SUBMIT_ROUND_NOT_OPEN
        # A shard owning all of [0, K) owns every client: skip the hash.
        if open_round.hi - open_round.lo != open_round.mailbox_count:
            mailbox_id = mailbox_for_identity(client_id, open_round.mailbox_count)
            if not open_round.lo <= mailbox_id < open_round.hi:
                return rpc.SUBMIT_WRONG_SHARD
        if client_id in open_round.submitted_by:
            # One request per client per round: duplicates are dropped, which
            # also defeats naive replay flooding.
            return rpc.SUBMIT_DUPLICATE
        open_round.submitted_by.add(client_id)
        open_round.envelopes.append(envelope)
        return rpc.SUBMIT_ACCEPTED

    def submit(self, protocol: str, round_number: int, client_id: str, envelope: bytes) -> None:
        """Direct (unbatched) submission; raises instead of returning a status."""
        status = self._accept(protocol, round_number, client_id, envelope)
        if status == rpc.SUBMIT_ROUND_NOT_OPEN:
            raise RoundError(f"{protocol} round {round_number} is not open on {self.name}")
        if status == rpc.SUBMIT_WRONG_SHARD:
            raise ShardRoutingError(
                f"{client_id}'s mailbox is outside {self.name}'s range for "
                f"{protocol} round {round_number}"
            )
        # SUBMIT_ACCEPTED and SUBMIT_DUPLICATE are both silent successes.

    def submit_batch(
        self,
        protocol: str,
        round_number: int,
        entries: list[tuple[str, bytes]],
    ) -> list[int]:
        """Accept a ``SubmitBatch`` frame; one status per envelope, in order."""
        return [
            self._accept(protocol, round_number, client_id, envelope)
            for client_id, envelope in entries
        ]

    # -- transport dispatch --------------------------------------------------
    def handle_rpc(self, request: RpcRequest) -> RpcResult:
        if request.method == "open_round":
            body_length, directory = rpc.OPEN_SHARD_ROUND.decode(request.payload)
            directory = ShardDirectory.from_fields(directory)
            self.open_round(directory.protocol, directory.round_number, body_length, directory)
            return RpcResult()
        if request.method == "submit_batch":
            protocol, round_number, entries = rpc.SUBMIT_BATCH_REQUEST.decode(request.payload)
            statuses = self.submit_batch(protocol, round_number, entries)
            return RpcResult(payload=rpc.SUBMIT_BATCH_RESPONSE.encode(statuses))
        if request.method == "close_round":
            protocol, round_number = rpc.ROUND_REF.decode(request.payload)
            envelopes = self.collect_round(protocol, round_number)
            return RpcResult(payload=ENVELOPE_BATCH.encode(envelopes))
        if request.method == "abort_round":
            protocol, round_number = rpc.ROUND_REF.decode(request.payload)
            self.abort_round(protocol, round_number)
            return RpcResult()
        raise NetworkError(f"entry shard has no RPC method {request.method!r}")


class IngressProxy:
    """Coalesces client submissions into ``SubmitBatch`` frames for one shard.

    The proxy sits at the shard's access link: clients reach it over their
    WAN links, it reaches the shard over the (capacity-limited) local hop.
    Acks to clients are optimistic; what the shard rejected -- and whole
    batches the network lost -- accumulate per round and are returned to
    the round driver by the end-of-stage ``flush``, whose caller requeues
    the affected clients.  A batch whose *acknowledgement* was lost is
    treated as accepted: the shard already buffered the envelopes, and a
    blind requeue would only produce server-side duplicates.

    A round whose ``flush`` never arrives (the coordinator partitioned
    away at stage end) must not retain envelopes indefinitely: activity
    for a round more than ``RETAINED_ROUNDS`` ahead expires the stale
    round's buffer and rejects, mirroring the entry tier's no-retained-
    state contract.
    """

    #: Buffered rounds older than this many rounds behind the newest
    #: activity (per protocol) are expired.
    RETAINED_ROUNDS = 4

    def __init__(
        self,
        name: str,
        shard_endpoint: str,
        transport: Transport,
        batch_size: int = 16,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch size must be at least 1")
        self.name = name
        self.shard_endpoint = shard_endpoint
        self.transport = transport
        self.batch_size = batch_size
        self._buffers: dict[tuple[str, int], list[tuple[str, bytes]]] = {}
        self._rejects: dict[tuple[str, int], list[tuple[str, str]]] = {}
        self.rounds_expired = 0

    def _expire_stale(self, protocol: str, round_number: int) -> None:
        horizon = round_number - self.RETAINED_ROUNDS
        stale = {
            key
            for store in (self._buffers, self._rejects)
            for key in store
            if key[0] == protocol and key[1] < horizon
        }
        for key in stale:
            self._buffers.pop(key, None)
            self._rejects.pop(key, None)
        self.rounds_expired += len(stale)

    def buffered(self, protocol: str, round_number: int) -> int:
        return len(self._buffers.get((protocol, round_number), ()))

    def _flush(self, protocol: str, round_number: int) -> None:
        batch = self._buffers.pop((protocol, round_number), None)
        if batch:
            self.flush_batch(protocol, round_number, batch)

    def flush_batch(
        self, protocol: str, round_number: int, batch: list[tuple[str, bytes]]
    ) -> list[tuple[str, str]]:
        """Send one buffered batch to the shard as a ``SubmitBatch`` frame;
        returns the round's rejects so far, this batch's included."""
        rejects = self._rejects.setdefault((protocol, round_number), [])
        try:
            result = self.transport.call(
                self.name,
                self.shard_endpoint,
                "submit_batch",
                rpc.SUBMIT_BATCH_REQUEST.encode(protocol, round_number, batch),
            )
            # An undecodable reply, or one that does not answer every
            # envelope exactly once, is a lost one: its senders retry, and
            # the shard drops what it already holds as duplicates.
            (statuses,) = rpc.decode_reply(rpc.SUBMIT_BATCH_RESPONSE.decode, result.payload)
            if len(statuses) != len(batch):
                raise NetworkError(f"{len(statuses)} statuses for a batch of {len(batch)}")
        except NetworkError as exc:
            # Only the ack was lost (request_delivered): the shard holds the
            # envelopes and the batch stands.
            if not exc.request_delivered:
                rejects.extend((client_id, "batch lost in transit") for client_id, _ in batch)
            return rejects
        for (client_id, _), status in zip(batch, statuses):
            if status not in (rpc.SUBMIT_ACCEPTED, rpc.SUBMIT_DUPLICATE):
                rejects.append(
                    (client_id, rpc.SUBMIT_STATUS_REASONS.get(status, f"status {status}"))
                )
        return rejects

    def flush(self, protocol: str, round_number: int) -> list[tuple[str, str]]:
        """Flush the round's remainder; return and clear its rejects."""
        self._expire_stale(protocol, round_number)
        self._flush(protocol, round_number)
        return self._rejects.pop((protocol, round_number), [])

    def abort_round(self, protocol: str, round_number: int) -> None:
        self._buffers.pop((protocol, round_number), None)
        self._rejects.pop((protocol, round_number), None)

    # -- transport dispatch --------------------------------------------------
    def handle_rpc(self, request: RpcRequest) -> RpcResult:
        if request.method == "submit":
            protocol, round_number, client_id, envelope = rpc.SUBMIT_REQUEST.decode(request.payload)
            self._expire_stale(protocol, round_number)
            key = (protocol, round_number)
            buffer = self._buffers.setdefault(key, [])
            buffer.append((client_id, envelope))
            if len(buffer) >= self.batch_size:
                self._flush(protocol, round_number)
            return RpcResult()
        if request.method == "flush":
            protocol, round_number = rpc.ROUND_REF.decode(request.payload)
            rejects = self.flush(protocol, round_number)
            return RpcResult(payload=rpc.REJECTS.encode(rejects))
        if request.method == "abort_round":
            protocol, round_number = rpc.ROUND_REF.decode(request.payload)
            self.abort_round(protocol, round_number)
            return RpcResult()
        raise NetworkError(f"ingress proxy has no RPC method {request.method!r}")


class CdnShard(Cdn):
    """One mailbox-range slice of the CDN tier.

    Receives a (possibly empty) publish every round -- so it always knows
    whether a round exists -- plus the range it owns for that round, and
    refuses downloads outside it with :class:`ShardRoutingError`.
    """

    def __init__(self, name: str, index: int, retained_rounds: int = 32) -> None:
        super().__init__(retained_rounds=retained_rounds)
        self.name = name
        self.index = index
        self._ranges: dict[tuple[str, int], tuple[int, int]] = {}

    def store_shard_round(
        self, lo: int, hi: int, protocol: str, round_number: int,
        mailbox_count: int, blobs: dict[int, bytes],
    ) -> None:
        """Store one round's ``[lo, hi)`` slice, given the publish's fields in
        order; ``mailbox_count`` is held to the blob ids when the publish is
        decoded (:func:`rpc.mailbox_blobs`), not here."""
        self._ranges[(protocol, round_number)] = (lo, hi)
        self.store_round(protocol, round_number, blobs)
        # Base eviction pruned _store; keep ranges aligned.
        self._ranges = {key: bounds for key, bounds in self._ranges.items() if key in self._store}

    def download_blob(
        self, protocol: str, round_number: int, mailbox_id: int, client: str = "anonymous"
    ) -> bytes | None:
        key = (protocol, round_number)
        if key not in self._store:
            raise UnknownRoundError(
                f"{self.name} has no published {protocol} mailboxes for round {round_number}"
            )
        lo, hi = self._ranges[key]
        if not lo <= mailbox_id < hi:
            raise ShardRoutingError(
                f"mailbox {mailbox_id} is outside {self.name}'s range [{lo}, {hi}) "
                f"for {protocol} round {round_number}"
            )
        return super().download_blob(protocol, round_number, mailbox_id, client=client)

    def handle_rpc(self, request):
        if request.method == "publish":
            lo, hi, *round_ref, mailbox_count, mailboxes = rpc.SHARD_PUBLISH_REQUEST.decode(
                request.payload
            )
            blobs = rpc.mailbox_blobs(mailboxes, mailbox_count)
            self.store_shard_round(lo, hi, *round_ref, mailbox_count, blobs)
            return RpcResult()
        return super().handle_rpc(request)


class ShardedCdnStub:
    """The client/entry-server-side CDN facade over the CDN shards.

    Presents the exact :class:`~repro.net.rpc.CdnStub` surface; routes every
    download to the CDN shard owning the mailbox (per the round's directory,
    which it asks the entry server for) and fans a round's publish out so
    each shard stores only its range.
    """

    def __init__(self, transport: Transport, entry) -> None:
        self.transport = transport
        self.entry = entry

    def publish(self, mailboxes: MailboxSet) -> None:
        directory = self.entry.directory(mailboxes.protocol, mailboxes.round_number)
        blobs = mailboxes.blobs()
        # Empty subsets are published too: a shard must know the round
        # exists so an empty mailbox stays distinguishable from an unknown
        # round (see CdnShard.download_blob).
        calls = [
            BatchCall(
                rpc.CONTROL_SRC,
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

    def download_many(
        self,
        protocol: str,
        round_number: int,
        items: list[tuple[int, str]],
    ) -> list[tuple[object, Exception | None]]:
        """One download wave, each mailbox routed to its owning CDN shard.

        Same contract as :meth:`~repro.net.rpc.CdnStub.download_many`.  A
        round the entry server no longer has a directory for raises
        :class:`UnknownRoundError` up front: directory retention matches the
        CDN shards' round retention, so the round is unknown, aborted or
        already evicted shard-side -- the single CDN's error contract.
        """
        directory = self.entry.directory_or_none(protocol, round_number)
        if directory is None:
            raise UnknownRoundError(
                f"no published {protocol} mailboxes for round {round_number} "
                "(unknown, aborted, or evicted)"
            )
        return rpc.download_wave(
            self.transport,
            protocol,
            round_number,
            items,
            lambda mailbox_id: directory.shard_for_mailbox(mailbox_id).cdn,
        )
