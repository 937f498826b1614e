"""The unified round driver: one engine, two protocols, optional pipelining.

Every online client submits exactly one fixed-size request per round, real
or cover (Algorithm 1, §4-§5), so each round stage is a *wave* over the
round's participants; a single client is a wave of one.

* :class:`ProtocolDriver` is the per-protocol hook set (add-friend and
  dialing implementations live here, next to the engine that calls them):
  how to size mailboxes, what the clients submit (``submit_many``), how they
  scan their mailboxes (``scan_many``), and what to undo when a client's
  envelope never entered the round (``submit_failed``) or its round's
  mailbox is lost to it (``scan_missed``);
* :class:`RoundEngine` drives one round through its four stages, one
  method each -- **announce**, **submit** (the clients' submission wave),
  **mix** (close the round: the mix chain runs, the entry server erases the
  round's server secrets and publishes the mailboxes) and **scan** (the
  clients' mailbox download wave);
* :meth:`RoundEngine.start_round` / :meth:`RoundEngine.finish_round` split a
  round at the stage boundary the paper's deployment overlaps: a new round's
  announce+submit can run while the previous round is still mixing and being
  scanned.  ``Deployment.run_rounds(..., pipelined=True)`` exploits exactly
  that split by running ``start(N+1)`` and ``finish(N)`` inside one transport
  phase, so on a :class:`~repro.net.simulated.SimulatedNetwork` the two
  stages occupy the same simulated interval and round throughput is bounded
  by the slowest stage instead of the sum of stages.

The engine never imports :class:`~repro.core.coordinator.Deployment`; it
talks to it duck-typed (clients, stubs, clock, entry server), which keeps
the module cycle-free.  The entry server runs in the engine's process at
every shard count, so the stages call it directly: ``announce_round``,
``submit_many`` and ``flush_submissions``, ``close_round``.  The engine
feeds each client's session directly too: what was submitted, what each
round delivered, which scans confirmed, which rounds aborted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.addfriend import addfriend_body_length
from repro.core.client import Client
from repro.core.config import ADDFRIEND_REQUEST_SIZE, ADDFRIEND_ROUND_DURATION, DIALING_ROUND_DURATION
from repro.core.dialtoken import DIAL_TOKEN_SIZE
from repro.errors import NetworkError
from repro.mixnet.chain import RoundCounts
from repro.mixnet.mailbox import choose_mailbox_count, mailbox_for_identity
from repro.mixnet.onion import wrap_onion_many


@dataclass
class RoundSummary:
    """What the deployment reports after driving one full round."""

    protocol: str
    round_number: int
    mailbox_count: int
    submissions: int
    mix_result: RoundCounts | None = None
    # Transport-level measurements for the round (simulated time and bytes).
    latency_s: float = 0.0
    #: Time the announce+submit stage took (the stage the per-PKG fan-out
    #: shortens).
    submit_stage_s: float = 0.0
    #: Time the mix+publish slice took (close_round through the CDN publish
    #: -- the stage the crypto engine accelerates).
    mix_stage_s: float = 0.0
    #: Time the client scan/download slice took (the stage a capped CDN
    #: egress link stretches).  ``submit + mix + scan`` tiles ``latency_s``
    #: exactly under the sequential driver.
    scan_stage_s: float = 0.0
    bytes_sent: int = 0
    failures: int = 0
    participants: int = 0
    # True when the round was torn down (announce or control plane failed);
    # an aborted round has no mix result and delivered nothing.
    aborted: bool = False


@dataclass
class PendingRound:
    """A round whose announce+submit stage ran but which is not yet closed."""

    round_number: int
    clients: list[Client]
    mailbox_count: int
    started_at: float
    #: When the announce+submit stage finished (clock at start_round exit).
    submitted_at: float = 0.0
    announcement: object = None
    participated: list[Client] = field(default_factory=list)
    failures: int = 0
    #: Bytes this round's own stages put on the wire so far.  Measured per
    #: stage (phase tasks execute sequentially even when their simulated
    #: intervals overlap), so concurrent rounds never double-count each
    #: other's traffic in their summaries.
    bytes_accum: int = 0
    #: Set when the announce failed; the round was already aborted server-side.
    failure: Exception | None = None


class ProtocolDriver:
    """Per-protocol hooks the :class:`RoundEngine` is parameterized by."""

    protocol: str  # wire name: "add-friend" or "dialing"

    def __init__(self, deployment) -> None:
        self.dep = deployment

    def allocate_round(self) -> int:
        """Advance and return this protocol's round counter."""
        raise NotImplementedError

    def mailbox_count(self, clients: list[Client]) -> int:
        """Size the round's mailboxes from the *participating* clients."""
        raise NotImplementedError

    def body_length(self) -> int:
        """The round's fixed request body size, from wire-format constants."""
        raise NotImplementedError

    def round_duration(self) -> float:
        raise NotImplementedError

    def submit_many(self, clients: list[Client], announcement) -> list:
        """Build and submit every client's envelope as transport waves.

        Returns ``(client, error_or_None)`` per client, in client order.  A
        client whose envelope reached the entry server (acknowledged, or
        delivered with only the acknowledgement lost) has ``None``; a
        ``NetworkError`` is that client's outcome; any other error
        propagates.
        """
        raise NotImplementedError

    def submit_failed(self, client: Client, round_number: int) -> None:
        """The client's envelope never entered the round (lost before the
        entry server held it, or rejected by the ingress flush): undo this
        round's build so the request waits for the next round."""
        raise NotImplementedError

    def _fixed_mailbox_count(self) -> int | None:
        return self.dep.config.fixed_mailbox_count

    def scan_many(self, clients: list[Client], round_number: int, mailbox_count: int) -> list:
        """Fetch and process every client's mailbox.

        Downloads all mailboxes in one transport wave, then runs the
        (simulated-time-free) scan crypto per client.  Returns
        ``(client, events, error_or_None)`` per client, in client order.
        """
        raise NotImplementedError

    def scan_missed(self, client: Client, round_number: int) -> None:
        """The client will never scan this round's mailbox (unreachable, or
        the round aborted after it submitted): erase or advance its round
        state exactly as a scan would have."""
        raise NotImplementedError

    def _fast_forward(self, to_time: float) -> None:
        """Ratchet the simulated clock to ``to_time`` if it is in the future.

        A submit stage issues several waves; a client that failed in an
        early wave may have observed its failure *after* every later wave's
        finisher (retry timeouts stretch a lost message's interval), and
        that time counts toward the stage's end.
        """
        scheduler = getattr(self.dep.transport, "scheduler", None)
        if scheduler is not None:
            scheduler.fast_forward(to_time)

    def _entry_wave(
        self,
        round_number: int,
        clients: list[Client],
        indices: list[int],
        envelopes: list[bytes],
        starts: list[float | None],
        errors: dict[int, Exception],
    ) -> float:
        """Issue the entry-submission wave and apply the ack semantics.

        Undeliverable submissions land in ``errors``; an accepted (or
        delivered-but-ack-lost) one stands.  Returns the latest finisher's
        time.
        """
        entries = [
            (clients[i].email, envelope, start)
            for i, envelope, start in zip(indices, envelopes, starts)
        ]
        outcomes = self.dep.entry.submit_many(self.protocol, round_number, entries)
        latest = 0.0
        for i, outcome in zip(indices, outcomes):
            latest = max(latest, outcome.finished_at)
            error = outcome.error
            if error is None:
                continue
            if not isinstance(error, NetworkError):
                raise error
            # A lost acknowledgement is no error: the entry server holds the
            # envelope, so the submission stands and must NOT be re-sent (a
            # re-send would carry a fresh ephemeral key and desync the
            # keywheel if the recipient answers the first copy).
            if not error.request_delivered:
                errors[i] = error
        return latest

    def _download_wave(
        self, clients: list[Client], round_number: int, mailbox_count: int
    ) -> list:
        """Download every client's mailbox for this round in one wave."""
        items = [
            (mailbox_for_identity(client.email, mailbox_count), client.email)
            for client in clients
        ]
        return self.dep.cdn_stub.download_many(self.protocol, round_number, items)


class AddFriendDriver(ProtocolDriver):
    """Hooks for the add-friend protocol (Algorithm 1)."""

    protocol = "add-friend"

    def allocate_round(self) -> int:
        self.dep.addfriend_round += 1
        return self.dep.addfriend_round

    def mailbox_count(self, clients: list[Client]) -> int:
        fixed = self._fixed_mailbox_count()
        if fixed is not None:
            return fixed
        # Size from the round's resolved participants: offline clients'
        # queued requests cannot enter this round, so counting them (as the
        # old driver did) inflates the shard count under churn.
        queued = sum(c.addfriend.pending_in_queue() for c in clients)
        return choose_mailbox_count(queued, self.dep.config.addfriend_target_per_mailbox)

    def body_length(self) -> int:
        # Wire-format constants only: a deployment driven purely with
        # externally constructed clients must announce the same fixed size
        # every client will produce.
        return addfriend_body_length(ADDFRIEND_REQUEST_SIZE)

    def round_duration(self) -> float:
        return ADDFRIEND_ROUND_DURATION

    def submit_many(self, clients: list[Client], announcement) -> list:
        """All clients' extraction fan-outs and submissions as batch waves.

        One :class:`~repro.net.transport.BatchCall` wave per PKG (every
        client's extraction at that PKG), then one onion-wrapping batch over
        all inner payloads, then one entry-submission wave -- each client's
        submission starting when its own extractions finished.  A client's
        extractions all start at the stage's t0 (the stage costs the slowest
        PKG, not the sum).  A client whose extraction fails skips its
        remaining PKGs and never builds a payload; a lost submission surfaces
        as that client's error; a lost acknowledgement counts as delivered.
        """
        dep = self.dep
        round_number = announcement.round_number
        transport = dep.transport
        t0 = dep.clock
        ready = [t0] * len(clients)
        errors: dict[int, Exception] = {}
        latest = t0
        signatures = [c.addfriend.extraction_signature(round_number) for c in clients]
        responses: list[list] = [[] for _ in clients]
        for pkg in dep.pkg_stubs:
            calls = []
            indices = []
            for i, client in enumerate(clients):
                if i in errors:
                    continue
                calls.append(
                    pkg.extract_call(client.email, round_number, signatures[i], start=t0)
                )
                indices.append(i)
            for i, outcome in zip(indices, transport.call_batch(calls)):
                latest = max(latest, outcome.finished_at)
                if outcome.error is not None:
                    if not isinstance(outcome.error, NetworkError):
                        raise outcome.error
                    errors[i] = outcome.error
                    continue
                try:
                    responses[i].append(
                        pkg.extraction_response(outcome.result.payload, clients[i].email)
                    )
                except NetworkError as exc:
                    errors[i] = exc
                    continue
                ready[i] = max(ready[i], outcome.finished_at)
        survivors = [i for i in range(len(clients)) if i not in errors]
        inners = []
        for i in survivors:
            clients[i].addfriend.install_round_keys(round_number, responses[i])
            inners.append(
                clients[i].build_addfriend_inner(
                    announcement, next_dialing_round=dep.dialing_round + 2
                )
            )
        envelopes = (
            wrap_onion_many(inners, list(announcement.mix_public_keys)) if inners else []
        )
        latest = max(
            latest,
            self._entry_wave(
                round_number,
                clients,
                survivors,
                envelopes,
                [ready[i] for i in survivors],
                errors,
            ),
        )
        self._fast_forward(latest)
        return [(client, errors.get(i)) for i, client in enumerate(clients)]

    def submit_failed(self, client: Client, round_number: int) -> None:
        # Put any consumed friend request back for the next round, and drop
        # round keys the client will never use.
        client.addfriend.requeue(round_number)
        client.addfriend.erase_round_keys(round_number)

    def scan_many(self, clients: list[Client], round_number: int, mailbox_count: int) -> list:
        downloads = self._download_wave(clients, round_number, mailbox_count)
        pkg_keys = [stub.bls_public_key for stub in self.dep.pkg_stubs]
        results = []
        for client, (mailbox, error) in zip(clients, downloads):
            if error is not None:
                if not isinstance(error, NetworkError):
                    raise error
                results.append((client, None, error))
                continue
            events = client.process_addfriend_mailbox(
                round_number,
                mailbox,
                pkg_bls_public_keys=pkg_keys,
                current_dialing_round=self.dep.dialing_round,
            )
            results.append((client, events, None))
        return results

    def scan_missed(self, client: Client, round_number: int) -> None:
        client.addfriend.erase_round_keys(round_number)


class DialingDriver(ProtocolDriver):
    """Hooks for the dialing protocol (§5)."""

    protocol = "dialing"

    def allocate_round(self) -> int:
        self.dep.dialing_round += 1
        return self.dep.dialing_round

    def mailbox_count(self, clients: list[Client]) -> int:
        fixed = self._fixed_mailbox_count()
        if fixed is not None:
            return fixed
        queued = sum(c.dialing.pending_in_queue() for c in clients)
        return choose_mailbox_count(queued, self.dep.config.dialing_target_per_mailbox)

    def body_length(self) -> int:
        return DIAL_TOKEN_SIZE

    def round_duration(self) -> float:
        return DIALING_ROUND_DURATION

    def submit_many(self, clients: list[Client], announcement) -> list:
        """All clients' dialing tokens as one wrap batch + one submit wave.

        Dialing has no pre-submission RPC, so every client starts at the
        phase's t0 (``start=None``).
        """
        inners = [client.build_dialing_inner(announcement) for client in clients]
        envelopes = (
            wrap_onion_many(inners, list(announcement.mix_public_keys)) if inners else []
        )
        errors: dict[int, Exception] = {}
        latest = self._entry_wave(
            announcement.round_number,
            clients,
            list(range(len(clients))),
            envelopes,
            [None] * len(clients),
            errors,
        )
        self._fast_forward(latest)
        return [(client, errors.get(i)) for i, client in enumerate(clients)]

    def submit_failed(self, client: Client, round_number: int) -> None:
        # Withdraw the speculative placed-call record and retry next round.
        client.dialing.requeue(round_number)

    def scan_many(self, clients: list[Client], round_number: int, mailbox_count: int) -> list:
        downloads = self._download_wave(clients, round_number, mailbox_count)
        results = []
        for client, (mailbox, error) in zip(clients, downloads):
            if error is not None:
                if not isinstance(error, NetworkError):
                    raise error
                results.append((client, None, error))
                continue
            events = client.process_dialing_mailbox(round_number, mailbox)
            results.append((client, events, None))
        return results

    def scan_missed(self, client: Client, round_number: int) -> None:
        # The round's mailbox is unrecoverable for this client; advance its
        # wheels and prune the round's sent-token set exactly as a
        # successful scan would have.
        client.dialing.finish_round(round_number)


class RoundEngine:
    """Drives rounds of one protocol through announce/submit/close/scan."""

    def __init__(self, deployment, driver: ProtocolDriver) -> None:
        self.dep = deployment
        self.driver = driver

    # -- start_round: stages announce + submit -----------------------------
    def start_round(self, participants=None) -> PendingRound:
        """Announce a new round and run the concurrent submission phase.

        Never raises on announce failure; the returned pending round carries
        the failure so a pipelined driver can keep the previous round alive.
        """
        clients = self.dep._resolve_participants(participants)
        bytes_before = self.dep.transport.stats.bytes_sent
        pending = PendingRound(
            round_number=self.driver.allocate_round(),
            clients=clients,
            mailbox_count=self.driver.mailbox_count(clients),
            started_at=self.dep.clock,
        )
        self.announce(pending)
        if pending.failure is None:
            self.submit(pending)
        pending.bytes_accum = self.dep.transport.stats.bytes_sent - bytes_before
        return pending

    def announce(self, pending: PendingRound) -> None:
        """Stage ``announce``: open the round on the entry server.  A failure
        is recorded on ``pending``, not raised."""
        driver = self.driver
        try:
            pending.announcement = self.dep.entry.announce_round(
                driver.protocol, pending.round_number, pending.mailbox_count, driver.body_length()
            )
        except NetworkError as exc:
            # The entry server already aborted the round.
            pending.failure = exc
            pending.submitted_at = self.dep.clock

    def submit(self, pending: PendingRound) -> None:
        """Stage ``submit``: every online client participates every round
        (cover traffic included); clients act concurrently, so the phase's
        duration is the slowest participant's, not the sum.

        Each client's submission is decided once, after the flush: it either
        stands (the session learns what entered the round) or never entered
        the round (the driver undoes the build)."""
        driver = self.driver
        round_number = pending.round_number
        with self.dep.transport.phase() as phase:
            outcomes = phase.run(lambda: driver.submit_many(pending.clients, pending.announcement))
            # A batching entry tier (repro.cluster) acks submissions
            # optimistically at the ingress proxies; drain the remainders
            # inside the stage's phase and learn what was actually rejected.
            rejected = phase.run(
                lambda: self.dep.entry.flush_submissions(driver.protocol, round_number)
            )
        rejected_ids = {client_id for client_id, _reason in rejected}
        for client, error in outcomes:
            if error is None and client.email not in rejected_ids:
                pending.participated.append(client)
                client.session._submitted(driver.protocol, round_number)
            else:
                pending.failures += 1
                driver.submit_failed(client, round_number)
        pending.submitted_at = self.dep.clock

    # -- finish_round: stages mix + scan ----------------------------------
    def finish_round(self, pending: PendingRound) -> RoundSummary:
        """Close the round on the entry server, publish, and run the scans."""
        if pending.failure is not None:
            raise pending.failure
        driver = self.driver
        round_number = pending.round_number
        bytes_before = self.dep.transport.stats.bytes_sent
        mix_started = self.dep.clock
        try:
            result = self.mix(pending)
        except NetworkError:
            pending.bytes_accum += self.dep.transport.stats.bytes_sent - bytes_before
            raise
        mix_done = self.dep.clock
        self.scan(pending)
        pending.bytes_accum += self.dep.transport.stats.bytes_sent - bytes_before

        return RoundSummary(
            protocol=driver.protocol,
            round_number=round_number,
            mailbox_count=pending.mailbox_count,
            submissions=result.submitted,
            mix_result=result,
            latency_s=self.dep.clock - pending.started_at,
            submit_stage_s=pending.submitted_at - pending.started_at,
            mix_stage_s=mix_done - mix_started,
            scan_stage_s=self.dep.clock - mix_done,
            bytes_sent=pending.bytes_accum,
            failures=pending.failures,
            participants=len(pending.clients),
        )

    def mix(self, pending: PendingRound) -> RoundCounts:
        """Stage ``mix``: close the round on the entry server (it runs the
        mix chain and publishes the mailboxes); returns the round's counts,
        its submission count (``submitted``) included."""
        driver = self.driver
        round_number = pending.round_number
        try:
            return self.dep.entry.close_round(driver.protocol, round_number)
        except NetworkError:
            # The round's control plane failed (a shard, a mix or the CDN
            # unreachable) and the entry server tore the round down.  This
            # round's requests are lost, like any mixnet round that dies
            # mid-flight: undo what each participant holds for it.
            for client in pending.participated:
                driver.scan_missed(client, round_number)
                client.session._round_aborted(driver.protocol, round_number)
            raise

    def scan(self, pending: PendingRound) -> None:
        """Stage ``scan``: clients fetch and scan their mailboxes concurrently
        (the announced mailbox count spares them the CDN metadata round
        trip), then the sessions are fed."""
        driver = self.driver
        round_number = pending.round_number
        scan_events: dict[str, list] = {}
        with self.dep.transport.phase() as phase:
            scans = phase.run(
                lambda: driver.scan_many(
                    pending.participated, round_number, pending.announcement.mailbox_count
                )
            )
            for client, events, error in scans:
                if error is not None:
                    pending.failures += 1
                    driver.scan_missed(client, round_number)
                elif events:
                    scan_events[client.email] = events
        # Feed the sessions: handles submitted into this round are now
        # delivered, scan events may confirm them, and the retry pass
        # re-enqueues what stayed unconfirmed past the horizon -- for
        # every client, online or not: an offline sender's re-enqueued
        # request simply waits in its queue until it next participates.
        for client in pending.participated:
            client.session._round_delivered(driver.protocol, round_number)
        if driver.protocol == "add-friend":
            for client in pending.participated:
                client.session._apply_scan_events(
                    round_number, scan_events.get(client.email, [])
                )
            for client in self.dep.clients.values():
                client.session._retry_pass(round_number)

    def aborted_summary(self, pending: PendingRound) -> RoundSummary:
        """Record a round that was torn down before delivering anything."""
        return RoundSummary(
            protocol=self.driver.protocol,
            round_number=pending.round_number,
            mailbox_count=pending.mailbox_count,
            submissions=0,
            mix_result=None,
            latency_s=self.dep.clock - pending.started_at,
            submit_stage_s=max(0.0, pending.submitted_at - pending.started_at),
            bytes_sent=pending.bytes_accum,
            failures=len(pending.clients),
            participants=len(pending.clients),
            aborted=True,
        )

    # -- the sequential driver (legacy semantics) ---------------------------
    def run_round(self, participants=None) -> RoundSummary:
        """One complete round, then the configured inter-round gap."""
        pending = self.start_round(participants)
        if pending.failure is not None:
            raise pending.failure
        summary = self.finish_round(pending)
        self.dep.advance_clock(self.driver.round_duration())
        return summary
