"""The in-process deployment: servers, clients, and round-driven execution.

A :class:`Deployment` instantiates everything §3.1 of the paper describes --
the PKG servers, the mixnet chain, the entry server, the CDN, and the email
substrate -- wires clients to them, and advances the two protocols in
explicit rounds.  It replaces the paper's EC2 testbed.

The round driver runs in the entry server's process (§7: the entry server
is the round coordinator), so it calls :class:`~repro.entry.server.EntryServer`
directly at every shard count.  Everything else goes through a
:class:`~repro.net.transport.Transport`: servers register named endpoints,
clients and the entry server talk to stubs, every round-control RPC leaves
from one source (:data:`~repro.net.rpc.CONTROL_SRC`), and every protocol
message is the real wire-format bytes the library produces.  With the default
:class:`~repro.net.transport.DirectTransport` dispatch is immediate and the
clock is logical (it only advances between rounds), matching the seed's
behavior exactly.  Handing in a :class:`~repro.net.simulated.SimulatedNetwork`
instead makes the same deployment run on modelled links: the clock then
advances with every message delivery, so each :class:`RoundSummary` reports a
meaningful end-to-end ``latency_s``.
"""

from __future__ import annotations

from repro.cdn.cdn import Cdn
from repro.cluster.directory import front_endpoints
from repro.cluster.shard import CdnShard, EntryShard, IngressProxy, ShardedCdnStub
from repro.core.client import Client, register_clients
from repro.core.config import AlpenhornConfig
from repro.core.roundengine import (
    AddFriendDriver,
    DialingDriver,
    PendingRound,
    RoundEngine,
    RoundSummary,
)
from repro.crypto.ibe.anytrust import AnytrustIbe
from repro.crypto.ibe.boneh_franklin import BonehFranklinIbe
from repro.crypto.ibe.simulated import SimulatedIbe, SimulatedPkgOracle
from repro.emailsim.provider import EmailNetwork
from repro.entry.server import EntryServer
from repro.errors import ConfigurationError, NetworkError
from repro.mixnet.chain import MixChain
from repro.mixnet.server import MixServer
from repro.net.rpc import CdnStub, PkgStub
from repro.net.transport import DirectTransport, Phase, Transport
from repro.obs.instrument import instrument
from repro.pkg.server import PkgServer
from repro.utils.rng import DeterministicRng

__all__ = ["Deployment", "RoundSummary"]


class Deployment:
    """An entire Alpenhorn system running in one process."""

    def __init__(
        self,
        config: AlpenhornConfig | None = None,
        seed: str = "deployment",
        transport: Transport | None = None,
    ) -> None:
        self.config = config if config is not None else AlpenhornConfig()
        self.seed = seed
        self.transport = transport if transport is not None else DirectTransport()

        # IBE backend shared by PKGs and clients.
        if self.config.ibe_backend == "bn254":
            self._ibe_backend = BonehFranklinIbe()
        elif self.config.ibe_backend == "simulated":
            self._ibe_backend = SimulatedIbe(SimulatedPkgOracle())
        else:  # pragma: no cover - guarded by config validation
            raise ConfigurationError(f"unknown backend {self.config.ibe_backend!r}")
        self.ibe = AnytrustIbe(self._ibe_backend)

        # The symmetric/X25519 engine every hot path runs on.  Resolving it
        # here surfaces an unavailable selection (e.g. "accelerated" without
        # the optional `cryptography` package) at construction; installing
        # it as the process-wide active backend routes the module-level
        # entry points (aead.seal, the onion helpers, keywheel/session
        # seals) through the same backend without threading it everywhere.
        # Because the active backend is process-wide, every driving entry
        # point below re-asserts it (_activate_engine): two coexisting
        # deployments with different backends each run their own rounds on
        # their own selection instead of whichever was constructed last.
        from repro.crypto.engine import get_backend, set_active_backend

        self.crypto = get_backend(self.config.crypto_backend)
        set_active_backend(self.crypto)

        # PKG attestation scheme (PKGSigs); shared by the PKGs and every
        # client's verification path (clients resolve the same scheme from
        # their config).
        from repro.crypto.attestation import get_scheme

        self.attestation = get_scheme(self.config.attestation_backend)

        # Substrates.  The email network is out-of-band (registration
        # confirmations), so it is not routed over the Alpenhorn transport.
        self.email_network = EmailNetwork()
        self.pkgs = [
            PkgServer(
                name=f"pkg{i}",
                ibe_backend=self._ibe_backend,
                email_network=self.email_network,
                bls_seed=DeterministicRng(f"{seed}/pkg/{i}").read(32),
                attestation=self.attestation,
            )
            for i in range(self.config.num_pkg_servers)
        ]
        self.mix_servers = [
            MixServer(f"mix{i}", rng=DeterministicRng(f"{seed}/mix/{i}"), engine=self.crypto)
            for i in range(self.config.num_mix_servers)
        ]

        # Bind every server to its transport endpoint, then build the
        # stubs everything else uses to reach them.
        for pkg in self.pkgs:
            self.transport.register(pkg.name, pkg.handle_rpc)
        for mix in self.mix_servers:
            self.transport.register(mix.name, mix.handle_rpc)

        # The entry server runs here, in the round driver's process, at every
        # shard count; only where the envelopes wait changes.  One shard: its
        # in-process front holds them and clients submit to the ``entry``
        # endpoint.  N shards: they wait at N shard endpoints.
        shard_count = self.config.entry_shards
        self.pkg_stubs = [
            PkgStub(
                self.transport, pkg.name, self._ibe_backend, self.attestation, pkg.bls_public_key
            )
            for pkg in self.pkgs
        ]
        self.mix_chain = MixChain(
            self.mix_servers,
            noise_config=self.config.noise,
            transport=self.transport,
            server_names=[mix.name for mix in self.mix_servers],
        )
        self.entry = EntryServer(
            self.mix_chain, self.pkg_stubs, transport=self.transport, shard_count=shard_count
        )
        self.cdn: Cdn | None = None
        self.entry_shard_servers: list[EntryShard] = []
        self.ingress_proxies: list[IngressProxy] = []
        self.cdn_shards: list[CdnShard] = []
        if shard_count == 1:
            self.cdn = Cdn()
            self.transport.register("cdn", self.cdn.handle_rpc)
            self.transport.register("entry", self.entry.handle_rpc)
            self.cdn_stub = CdnStub(self.transport)
        else:
            for index, (entry, ingress, cdn) in enumerate(front_endpoints(shard_count)):
                shard = EntryShard(entry, index)
                proxy = IngressProxy(
                    ingress, entry, self.transport, batch_size=self.config.ingress_batch_size
                )
                cdn_shard = CdnShard(cdn, index)
                for server in (shard, proxy, cdn_shard):
                    self.transport.register(server.name, server.handle_rpc)
                self.entry_shard_servers.append(shard)
                self.ingress_proxies.append(proxy)
                self.cdn_shards.append(cdn_shard)
            self.cdn_stub = ShardedCdnStub(self.transport, self.entry)
        self.entry.cdn = self.cdn_stub

        # Clients (each owns its session), the deployment-wide event
        # subscribers (see subscribe_all), and round counters.
        self.clients: dict[str, Client] = {}
        self._subscribers: list = []
        self.addfriend_round = 0
        self.dialing_round = 0

        # One engine per protocol; both share the generic round structure
        # and differ only in the per-protocol driver hooks.
        self._engines: dict[str, RoundEngine] = {
            "add-friend": RoundEngine(self, AddFriendDriver(self)),
            "dialing": RoundEngine(self, DialingDriver(self)),
        }

        # Under an active tracer (``repro.sim run SCENARIO --trace PATH``)
        # the public seams of everything built above -- engine stages,
        # transport, crypto engine, mix servers, shard waves -- are wrapped
        # in spans from the outside; untraced, nothing is touched.
        instrument(self)

    # ------------------------------------------------------------------ #
    # Client management
    # ------------------------------------------------------------------ #
    def _activate_engine(self) -> None:
        """Make this deployment's crypto backend the active one.

        Called by every driving entry point so interleaved deployments with
        different backends each execute on their own selection.
        """
        from repro.crypto.engine import set_active_backend

        set_active_backend(self.crypto)

    def create_clients(self, emails: list[str]) -> list[Client]:
        """Create and register a client for each email address, in order.

        Registration is two transport waves for any number of clients: every
        client's begin leg at every PKG, then every confirm leg
        (:func:`~repro.core.client.register_clients`).  A client whose
        registration failed is not added; the others are, and the first
        failure is raised afterwards.
        """
        self._activate_engine()
        emails = [email.lower() for email in emails]
        taken = set(self.clients)
        for email in emails:
            if email in taken:
                raise ConfigurationError(f"a client for {email} already exists")
            taken.add(email)
        clients = []
        for email in emails:
            self.email_network.ensure_provider(email)
            clients.append(Client(email=email, config=self.config, ibe=self.ibe))
        try:
            register_clients(clients, self.pkg_stubs, self.email_network)
        finally:
            for client in clients:
                if client.registered:
                    for handler in self._subscribers:
                        client.session.events.subscribe_all(handler)
                    self.clients[client.email] = client
        return clients

    def create_client(self, email: str) -> Client:
        """Create and register one client: ``create_clients([email])[0]``
        (two waves, like any number of clients)."""
        return self.create_clients([email])[0]

    def client(self, email: str) -> Client:
        return self.clients[email.lower()]

    def session(self, email: str):
        """The client's :class:`~repro.api.session.ClientSession` (its one
        application surface; the raw Figure-1 methods sit underneath)."""
        return self.client(email).session

    def subscribe_all(self, handler) -> None:
        """Subscribe ``handler(event)`` to every client's session bus,
        including clients created later.  This is how the observability
        layer (the scenario driver, which feeds its live views) watches a
        whole deployment without enumerating sessions."""
        self._subscribers.append(handler)
        for client in self.clients.values():
            client.session.events.subscribe_all(handler)

    def _resolve_participants(self, participants) -> list[Client]:
        """Normalize a participant list (emails or clients) to clients.

        ``None`` means everyone is online this round; scenarios restrict the
        set to model churn and offline users.
        """
        if participants is None:
            return list(self.clients.values())
        resolved = []
        for participant in participants:
            if isinstance(participant, Client):
                resolved.append(participant)
            else:
                resolved.append(self.clients[participant.lower()])
        return resolved

    # ------------------------------------------------------------------ #
    # Time
    # ------------------------------------------------------------------ #
    @property
    def clock(self) -> float:
        """Deployment time, owned by the transport.

        Under :class:`DirectTransport` this is the seed's logical clock
        (moved only by :meth:`advance_clock`); under a simulated network it
        is the simulated clock, which also advances with every message
        delivery.
        """
        return self.transport.now()

    def advance_clock(self, seconds: float) -> None:
        self.transport.advance(seconds)

    # ------------------------------------------------------------------ #
    # Teardown
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release runtime resources by closing the transport.

        Idempotent.  The in-process transports make this a cheap no-op; the
        real runtimes (:mod:`repro.runtime`) tear down their sockets,
        event-loop thread, and worker processes here.  The crypto engine
        holds nothing between calls, so it has nothing to release.
        """
        self.transport.close()

    def __enter__(self) -> "Deployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Rounds (one RoundEngine per protocol; see repro/core/roundengine.py)
    # ------------------------------------------------------------------ #
    def round_engine(self, protocol: str) -> RoundEngine:
        if protocol not in self._engines:
            raise ConfigurationError(f"unknown protocol {protocol!r}")
        return self._engines[protocol]

    def run_addfriend_round(self, participants=None) -> RoundSummary:
        """Drive one complete add-friend round across the online clients."""
        self._activate_engine()
        return self._engines["add-friend"].run_round(participants)

    def run_dialing_round(self, participants=None) -> RoundSummary:
        """Drive one complete dialing round across the online clients."""
        self._activate_engine()
        return self._engines["dialing"].run_round(participants)

    def run_rounds(
        self,
        protocol: str,
        count: int,
        participants_for=None,
        pipelined: bool = False,
        on_summary=None,
    ) -> list[RoundSummary]:
        """Drive ``count`` back-to-back rounds of one protocol.

        With ``pipelined=True`` round N+1's announce+submit stage runs in
        the same transport phase as round N's close+scan stage, the overlap
        the paper's deployment uses: a new round starts while the previous
        one is still mixing.  On a simulated network the two stages then
        occupy the same simulated interval, so steady-state throughput is
        ``1 / max(stage)`` instead of ``1 / sum(stages)``.  Note the
        ordering contract this implies on *any* transport: round N+1's
        submissions are built before round N's scan results land, so a
        response queued while scanning round N (e.g. an add-friend
        confirmation) rides round N+2 -- one round later than under the
        sequential driver.

        Pipelined rounds are driven as fast as the network allows, which is
        what a throughput measurement wants; with ``pipelined=False`` each
        round is drained before the next starts and, like the single-round
        drivers, followed by the protocol's round duration.  A round whose
        announce or control plane fails is recorded as an aborted summary
        rather than raised (the single-round drivers raise), so one bad round
        does not tear down the rest of the schedule.

        ``participants_for(round_index)`` supplies each round's online set
        (``None`` means every client).  ``on_summary(summary)`` fires as
        each round's summary is produced -- under pipelining the next round
        is already in flight at that point, so effects the callback applies
        (healing, load changes) reach the round after the in-flight one.
        """
        self._activate_engine()
        engine = self.round_engine(protocol)
        summaries: list[RoundSummary] = []

        def record(summary: RoundSummary) -> None:
            if not pipelined:
                self.advance_clock(engine.driver.round_duration())
            summaries.append(summary)
            if on_summary is not None:
                on_summary(summary)

        pending: PendingRound | None = None
        started = 0
        while started < count or pending is not None:
            previous = pending
            next_pending: PendingRound | None = None
            finished: RoundSummary | None = None
            # Only overlapped stages share a transport phase (each restarts at
            # the phase's t0); a sequential round's is the inline one, so
            # what participants_for itself costs stays on the clock.
            with self.transport.phase() if pipelined else Phase() as phase:
                if started < count:
                    participants = participants_for(started) if participants_for else None
                    started += 1
                    next_pending = phase.run(lambda p=participants: engine.start_round(p))
                if previous is not None:
                    try:
                        finished = phase.run(lambda: engine.finish_round(previous))
                    except NetworkError:
                        finished = engine.aborted_summary(previous)
            if finished is not None:
                record(finished)
            if next_pending is not None and next_pending.failure is not None:
                record(engine.aborted_summary(next_pending))
                next_pending = None
            if not pipelined and next_pending is not None:
                # Depth-1 pipeline: drain each round before starting the next.
                try:
                    record(engine.finish_round(next_pending))
                except NetworkError:
                    record(engine.aborted_summary(next_pending))
                next_pending = None
            pending = next_pending
        return summaries
