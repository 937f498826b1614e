"""The scenario harness: whole deployments on a simulated network.

A :class:`Scenario` owns one experiment: it builds a
:class:`~repro.net.simulated.SimulatedNetwork` with a topology derived from
its :class:`ScenarioSpec`, stands up a :class:`~repro.core.coordinator.Deployment`
on it, populates clients and friendships, drives N add-friend and dialing
rounds, and collects per-round latency/bandwidth/failure statistics into a
:class:`ScenarioResult`.

A named scenario is a spec row (:mod:`repro.sim.scenarios`) run by the one
:class:`Scenario` class.  Its faults are data too, a schedule of
:class:`Fault` values in ``spec.faults`` that the base class interprets in
two places:

* :meth:`Scenario.configure` -- once, after the deployment is built: the
  ``slow``, ``regions`` and ``region_link`` faults sculpt the topology;
* just before each round -- ``partition``, ``join`` and ``flash``, then the
  ``churn`` draw of which clients are online.

A spec's deployment is one :class:`~repro.core.config.AlpenhornConfig`
(``spec.config``), by default on the ``simulated`` IBE and attestation
backends: scenarios measure the *system* (round structure, batching, links),
not the pairing arithmetic, exactly like the paper separates protocol-scale
from crypto microbenchmarks (``ibe_backend="bn254"`` runs the paper's IBE on
the same wire sizes).  The symmetric/X25519 hot path always runs for real,
on whichever engine ``config.crypto_backend`` selects (see
:mod:`repro.crypto.engine`) -- that cost *is* part of the system under test.

Its live views (the ``--log-level`` log, the ``--dashboard`` page) are plain
``view(kind, item)`` callables in ``Scenario.views``, handed what the record
appends as the driver appends it, never the deployment or its transport.

The harness opens no span.  It reads the active tracer once, after the
deployment has closed (an ``mp`` transport's last worker harvest happens
there), to build the record's ``trace`` section; the spans themselves come
from the wrappers :mod:`repro.obs.instrument` put on the deployment, and
``python -m repro.sim run --trace`` is what installs the tracer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

from repro.cluster.directory import front_endpoints
from repro.core.config import AlpenhornConfig
from repro.core.coordinator import Deployment, RoundSummary
from repro.errors import ConfigurationError
from repro.mixnet.noise import NoiseConfig
from repro.net.links import LinkSpec, NetworkTopology
from repro.net.simulated import SimulatedNetwork
from repro.net.transport import Transport
from repro.obs.distributed import trace_section
from repro.obs.logging import get_logger
from repro.obs.privacy import PrivacyLedger, budget_consistency, run_report
from repro.obs.trace import active_tracer
from repro.sim.workloads import ZipfMailboxWorkload
from repro.utils.rng import DeterministicRng


def scenario_config(**overrides) -> AlpenhornConfig:
    """The deployment every scenario row starts from, ``overrides`` applied.
    16 real requests per mailbox is small, so a few hundred clients still
    fill several mailboxes."""
    return AlpenhornConfig(**{
        "num_mix_servers": 2,
        "num_pkg_servers": 2,
        "ibe_backend": "simulated",
        "attestation_backend": "simulated",
        "num_intents": 3,
        "addfriend_target_per_mailbox": 16,
        "dialing_target_per_mailbox": 16,
        "crypto_backend": "pure",
        **overrides,
    })


#: Fault kinds that sculpt the simulated topology: a spec with one cannot run
#: on a real runtime, which has no topology to sculpt.
TOPOLOGY_FAULTS = frozenset({"partition", "slow", "regions", "region_link"})
FAULT_KINDS = TOPOLOGY_FAULTS | {"churn", "join", "flash"}


@dataclass(frozen=True)
class Fault:
    """One entry of a scenario's fault schedule (``ScenarioSpec.faults``).

    ``at`` is a 0-based add-friend round index, ``names`` are server
    endpoints or regions, ``amount`` is a fraction or a count.  By kind:

    * ``churn`` -- every round each client is offline with probability
      ``amount``, except the initial pairs' senders: their requests' fate
      then measures what churn does to recipients and what sender-side
      retry recovers, not the sender's own absence;
    * ``join`` -- ``amount`` new clients register before every add-friend
      round from ``at`` on, and each befriends client 0;
    * ``flash`` -- before add-friend round ``at``, a fraction ``amount`` of
      the clients with no friend and nothing queued pair up and befriend
      each other;
    * ``partition`` -- the endpoints ``names`` are cut off for add-friend
      round ``at`` and heal on the next round;
    * ``slow`` -- every path touching the endpoints ``names`` runs on ``link``;
    * ``regions`` -- the servers are hosted in region ``names[0]`` and the
      clients are dealt round-robin across ``names``;
    * ``region_link`` -- paths between regions ``names[0]`` and ``names[1]``
      run on ``link``.
    """

    kind: str
    names: tuple[str, ...] = ()
    at: int = 0
    amount: float = 0.0
    link: LinkSpec | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}: expected one of {', '.join(sorted(FAULT_KINDS))}"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything that parameterizes one scenario run."""

    name: str = "baseline"
    description: str = ""
    num_clients: int = 100
    addfriend_rounds: int = 2
    dialing_rounds: int = 3
    #: How many disjoint client pairs queue a friendship before round 1.
    friend_pairs: int | None = None  # default: num_clients // 8
    #: The deployment; ``build`` replaces only its ``noise``, with
    #: :meth:`resolved_noise`'s (mu, b) for both protocols.
    config: AlpenhornConfig = field(default_factory=scenario_config)
    #: Default link for client <-> server paths.
    client_link: LinkSpec = field(default_factory=lambda: LinkSpec.of(latency_ms=40, bandwidth_mbps=50, jitter_ms=10))
    #: Per-server, per-mailbox noise (mu, b) -- kept small so simulations
    #: at hundreds of clients stay CI-feasible.  ``None`` defers to
    #: ``privacy_budget`` (which derives b via
    #: :func:`repro.analysis.dp.laplace_scale_for_budget`) and otherwise to
    #: the CI-feasible defaults (4.0, 1.0); an explicit value always wins,
    #: so adversarial scenarios can state a budget *and* under-noise (the
    #: startup consistency check records the mismatch instead of failing).
    noise_mu: float | None = None
    noise_b: float | None = None
    #: Lifetime action budget (§8.1) this run claims to protect at
    #: (epsilon = ln 2, delta = 1e-4).  Used to derive the Laplace scale
    #: when ``noise_b`` is unset, and checked against the configured scale
    #: (warn-and-record) when both are given.
    privacy_budget: int | None = None
    seed: str = "scenario"
    #: ``Deployment.run_rounds(pipelined=...)``: back-to-back rounds with
    #: round N+1's announce+submit overlapping round N's mix+scan.
    #: ``False`` drains each round and waits out its duration before the next.
    pipelined: bool = False
    #: Zipf exponent for the mailbox-skew client population (0 = uniform).
    #: Above 0 it needs several entry shards and a fixed mailbox count, and
    #: the scenario refuses to construct without them.
    zipf_alpha: float = 0.0
    #: Shared ingress capacity of each entry endpoint's access link in
    #: Mbit/s (0 = uncapped).  Applied to every entry shard -- or to the
    #: single "entry" endpoint when unsharded, so shard-count sweeps
    #: compare equal per-shard capacity.
    shard_access_mbps: float = 0.0
    #: Shared egress capacity of each CDN endpoint's access link in Mbit/s
    #: (0 = uncapped).  Applied to every CDN shard -- or to the single
    #: "cdn" endpoint when unsharded -- so the scan stage queues behind the
    #: CDN tier the same measurable way the submit stage queues behind the
    #: entry tier.
    cdn_egress_mbps: float = 0.0
    #: Simulator-core fidelity (the ``fidelity`` experiment's axis):
    #:
    #: * ``"slotted"`` -- the exact tier (the name is historical: nothing
    #:   is slotted any more): every frame keeps its own jitter/drop draws
    #:   (the per-message keyed rng);
    #: * ``"fluid"``   -- ``"slotted"`` plus fluid-flow client links: bulk
    #:   frames move as deterministic flows with no per-frame jitter/drop
    #:   draws (a bounded-divergence approximation for 100k-client runs).
    fidelity: str = "slotted"
    #: Deployment runtime (the ``runtime`` experiment's axis):
    #:
    #: * ``"sim"``     -- the SimulatedNetwork with this
    #:   scenario's topology (links, jitter, partitions); the clock is
    #:   simulated time;
    #: * ``"asyncio"`` -- every endpoint behind a real localhost TCP socket
    #:   in this process (:class:`~repro.runtime.transport.AsyncioTransport`);
    #:   the clock is wall time, so stage latencies are real;
    #: * ``"mp"``      -- ``asyncio`` plus each mix server rebuilt in its own
    #:   worker process, so the mix/crypto hot path runs on separate
    #:   cores.
    #:
    #: Real runtimes have no modelled topology: link specs, fidelity, and
    #: access-link caps do not apply, and a spec with a fault that sculpts
    #: the topology (:data:`TOPOLOGY_FAULTS`) refuses to run on them.
    runtime: str = "sim"
    #: The fault schedule the run injects (see :class:`Fault`).
    faults: tuple[Fault, ...] = ()

    def resolved_friend_pairs(self) -> int:
        if self.friend_pairs is not None:
            return self.friend_pairs
        return max(1, self.num_clients // 8)

    def resolved_noise(self) -> tuple[float, float]:
        """The (mu, b) this run actually uses.

        Explicit ``noise_mu``/``noise_b`` win; otherwise a stated
        ``privacy_budget`` prescribes b (and an mu that keeps the
        clamp-to-zero noise floor below delta: ``mu = b ln(1/(2 delta))``);
        otherwise the CI-feasible defaults.
        """
        import math

        from repro.analysis.dp import laplace_scale_for_budget

        if self.privacy_budget is not None and self.noise_b is None:
            b = laplace_scale_for_budget(self.privacy_budget)
            mu = self.noise_mu if self.noise_mu is not None else math.ceil(b * math.log(1 / (2 * 1e-4)))
            return float(mu), b
        mu = self.noise_mu if self.noise_mu is not None else 4.0
        b = self.noise_b if self.noise_b is not None else 1.0
        return float(mu), float(b)


@dataclass
class RoundStats:
    """One row of a scenario's output: one protocol round."""

    protocol: str
    round_number: int
    participants: int
    submissions: int
    failures: int
    mailbox_count: int
    delivered_real: int
    noise_added: int
    latency_s: float
    bytes_sent: int
    aborted: bool = False
    #: The announce+submit stage's share of ``latency_s`` (the stage the
    #: per-PKG fan-out shortens).
    submit_stage_s: float = 0.0
    #: The mix+publish slice of ``latency_s`` (close_round through the CDN
    #: publish -- the stage the crypto engine accelerates).
    mix_stage_s: float = 0.0
    #: The client scan/download slice of ``latency_s`` (the stage a capped
    #: CDN egress link stretches).
    scan_stage_s: float = 0.0
    #: Noise each mix server actually drew this round (the privacy ledger's
    #: raw material; only the honest server's entry matters for the bound).
    per_server_noise: list[int] = field(default_factory=list)
    #: The published per-mailbox message counts -- the round's *observable*
    #: vector, noise included (what a passive adversary conditions on).
    mailbox_counts: list[int] = field(default_factory=list)
    # What the driver sampled when the round completed (cumulative over the
    # run so far); the live views render these and nothing else.
    #: The deployment clock.
    clock: float = 0.0
    #: ``Transport.snapshot()``: scheduler gauges on the simulated network,
    #: per-endpoint gauges on the real runtimes.
    net: dict = field(default_factory=dict)
    #: Session events by type.
    events: dict = field(default_factory=dict)
    #: ``submissions_by_shard`` and ``imbalance`` (sharded runs only).
    shards: dict = field(default_factory=dict)
    #: The round's privacy-ledger row plus the cumulative ``delta`` and
    #: ``per_shard_noise`` (empty for an aborted round: nothing was published).
    privacy: dict = field(default_factory=dict)

    @staticmethod
    def from_summary(summary: RoundSummary) -> "RoundStats":
        mix = summary.mix_result
        return RoundStats(
            protocol=summary.protocol,
            round_number=summary.round_number,
            participants=summary.participants,
            submissions=summary.submissions,
            failures=summary.failures,
            mailbox_count=summary.mailbox_count,
            delivered_real=mix.delivered_real if mix is not None else 0,
            noise_added=mix.noise_added if mix is not None else 0,
            latency_s=summary.latency_s,
            bytes_sent=summary.bytes_sent,
            aborted=summary.aborted,
            submit_stage_s=summary.submit_stage_s,
            mix_stage_s=summary.mix_stage_s,
            scan_stage_s=summary.scan_stage_s,
            per_server_noise=list(mix.per_server_noise) if mix is not None else [],
            mailbox_counts=list(mix.mailbox_counts) if mix is not None else [],
        )

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "round": self.round_number,
            "participants": self.participants,
            "submissions": self.submissions,
            "failures": self.failures,
            "mailboxes": self.mailbox_count,
            "delivered_real": self.delivered_real,
            "noise_added": self.noise_added,
            "latency_s": round(self.latency_s, 6),
            "submit_stage_s": round(self.submit_stage_s, 6),
            "mix_stage_s": round(self.mix_stage_s, 6),
            "scan_stage_s": round(self.scan_stage_s, 6),
            "bytes_sent": self.bytes_sent,
            "aborted": self.aborted,
            "per_server_noise": list(self.per_server_noise),
        }

    def gauges(self) -> dict:
        """The sampled half of the row (its ledger row is ``privacy.rounds``'s)."""
        return {
            "clock": self.clock,
            "net": self.net,
            "events": self.events,
            "shards": self.shards,
            "per_shard_noise": self.privacy.get("per_shard_noise", []),
        }


@dataclass
class ScenarioResult:
    """The run record: everything one scenario run produced, each fact once.

    ``to_dict()`` is what ``run --json`` writes (inside
    :func:`repro.obs.record.write_json_report`'s envelope) and what
    ``python -m repro.obs validate | explain`` read back; the log stream, the
    dashboard and the printed summary are views of it.
    """

    name: str
    spec: ScenarioSpec
    rounds: list[RoundStats] = field(default_factory=list)
    friendships_confirmed: int = 0
    calls_delivered: int = 0
    total_bytes_sent: int = 0
    total_messages_sent: int = 0
    wall_seconds: float = 0.0
    #: Per-protocol round throughput: ``{"rounds", "busy_s", "rounds_per_sec"}``
    #: keyed by protocol name plus an ``"overall"`` aggregate.  ``busy_s`` is
    #: simulated time spent actually driving rounds (inter-round idle gaps
    #: excluded), so sequential and pipelined runs are directly comparable.
    throughput: dict[str, dict] = field(default_factory=dict)
    #: Friend-request liveness, measured through the session handles the
    #: scenario queued: totals over every request, plus an ``"initial"``
    #: breakdown for the pre-run friendship pairs (whose senders a churn
    #: scenario keeps always-online -- the liveness population the retry
    #: machinery is judged on).
    friend_requests: dict = field(default_factory=dict)
    #: Per-shard submission loads and imbalance (sharded runs only; see
    #: :meth:`repro.entry.server.EntryServer.load_report`).
    shard_loads: dict = field(default_factory=dict)
    #: Snapshot of ``TransportStats.calls_by_method`` -- how many frames of
    #: each RPC rode the wire (the ingress-batching measurement).
    calls_by_method: dict = field(default_factory=dict)
    #: Snapshot of ``TransportStats.bytes_by_method`` -- bytes on the wire
    #: per RPC method, so bandwidth attribution no longer re-derives bytes
    #: from call counts times assumed frame sizes.
    bytes_by_method: dict = field(default_factory=dict)
    #: The privacy ledger's report (see :mod:`repro.obs.privacy`): per-
    #: protocol cumulative (epsilon, delta) spend, noise telemetry, action
    #: budgets, and the budget-consistency check.
    privacy: dict = field(default_factory=dict)
    #: The session layer at the end of the run: ``count``, ``outbox_depth``
    #: (requests still pending), ``events`` by type.
    sessions: dict = field(default_factory=dict)
    #: The transport's final ``snapshot()``.
    net: dict = field(default_factory=dict)
    #: Traced runs only (see :func:`repro.obs.distributed.trace_section`):
    #: stage totals, stage x category wall self time, per-op crypto cost,
    #: stage coverage, per-endpoint runtime attribution and propagation.
    trace: dict = field(default_factory=dict)

    def rounds_for(self, protocol: str) -> list[RoundStats]:
        return [r for r in self.rounds if r.protocol == protocol]

    def stage_mean(self, stage: str = "latency_s", protocol: str | None = None) -> float:
        """Mean of one :class:`RoundStats` timing (``latency_s``,
        ``submit_stage_s``, ``mix_stage_s``, ``scan_stage_s``) over the live
        rounds -- of one protocol, or of the whole run."""
        values = [
            getattr(r, stage)
            for r in self.rounds
            if not r.aborted and (protocol is None or r.protocol == protocol)
        ]
        return sum(values) / len(values) if values else 0.0

    def mean_scan_stage(self, protocol: str = "add-friend") -> float:
        """Mean mix+scan share of round latency over the live rounds.

        Everything after the submit stage: the mix run plus the clients'
        mailbox downloads -- the part a capped CDN egress link stretches.
        """
        stages = [
            max(0.0, r.latency_s - r.submit_stage_s)
            for r in self.rounds
            if r.protocol == protocol and not r.aborted
        ]
        return sum(stages) / len(stages) if stages else 0.0

    def round_latencies(self, protocol: str | None = None) -> list[float]:
        return [
            r.latency_s
            for r in self.rounds
            if not r.aborted and (protocol is None or r.protocol == protocol)
        ]

    def to_dict(self) -> dict:
        config = self.spec.config
        return {
            "scenario": self.name,
            "description": self.spec.description,
            "num_clients": self.spec.num_clients,
            "mix_servers": config.num_mix_servers,
            "pkg_servers": config.num_pkg_servers,
            "rounds": [r.to_dict() for r in self.rounds],
            "friendships_confirmed": self.friendships_confirmed,
            "calls_delivered": self.calls_delivered,
            "total_bytes_sent": self.total_bytes_sent,
            "total_messages_sent": self.total_messages_sent,
            "wall_seconds": round(self.wall_seconds, 3),
            "pipelined": self.spec.pipelined,
            "retry_horizon": config.retry_horizon,
            "entry_shards": config.entry_shards,
            "ingress_batch_size": config.ingress_batch_size,
            "zipf_alpha": self.spec.zipf_alpha,
            "shard_access_mbps": self.spec.shard_access_mbps,
            "cdn_egress_mbps": self.spec.cdn_egress_mbps,
            "crypto_backend": config.crypto_backend,
            "fidelity": self.spec.fidelity,
            "runtime": self.spec.runtime,
            # the worker processes the run used: one per mix server on mp
            "mp_workers": config.num_mix_servers if self.spec.runtime == "mp" else 0,
            "attestation_backend": config.attestation_backend,
            "addfriend_submit_stage_s": round(self.stage_mean("submit_stage_s", "add-friend"), 6),
            "addfriend_scan_stage_s": round(self.mean_scan_stage("add-friend"), 6),
            "throughput": self.throughput,
            "friend_requests": self.friend_requests,
            "shard_loads": self.shard_loads,
            "calls_by_method": self.calls_by_method,
            "bytes_by_method": self.bytes_by_method,
            "privacy": self.privacy,
            "round_gauges": [r.gauges() for r in self.rounds],
            "sessions": self.sessions,
            "net": self.net,
            **({"trace": self.trace} if self.trace else {}),
        }


class Scenario:
    """Base scenario: N clients, some friendships, then dialing."""

    #: Link between any two servers (entry, mixes, PKGs, CDN).
    server_link = LinkSpec.of(latency_ms=2, bandwidth_mbps=1000)

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        #: Zipf-skewed mailbox placement (``spec.zipf_alpha > 0``): the
        #: workload draws a shard per new index, so each email is kept.
        self._zipf = None
        self._emails: dict[int, str] = {}
        config = spec.config
        if spec.zipf_alpha > 0:
            if config.entry_shards < 2:
                raise ConfigurationError(
                    f"zipf_alpha={spec.zipf_alpha:g} needs entry_shards > 1 (got "
                    f"{config.entry_shards}): one shard has no placement to skew"
                )
            if config.fixed_mailbox_count is None:
                raise ConfigurationError(
                    "zipf_alpha > 0 needs fixed_mailbox_count: mailbox placement "
                    "must be stable across rounds for the skew to mean anything"
                )
            self._zipf = ZipfMailboxWorkload(
                shard_count=config.entry_shards,
                mailbox_count=config.fixed_mailbox_count,
                alpha=spec.zipf_alpha,
                seed=f"{spec.seed}/{spec.name}/zipf",
            )
        servers = self.server_endpoints()
        for fault in spec.faults:
            missing = [name for name in fault.names if name not in servers]
            if fault.kind in ("partition", "slow") and missing:
                raise ConfigurationError(
                    f"{fault.kind} fault names {', '.join(missing)}, not an endpoint "
                    f"of this deployment ({', '.join(servers)})"
                )
        self._churn_rng = DeterministicRng(f"{spec.seed}/{spec.name}/churn")
        self._flash_rng = DeterministicRng(f"{spec.seed}/{spec.name}/flash")
        self._joined = 0  # late joiners so far (a ``join`` fault)
        #: The live views: plain callables ``view(kind, item)``, each handed
        #: what the driver appends to the record, where it appends it:
        #: ``"start"`` (the :class:`ScenarioSpec`, once the deployment is
        #: populated), ``"round_start"`` (``(protocol, index, clock)`` just
        #: before each round, where a dashboard's pause/step gate blocks),
        #: ``"round"`` (the finished :class:`RoundStats`, aborted rounds
        #: included), ``"event"`` (a session event) and ``"finish"`` (the
        #: :class:`ScenarioResult`).  No view is handed a deployment or a
        #: transport.
        self.views: list = []
        #: The always-on privacy ledger: every run accounts its (epsilon,
        #: delta) spend, whether or not anyone asked (privacy observability
        #: is not opt-in).  The driver feeds it one row per published round;
        #: its report lands in ``ScenarioResult.privacy``.
        self.ledger = PrivacyLedger()
        #: Session events by type, so far (the driver taps the registry once).
        self.event_counts: dict[str, int] = {}
        #: Handles for the pre-run friendship pairs (queued via sessions).
        self.request_handles: list = []
        #: Handles for requests queued mid-run (e.g. a churn scenario's late
        #: joiners); counted in the totals but not in the "initial" breakdown.
        self.extra_handles: list = []
        #: Emails of the initial pairs' senders; churn scenarios keep these
        #: online so the liveness of their requests is a retry measurement,
        #: not an artifact of the sender itself being offline.
        self.sender_emails: set[str] = set()

    # -- faults ------------------------------------------------------------
    def configure(self, deployment: Deployment, net: Transport) -> None:
        """One-time setup after the deployment is built: the ``slow``,
        ``regions`` and ``region_link`` faults sculpt the topology."""
        servers = self.server_endpoints()
        for fault in self.spec.faults:
            if fault.kind == "slow":
                for name in fault.names:
                    # Explicit pair links outrank endpoint overrides, so replace
                    # the server-mesh links touching it as well as its default.
                    for other in servers:
                        if other != name:
                            net.topology.set_link(name, other, fault.link)
                    net.topology.set_endpoint(name, fault.link)
            elif fault.kind == "regions":
                for server in servers:
                    net.topology.assign_region(server, fault.names[0])
                for index in range(self.spec.num_clients):
                    region = fault.names[index % len(fault.names)]
                    net.topology.assign_region(self.client_email(index), region)
            elif fault.kind == "region_link":
                net.topology.set_region_link(*fault.names, fault.link)

    def _apply_round_faults(
        self, deployment: Deployment, net: Transport, protocol: str, round_index: int
    ):
        """The spec's faults just before a round: ``partition``, ``join`` and
        ``flash``, then the ``churn`` draw.  Returns the clients online this
        round, ``None`` meaning everyone."""
        addfriend = protocol == "add-friend"
        churn = None
        for fault in self.spec.faults:
            if fault.kind == "partition":
                # Both drive paths come here for every round, aborted ones
                # included, so the heal lands on the very round after the failure.
                for name in fault.names:
                    if addfriend and round_index == fault.at:
                        net.topology.partition_endpoint(name)
                    elif not addfriend or round_index > fault.at:
                        net.topology.heal_endpoint(name)
            elif fault.kind == "join" and addfriend and round_index >= fault.at:
                count = int(fault.amount)
                joiners = [f"late{self._joined + i}@sim.example.org" for i in range(count)]
                self._joined += count
                for client in deployment.create_clients(joiners):
                    self.extra_handles.append(client.session.add_friend(self.client_email(0)))
            elif fault.kind == "flash" and addfriend and round_index == fault.at:
                lonely = [
                    client
                    for client in deployment.clients.values()
                    if not client.friends() and not client.addfriend.pending_in_queue()
                ]
                self._flash_rng.shuffle(lonely)
                count = int(len(lonely) * fault.amount) & ~1  # even
                # Distinct clients with no friend and nothing queued: any error is real.
                for i in range(0, count, 2):
                    self.extra_handles.append(lonely[i].session.add_friend(lonely[i + 1].email))
            elif fault.kind == "churn":
                churn = fault
        if churn is None:
            return None
        online = [
            client
            for client in deployment.clients.values()
            if self._churn_rng.uniform() >= churn.amount or client.email in self.sender_emails
        ]
        # A round with zero online clients tells us nothing; keep one.
        return online or [next(iter(deployment.clients.values()))]

    # -- construction ------------------------------------------------------
    def server_endpoints(self) -> list[str]:
        # "coordinator" is the round driver's process, where the entry
        # server runs at every shard count: every control RPC to a mix, a
        # PKG, a shard or the CDN leaves from it (rpc.CONTROL_SRC) and rides
        # the server mesh, not a client WAN link.
        config = self.spec.config
        front = front_endpoints(config.entry_shards)
        return (
            list(dict.fromkeys(name for names in front for name in names))
            + ["coordinator"]
            + [f"mix{i}" for i in range(config.num_mix_servers)]
            + [f"pkg{i}" for i in range(config.num_pkg_servers)]
        )

    def build_topology(self) -> NetworkTopology:
        client_link = self.spec.client_link
        if self.spec.fidelity == "fluid":
            # Fluid fidelity moves everything on a client link as a
            # deterministic flow; the server mesh keeps per-frame fidelity
            # (control RPCs are few and their loss/retry behavior matters).
            client_link = replace(client_link, fluid=True)
        topology = NetworkTopology(default=client_link)
        servers = self.server_endpoints()
        for i, a in enumerate(servers):
            for b in servers[i + 1 :]:
                topology.set_link(a, b, self.server_link)
        return topology

    def build_transport(self) -> Transport:
        """The transport ``spec.runtime`` selects (the ``--runtime`` axis)."""
        spec = self.spec
        if spec.runtime == "sim":
            return SimulatedNetwork(
                topology=self.build_topology(), seed=f"{spec.seed}/{spec.name}/net"
            )
        if any(fault.kind in TOPOLOGY_FAULTS for fault in spec.faults):
            raise ConfigurationError(
                f"scenario {spec.name!r} sculpts the simulated topology and "
                f"cannot run with runtime {spec.runtime!r}"
            )
        if spec.runtime == "asyncio":
            from repro.runtime import AsyncioTransport

            return AsyncioTransport()
        if spec.runtime == "mp":
            from repro.runtime import MultiprocessTransport, mix_endpoint_spec

            # One worker per mix server, rebuilt from the exact derivation
            # Deployment itself uses: (name, rng seed, crypto backend).
            return MultiprocessTransport([
                [mix_endpoint_spec(f"mix{i}", f"{spec.seed}/{spec.name}/mix/{i}", spec.config.crypto_backend)]
                for i in range(spec.config.num_mix_servers)
            ])
        raise ConfigurationError(
            f"unknown runtime {spec.runtime!r}: expected sim, asyncio, or mp"
        )

    def build(self) -> tuple[Deployment, Transport]:
        spec = self.spec
        if spec.fidelity not in ("slotted", "fluid"):
            raise ValueError(
                f"unknown fidelity {spec.fidelity!r}: expected slotted or fluid"
            )
        net = self.build_transport()
        mu, b = spec.resolved_noise()
        try:
            deployment = Deployment(
                replace(spec.config, noise=NoiseConfig(mu, b, mu, b)),
                seed=f"{spec.seed}/{spec.name}",
                transport=net,
            )
        except Exception:
            net.close()  # don't leak sockets/worker processes on a failed build
            raise
        if isinstance(net, SimulatedNetwork):
            self._apply_access_links(net)
        return deployment, net

    def _apply_access_links(self, net: SimulatedNetwork) -> None:
        """Cap entry ingress and CDN egress at the spec'd per-endpoint rates.

        Applied to every shard -- or to the single "entry"/"cdn" endpoint
        when unsharded -- so a shard-count sweep holds per-shard access
        capacity constant and measures pure horizontal scaling (of the
        submit stage behind entry ingress, and of the scan stage behind CDN
        egress).
        """
        mbps, egress = self.spec.shard_access_mbps, self.spec.cdn_egress_mbps
        for entry, _ingress, cdn in front_endpoints(self.spec.config.entry_shards):
            if mbps > 0:
                net.set_access_link(entry, ingress_mbps=mbps)
            if egress > 0:
                net.set_access_link(cdn, egress_mbps=egress)

    # -- population --------------------------------------------------------
    def client_email(self, index: int) -> str:
        if self._zipf is None:
            return f"user{index}@sim.example.org"
        email = self._emails.get(index)
        if email is None:
            email = self._emails[index] = self._zipf.email_for(index)
        return email

    def populate(self, deployment: Deployment) -> None:
        deployment.create_clients([self.client_email(i) for i in range(self.spec.num_clients)])
        self.queue_friendships(deployment)

    def queue_friendships(self, deployment: Deployment) -> None:
        """Disjoint pairs (2i, 2i+1) queue a friend request from the even side.

        Requests go through :class:`~repro.api.session.ClientSession`, so
        every scenario gets per-request lifecycle handles (and, with
        ``config.retry_horizon`` set, sender-side retry) for free.
        """
        for pair in range(self.spec.resolved_friend_pairs()):
            a, b = self.client_email(2 * pair), self.client_email(2 * pair + 1)
            if a in deployment.clients and b in deployment.clients:
                self.request_handles.append(deployment.session(a).add_friend(b))
                self.sender_emails.add(a)

    def queue_calls(self, deployment: Deployment) -> None:
        """One direction per friendship dials (the lexicographically smaller
        email).  Dialing tokens are derived from the *shared* keywheel, so a
        simultaneous mutual dial with the same intent would produce the same
        token on both sides and each would discard it as its own."""
        for client in deployment.clients.values():
            friends = [f for f in client.friends() if client.email < f]
            if friends and not client.placed_calls():
                client.call(friends[0])

    # -- the run loop ------------------------------------------------------
    def _show(self, kind: str, item) -> None:
        """Hand one fragment of the record to every live view."""
        for view in self.views:
            view(kind, item)

    def run(self) -> ScenarioResult:
        started = time.perf_counter()
        deployment, net = self.build()
        try:
            self.configure(deployment, net)
            # Subscribed first: the initial pairs' requests are session events too.
            deployment.subscribe_all(self._on_event)
            self.populate(deployment)
            budget_check = self._check_privacy_budget(deployment)
            self._show("start", self.spec)

            result = ScenarioResult(name=self.spec.name, spec=self.spec)
            self._drive_protocol(deployment, net, "add-friend", self.spec.addfriend_rounds, result)
            self.queue_calls(deployment)
            self._drive_protocol(deployment, net, "dialing", self.spec.dialing_rounds, result)
            self._record_overall_throughput(result)

            result.friendships_confirmed = sum(
                len(c.friends()) for c in deployment.clients.values()
            ) // 2
            result.calls_delivered = sum(
                len(c.received_calls()) for c in deployment.clients.values()
            )
            result.friend_requests = self._friend_request_stats()
            result.total_bytes_sent = net.stats.bytes_sent
            result.total_messages_sent = net.stats.messages_sent
            result.calls_by_method = dict(net.stats.calls_by_method)
            result.bytes_by_method = dict(net.stats.bytes_by_method)
            result.shard_loads = deployment.entry.load_report()
            sessions = [client.session for client in deployment.clients.values()]
            result.privacy = run_report(self.ledger, sessions, net.stats.bytes_sent, budget_check)
            result.sessions = {
                "count": len(sessions),
                "outbox_depth": sum(len(s.pending_requests()) for s in sessions),
                "events": dict(self.event_counts),
            }
            result.net = net.snapshot()
        finally:
            deployment.close()
        result.wall_seconds = time.perf_counter() - started
        tracer = active_tracer()
        if tracer is not None:
            # After close(): an mp transport's last harvest happens there.
            result.trace = trace_section(tracer, result.rounds)
        self._show("finish", result)
        return result

    def _on_event(self, event) -> None:
        self.event_counts[event.type] = self.event_counts.get(event.type, 0) + 1
        self._show("event", event)

    def _check_privacy_budget(self, deployment: Deployment) -> dict | None:
        """The startup check of the configured noise against a stated
        ``privacy_budget``: warn and record, never fail (adversarial scenarios
        under-noise on purpose)."""
        protected = self.spec.privacy_budget
        if not protected:
            return None
        mu, b = deployment.config.noise.parameters_for("add-friend")
        check = budget_consistency(protected, b, mu, delta=self.ledger.delta)
        if not check["consistent"]:
            get_logger("privacy").warning(
                "configured noise b=%.3f is below the b=%.3f the stated "
                "budget of %d actions prescribes (under-noised %.1fx); "
                "recording, not failing",
                b, check["prescribed_b"], protected, check["under_noised_factor"],
            )
        return check

    def _record_round(
        self, deployment: Deployment, net: Transport, result: ScenarioResult, stats: RoundStats
    ) -> None:
        """Finish a round's row -- the gauges sampled now, its ledger row --
        append it to the record and hand it to the views."""
        stats.clock = deployment.clock
        stats.net = net.snapshot()
        stats.events = dict(self.event_counts)
        shard_ranges = ()
        loads = deployment.entry.load_report()
        if loads:  # a sharded front
            stats.shards = {
                "submissions_by_shard": loads["submissions_by_shard"],
                "imbalance": loads["imbalance"],
            }
            directory = deployment.entry.directory_or_none(stats.protocol, stats.round_number)
            if directory is not None:
                shard_ranges = directory.ranges
        if not stats.aborted:  # an aborted round publishes no mailboxes: nothing observed
            mu, b = deployment.config.noise.parameters_for(stats.protocol)
            row = self.ledger.record_round(
                protocol=stats.protocol,
                round_number=stats.round_number,
                laplace_scale=b,
                noise_mu=mu,
                per_server_noise=stats.per_server_noise,
                mailbox_counts=stats.mailbox_counts,
                delivered_real=stats.delivered_real,
                shard_ranges=shard_ranges,
            )
            stats.privacy = {
                **row.to_dict(),
                "delta": row.delta,
                "per_shard_noise": self.ledger.expected_noise_by_shard(stats.protocol),
            }
        result.rounds.append(stats)
        self._show("round", stats)

    def _friend_request_stats(self) -> dict:
        """Liveness accounting over the handles this scenario queued."""
        from repro.api.handles import RequestState

        def bucket(handles: list) -> dict:
            confirmed = sum(1 for h in handles if h.state is RequestState.CONFIRMED)
            return {
                "total": len(handles),
                "confirmed": confirmed,
                "failed": sum(1 for h in handles if h.state is RequestState.FAILED),
                "retries": sum(max(0, h.attempts - 1) for h in handles),
                "confirmed_fraction": round(confirmed / len(handles), 4) if handles else 0.0,
            }

        stats = bucket(self.request_handles + self.extra_handles)
        stats["initial"] = bucket(self.request_handles)
        return stats

    def _drive_protocol(
        self,
        deployment: Deployment,
        net: Transport,
        protocol: str,
        count: int,
        result: ScenarioResult,
    ) -> None:
        """Drive all of one protocol's rounds and record their throughput."""

        def participants_for(round_index: int):
            self._show("round_start", (protocol, round_index, deployment.clock))
            return self._apply_round_faults(deployment, net, protocol, round_index)

        latencies = []

        def on_summary(summary: RoundSummary) -> None:
            latencies.append(summary.latency_s)
            self._record_round(deployment, net, result, RoundStats.from_summary(summary))

        started_clock = deployment.clock
        deployment.run_rounds(
            protocol,
            count,
            participants_for=participants_for,
            pipelined=self.spec.pipelined,
            on_summary=on_summary,
        )
        # Sequential rounds never overlap, so their busy time is the sum of
        # the per-round costs (the inter-round gaps excluded, an aborted
        # round's announce/submit time included); overlapped rounds have no
        # gaps and their busy time is the clock's.
        busy = deployment.clock - started_clock if self.spec.pipelined else sum(latencies)
        completed = sum(
            1 for r in result.rounds if r.protocol == protocol and not r.aborted
        )
        result.throughput[protocol] = {
            "rounds": completed,
            "busy_s": round(busy, 6),
            "rounds_per_sec": round(completed / busy, 6) if busy > 0 else 0.0,
        }

    def _record_overall_throughput(self, result: ScenarioResult) -> None:
        per_protocol = [v for k, v in result.throughput.items() if k != "overall"]
        rounds = sum(v["rounds"] for v in per_protocol)
        busy = sum(v["busy_s"] for v in per_protocol)
        result.throughput["overall"] = {
            "rounds": rounds,
            "busy_s": round(busy, 6),
            "rounds_per_sec": round(rounds / busy, 6) if busy > 0 else 0.0,
        }


SPEC_FIELDS = frozenset(f.name for f in fields(ScenarioSpec))
#: ``noise`` is not among them: a run's noise is the spec's ``noise_mu``,
#: ``noise_b`` and ``privacy_budget``, and ``build`` replaces the config's.
CONFIG_FIELDS = frozenset(f.name for f in fields(AlpenhornConfig)) - {"noise"}


def with_overrides(spec: ScenarioSpec, **overrides) -> ScenarioSpec:
    """A spec with the given names replaced: a spec field on the spec, a
    config field on a fresh copy of its config (copied even without one, so
    no run shares a row's config); any other name raises ``TypeError``."""
    unknown = sorted(set(overrides) - SPEC_FIELDS - CONFIG_FIELDS)
    if unknown:
        raise TypeError(f"no ScenarioSpec or AlpenhornConfig field named {', '.join(unknown)}")
    config = overrides.pop("config", spec.config)
    config = replace(config, **{k: overrides.pop(k) for k in CONFIG_FIELDS & set(overrides)})
    return replace(spec, config=config, **overrides)
