"""The named scenarios the harness ships with.

Each scenario stresses one deployment-scale question the paper's testbed
answered with EC2 machines:

* ``baseline`` -- steady state: every client online, uniform links.
* ``client_churn`` -- a fraction of clients drops offline each round and
  late joiners register mid-run.  A sender's queued work survives its own
  missed rounds; a request *delivered* while the recipient is offline is
  lost with the round's mailbox (the recipient never held that round's IBE
  key -- forward secrecy), so churn measurably suppresses friendship
  formation until senders retry.
* ``straggler_mix`` -- one mix server sits behind a slow link, dragging the
  whole chain (the pipeline is only as fast as its slowest hop).
* ``pkg_failure`` -- a PKG partitions away for one add-friend round (an
  anytrust deployment cannot open the round without it) and then recovers.
* ``flash_crowd`` -- a burst of friend requests lands in one round, forcing
  mailbox re-sizing and a bandwidth spike.
* ``geo_distributed`` -- clients spread across regions with realistic
  inter-region latencies; servers are hosted in one region.
* ``pipelined_rounds`` -- high-latency links with overlapped rounds: round
  N+1's announce+submit runs while round N is still mixing and being
  scanned, so throughput is bounded by the slowest stage rather than the
  sum of stages.  Run it with ``pipelined=False`` for the sequential
  baseline the speedup is measured against (``python -m repro.sim sweep
  pipelining`` does both and reports the ratio).
* ``sharded_entry`` -- the ``repro.cluster`` tier: N mailbox-range entry/CDN
  shards behind capacity-limited access links, ingress envelope batching,
  and an optional Zipf(α) mailbox-skewed client population.  The
  ``shards`` experiment measures submit-stage scaling with shard count
  and per-shard load imbalance under skew (``BENCH_shards.json``).
* ``metropolis`` -- 10,000 clients on the ``accelerated`` crypto engine:
  the scale the pluggable engine (the ``crypto`` experiment,
  ``BENCH_crypto.json``) buys over the pure-Python hot path.
* ``megacity`` -- 100,000 clients: round stages as client waves and
  fluid-flow client links (the
  ``fidelity`` experiment measures what each fidelity level costs and how
  far ``fluid`` diverges; ``BENCH_fidelity.json``).

``run_scenario("name", num_clients=500)`` is the programmatic entry point;
``python -m repro.sim run NAME`` is the CLI; ``python -m repro.sim sweep
EXPERIMENT`` runs a declared experiment over a scenario
(:mod:`repro.sim.experiments`) and writes ``BENCH_<experiment>.json``.
"""

from __future__ import annotations

from repro.core.coordinator import Deployment
from repro.net.links import LinkSpec
from repro.net.simulated import SimulatedNetwork
from repro.sim.scenario import Scenario, ScenarioResult, ScenarioSpec, with_overrides
from repro.utils.rng import DeterministicRng


class BaselineScenario(Scenario):
    """Steady state: everyone online, uniform links."""


class ClientChurnScenario(Scenario):
    """A deterministic fraction of clients is offline each round; new
    clients join between add-friend rounds.

    The initial pairs' *senders* stay online every round: their requests'
    fate then measures exactly what churn does to the protocol (recipients
    missing delivery rounds) and what sender-side retry recovers -- not the
    confound of the sender itself being away.  Everyone else (recipients,
    bystanders, late joiners) churns.
    """

    offline_fraction = 0.25
    joins_per_round = 2

    def __init__(self, spec: ScenarioSpec) -> None:
        super().__init__(spec)
        self._rng = DeterministicRng(f"{spec.seed}/{spec.name}/churn")
        self._joined = 0

    def participants(self, deployment: Deployment, protocol: str, round_index: int):
        online = [
            client
            for client in deployment.clients.values()
            if self._rng.uniform() >= self.offline_fraction
            or client.email in self.sender_emails
        ]
        # A round with zero online clients tells us nothing; keep one.
        return online or [next(iter(deployment.clients.values()))]

    def before_round(self, deployment, net, protocol, round_index) -> None:
        if protocol != "add-friend" or round_index == 0:
            return
        joiners = [f"late{self._joined + i}@sim.example.org" for i in range(self.joins_per_round)]
        self._joined += self.joins_per_round
        for client in deployment.create_clients(joiners):
            # Late joiners immediately want in: befriend an anchor user.
            self.extra_handles.append(client.session.add_friend(self.client_email(0)))


class StragglerMixScenario(Scenario):
    """One mix server behind a slow, thin link stalls every batch hop."""

    requires_simulated_network = True
    straggler = "mix1"
    straggler_link = LinkSpec.of(latency_ms=400, bandwidth_mbps=5)

    def configure(self, deployment: Deployment, net: SimulatedNetwork) -> None:
        # Explicit pair links outrank endpoint overrides, so replace the
        # server-mesh links touching the straggler as well as its default.
        for other in self.server_endpoints():
            if other != self.straggler:
                net.topology.set_link(self.straggler, other, self.straggler_link)
        net.topology.set_endpoint(self.straggler, self.straggler_link)


class PkgFailureScenario(Scenario):
    """A PKG partitions away for one add-friend round, then heals.

    While the PKG is gone the commit-reveal round cannot open (anytrust
    needs every PKG), so the harness records an aborted round; after the
    partition heals the following rounds complete and the friendships that
    were queued before the failure still establish.
    """

    requires_simulated_network = True
    failed_pkg = "pkg1"
    fail_at_round = 1  # 0-based add-friend round index

    def before_round(self, deployment, net, protocol, round_index) -> None:
        # Heal in before_round rather than after_round: aborted rounds skip
        # after_round, recovery must be observable on the very next round,
        # and before_round is the one hook both the sequential and the
        # pipelined drive paths call for every round.
        if protocol != "add-friend" or round_index > self.fail_at_round:
            net.topology.heal_endpoint(self.failed_pkg)
        elif round_index == self.fail_at_round:
            net.topology.partition_endpoint(self.failed_pkg)


class FlashCrowdScenario(Scenario):
    """A burst of add-friend requests all queued into one round."""

    flash_at_round = 1  # 0-based add-friend round index
    flash_fraction = 0.8

    def __init__(self, spec: ScenarioSpec) -> None:
        super().__init__(spec)
        self._rng = DeterministicRng(f"{spec.seed}/{spec.name}/flash")

    def before_round(self, deployment, net, protocol, round_index) -> None:
        if protocol != "add-friend" or round_index != self.flash_at_round:
            return
        lonely = [
            client
            for client in deployment.clients.values()
            if not client.friends() and not client.addfriend.pending_in_queue()
        ]
        self._rng.shuffle(lonely)
        count = int(len(lonely) * self.flash_fraction) & ~1  # even
        for i in range(0, count, 2):
            try:
                lonely[i].add_friend(lonely[i + 1].email)
            except Exception:  # already queued/friended via an earlier pair
                continue


class PipelinedRoundsScenario(Scenario):
    """Back-to-back rounds on slow links, overlapped by the round engine.

    Every WAN round trip costs ~2x the link latency, so at 200 ms a round's
    submit stage and its scan stage each take near half a second of
    simulated time.  Driving rounds through ``Deployment.run_rounds`` with
    pipelining overlaps round N+1's announce+submit with round N's
    mix+scan; the spec's ``pipelined`` flag is the only difference from the
    sequential baseline, so flipping it measures the pipeline's speedup on
    identical topology and workload.
    """


class ShardedEntryScenario(Scenario):
    """The sharded entry/CDN tier under a capacity-limited access link.

    Every entry endpoint's ingress is capped at ``spec.shard_access_mbps``
    (the shared uplink a real front-end has), so the submit stage queues
    behind it: with one entry server the whole population serializes
    through one access link, with N shards through N.  Submit-stage
    latency then scales down with the shard count -- the measurement the
    ``shards`` experiment tracks -- while ingress batching (``SubmitBatch``
    frames of ``spec.ingress_batch_size`` envelopes) amortizes per-frame
    overhead on that contended link.

    ``spec.zipf_alpha > 0`` skews the client population's mailbox placement
    (see :class:`~repro.sim.workloads.ZipfMailboxWorkload`), producing the
    per-shard load imbalance the paper's skew experiment (§8.4) studies at
    the mailbox level.  Requires ``spec.fixed_mailbox_count`` so placement
    is stable across rounds.
    """

    def __init__(self, spec: ScenarioSpec) -> None:
        super().__init__(spec)
        self._emails: dict[int, str] = {}
        self._workload = None
        if spec.entry_shards > 1 and spec.zipf_alpha > 0:
            from repro.sim.workloads import ZipfMailboxWorkload

            if spec.fixed_mailbox_count is None:
                raise ValueError(
                    "zipf_alpha > 0 needs fixed_mailbox_count: mailbox placement "
                    "must be stable across rounds for the skew to mean anything"
                )
            self._workload = ZipfMailboxWorkload(
                shard_count=spec.entry_shards,
                mailbox_count=spec.fixed_mailbox_count,
                alpha=spec.zipf_alpha,
                seed=f"{spec.seed}/{spec.name}/zipf",
            )

    def client_email(self, index: int) -> str:
        if self._workload is None:
            return super().client_email(index)
        email = self._emails.get(index)
        if email is None:
            email = self._emails[index] = self._workload.email_for(index)
        return email


class MegacityScenario(Scenario):
    """The paper's headline scale: 100,000 clients in one deployment.

    Reachable because a round stage is one wave over the population: every
    client's envelope is built through one crypto-engine batch per round,
    a wave's frames are priced by delay arithmetic with no per-frame
    object, and the client links run in ``fluid`` mode (its spec default)
    so the bulk traffic moves as deterministic flows with no per-frame
    jitter draws.  ``--fidelity slotted`` keeps full per-frame
    stochastic fidelity at roughly the same cost if the divergence (see
    the ``fidelity`` experiment) matters for the measurement at hand.

    Two rounds per protocol (the minimum for confirmations and dial
    delivery) with 5,000 friend pairs keep a 100k run in single-figure
    minutes on the accelerated crypto engine.
    """


class MetropolisScenario(Scenario):
    """A city-scale population: 10,000 clients in one deployment.

    The scenario that motivated the pluggable crypto engine: with the pure
    backend a population this size spends minutes per round inside
    ~1.3 ms-per-seal Python ChaCha20/X25519; under the ``accelerated``
    backend (its spec default) the same workload is bounded by the
    event simulator, not the crypto.  Run it on a stdlib-only host with
    ``--crypto-backend pure`` (and patience) -- the error raised by the
    default selection is the dependency gate working as intended.

    The workload keeps the per-client story of ``baseline`` (disjoint
    friend pairs, then one direction dials) at 25x its default scale; two
    rounds per protocol (the minimum for confirmations and dial delivery)
    keep a 10k run in single-figure minutes.
    """


class GeoDistributedScenario(Scenario):
    """Clients in three regions; all servers hosted in ``us-east``."""

    requires_simulated_network = True
    regions = ("us-east", "eu-west", "ap-south")
    region_links = {
        ("us-east", "us-east"): LinkSpec.of(latency_ms=15, bandwidth_mbps=100, jitter_ms=5),
        ("eu-west", "eu-west"): LinkSpec.of(latency_ms=15, bandwidth_mbps=100, jitter_ms=5),
        ("ap-south", "ap-south"): LinkSpec.of(latency_ms=15, bandwidth_mbps=100, jitter_ms=5),
        ("us-east", "eu-west"): LinkSpec.of(latency_ms=80, bandwidth_mbps=50, jitter_ms=15),
        ("us-east", "ap-south"): LinkSpec.of(latency_ms=180, bandwidth_mbps=30, jitter_ms=25),
        ("eu-west", "ap-south"): LinkSpec.of(latency_ms=140, bandwidth_mbps=30, jitter_ms=20),
    }

    def configure(self, deployment: Deployment, net: SimulatedNetwork) -> None:
        for server in self.server_endpoints():
            net.topology.assign_region(server, "us-east")
        for (a, b), link in self.region_links.items():
            net.topology.set_region_link(a, b, link)
        for index in range(self.spec.num_clients):
            region = self.regions[index % len(self.regions)]
            net.topology.assign_region(self.client_email(index), region)


class PassiveObserverScenario(Scenario):
    """One arm of the paired distinguishing experiment (§6's threat model).

    A target client either queues one real friend request ("acts") or stays
    idle; every other client -- and, when idle, the target too -- submits
    only cover traffic.  Since every online client participates every round
    regardless, the two arms are wire-identical: the only signal a passive
    observer gets is the published noisy mailbox counts, where acting adds
    one message on top of the Laplace noise.  The audit harness
    (:mod:`repro.sim.privacy_sweep`, the ``privacy`` experiment) runs many
    paired trials over a noise grid and compares the empirical advantage to ``(e^eps - 1)/(e^eps + 1)``.
    """

    target_acts = True

    def queue_friendships(self, deployment: Deployment) -> None:
        if not self.target_acts:
            return
        a, b = self.client_email(0), self.client_email(1)
        self.request_handles.append(deployment.session(a).add_friend(b))
        self.sender_emails.add(a)


class PassiveObserverIdleScenario(PassiveObserverScenario):
    """The idle arm: the target submits cover traffic like everyone else."""

    target_acts = False


SCENARIOS: dict[str, tuple[type[Scenario], ScenarioSpec]] = {
    "baseline": (
        BaselineScenario,
        ScenarioSpec(name="baseline", description="steady state, uniform links"),
    ),
    "client_churn": (
        ClientChurnScenario,
        ScenarioSpec(name="client_churn", description="25% offline per round, late joiners"),
    ),
    "straggler_mix": (
        StragglerMixScenario,
        ScenarioSpec(name="straggler_mix", description="one mix server on a slow link"),
    ),
    "pkg_failure": (
        PkgFailureScenario,
        ScenarioSpec(
            name="pkg_failure",
            description="a PKG partitions for one round, then recovers",
            addfriend_rounds=4,
        ),
    ),
    "flash_crowd": (
        FlashCrowdScenario,
        ScenarioSpec(
            name="flash_crowd",
            description="burst of friend requests in one round",
            addfriend_rounds=3,
        ),
    ),
    "geo_distributed": (
        GeoDistributedScenario,
        ScenarioSpec(name="geo_distributed", description="clients across three regions"),
    ),
    "metropolis": (
        MetropolisScenario,
        ScenarioSpec(
            name="metropolis",
            description="10k clients on the accelerated crypto engine",
            num_clients=10_000,
            friend_pairs=1_000,
            # Two add-friend rounds so the pairs' confirmations land (the
            # handshake needs the reply round), and two dialing rounds so
            # the freshly anchored keywheels reach their dialable round.
            addfriend_rounds=2,
            dialing_rounds=2,
            crypto_backend="accelerated",
        ),
    ),
    "megacity": (
        MegacityScenario,
        ScenarioSpec(
            name="megacity",
            description="100k clients on fluid links and batched round stages",
            num_clients=100_000,
            friend_pairs=5_000,
            addfriend_rounds=2,
            dialing_rounds=2,
            crypto_backend="accelerated",
            fidelity="fluid",
        ),
    ),
    "sharded_entry": (
        ShardedEntryScenario,
        ScenarioSpec(
            name="sharded_entry",
            description="mailbox-range sharded entry/CDN tier behind capped access links",
            num_clients=120,
            addfriend_rounds=2,
            dialing_rounds=2,
            client_link=LinkSpec.of(latency_ms=200, bandwidth_mbps=50, jitter_ms=10),
            entry_shards=4,
            ingress_batch_size=16,
            shard_access_mbps=1.0,
            fixed_mailbox_count=8,
        ),
    ),
    "passive_observer": (
        PassiveObserverScenario,
        ScenarioSpec(
            name="passive_observer",
            description="distinguishing-audit arm: the target acts",
            num_clients=16,
            addfriend_rounds=1,
            dialing_rounds=0,
        ),
    ),
    "passive_observer_idle": (
        PassiveObserverIdleScenario,
        ScenarioSpec(
            name="passive_observer_idle",
            description="distinguishing-audit arm: the target stays idle",
            num_clients=16,
            addfriend_rounds=1,
            dialing_rounds=0,
        ),
    ),
    "pipelined_rounds": (
        PipelinedRoundsScenario,
        ScenarioSpec(
            name="pipelined_rounds",
            description="overlapped rounds on 200 ms links (pipelined=False for baseline)",
            num_clients=60,
            # One extra add-friend round vs the baseline scenario: a
            # confirming reply queued while round N is scanned overlaps
            # round N+1's already-built submissions, so it rides round N+2.
            addfriend_rounds=3,
            dialing_rounds=8,
            client_link=LinkSpec.of(latency_ms=200, bandwidth_mbps=50, jitter_ms=10),
            pipelined=True,
        ),
    ),
}


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


def make_scenario(name: str, **overrides) -> Scenario:
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; choose from {scenario_names()}")
    cls, spec = SCENARIOS[name]
    return cls(with_overrides(spec, **overrides))


def run_scenario(name: str, **overrides) -> ScenarioResult:
    """Build and run a named scenario; overrides are ScenarioSpec fields."""
    return make_scenario(name, **overrides).run()
