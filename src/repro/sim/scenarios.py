"""The named scenarios the harness ships with: one table, a row per scenario.

A row is ``name -> (class, ScenarioSpec)``.  Most rows are the base
:class:`~repro.sim.scenario.Scenario` and differ only in their spec; a row
has its own class only when it injects a fault the spec cannot state (a
partition, a slow link, who is online, a burst of requests):

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
* ``pipelined_rounds`` -- 200 ms client links, where a round's submit stage
  and its scan stage each take near half a second of simulated time, with
  overlapped rounds: round N+1's announce+submit runs while round N is
  still mixing and being scanned, so throughput is bounded by the slowest
  stage rather than the sum of stages.  ``pipelined`` is the only
  difference from the sequential baseline (``pipelined=False``), so
  flipping it measures the speedup on identical topology and workload
  (``python -m repro.sim sweep pipelining`` does both and reports the ratio).
* ``sharded_entry`` -- the sharded entry/CDN tier: N mailbox-range shards,
  each entry endpoint's ingress capped at ``shard_access_mbps`` (the shared
  uplink a real front-end has), so the submit stage queues behind N access
  links instead of one, and ``SubmitBatch`` frames of
  ``ingress_batch_size`` envelopes amortize per-frame overhead on them.
  Its eight pinned mailboxes keep placement stable across rounds, so
  ``zipf_alpha > 0`` skews the client population across shards (§8.4; the
  base scenario's placement, which every row with several shards honours).
  The ``shards`` experiment measures submit-stage scaling with shard count
  and per-shard load imbalance under skew (``BENCH_shards.json``).
* ``metropolis`` -- 10,000 clients on the ``accelerated`` crypto engine,
  the scale the pluggable engine buys (the ``crypto`` experiment,
  ``BENCH_crypto.json``): on the ``pure`` backend a population this size
  spends minutes per round in Python ChaCha20/X25519.  On a stdlib-only
  host run it with ``--crypto-backend pure`` (and patience); the error the
  default raises there is the dependency gate working as intended.
* ``megacity`` -- 100,000 clients, reachable because a round stage is one
  wave over the population (one crypto-engine batch per round, frames
  priced by delay arithmetic) and the client links run ``fluid``
  (deterministic flows, no per-frame jitter draws).  ``--fidelity
  slotted`` keeps per-frame fidelity at roughly the same cost; the
  ``fidelity`` experiment measures what each level costs and how far
  ``fluid`` diverges (``BENCH_fidelity.json``).
* ``passive_observer`` / ``passive_observer_idle`` -- the two arms of the
  paired distinguishing experiment (§6's threat model).  The target
  ``user0`` queues one real friend request to ``user1`` (``friend_pairs=1``)
  or stays idle (``friend_pairs=0``); every online client submits every
  round either way, so the arms are wire-identical and a passive observer's
  only signal is the published noisy mailbox counts.  The ``privacy``
  experiment (:mod:`repro.sim.privacy_sweep`) runs many paired trials over
  a noise grid and compares the empirical advantage to
  ``(e^eps - 1)/(e^eps + 1)``.

``run_scenario("name", num_clients=500)`` is the programmatic entry point;
``python -m repro.sim run NAME`` is the CLI; ``python -m repro.sim sweep
EXPERIMENT`` runs a declared experiment over a scenario
(:mod:`repro.sim.experiments`) and writes ``BENCH_<experiment>.json``.
"""

from __future__ import annotations

from repro.core.coordinator import Deployment
from repro.net.links import LinkSpec
from repro.net.simulated import SimulatedNetwork
from repro.sim.scenario import Scenario, ScenarioResult, ScenarioSpec, scenario_config, with_overrides
from repro.utils.rng import DeterministicRng


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
        # Both drive paths call before_round for every round, aborted ones
        # included, so the heal lands on the very round after the failure.
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
        # Distinct clients with no friend and nothing queued: any error is real.
        for i in range(0, count, 2):
            self.extra_handles.append(lonely[i].session.add_friend(lonely[i + 1].email))


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


SCENARIOS: dict[str, tuple[type[Scenario], ScenarioSpec]] = {
    "baseline": (
        Scenario,
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
        Scenario,
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
            config=scenario_config(crypto_backend="accelerated"),
        ),
    ),
    "megacity": (
        Scenario,
        ScenarioSpec(
            name="megacity",
            description="100k clients on fluid links and batched round stages",
            num_clients=100_000,
            friend_pairs=5_000,
            # The minimum rounds, as metropolis: single-figure minutes at 100k.
            addfriend_rounds=2,
            dialing_rounds=2,
            config=scenario_config(crypto_backend="accelerated"),
            fidelity="fluid",
        ),
    ),
    "sharded_entry": (
        Scenario,
        ScenarioSpec(
            name="sharded_entry",
            description="mailbox-range sharded entry/CDN tier behind capped access links",
            num_clients=120,
            addfriend_rounds=2,
            dialing_rounds=2,
            client_link=LinkSpec.of(latency_ms=200, bandwidth_mbps=50, jitter_ms=10),
            config=scenario_config(entry_shards=4, ingress_batch_size=16, fixed_mailbox_count=8),
            shard_access_mbps=1.0,
        ),
    ),
    "passive_observer": (
        Scenario,
        ScenarioSpec(
            name="passive_observer",
            description="distinguishing-audit arm: the target acts",
            num_clients=16,
            friend_pairs=1,  # user0 -> user1
            addfriend_rounds=1,
            dialing_rounds=0,
        ),
    ),
    "passive_observer_idle": (
        Scenario,
        ScenarioSpec(
            name="passive_observer_idle",
            description="distinguishing-audit arm: the target stays idle",
            num_clients=16,
            friend_pairs=0,
            addfriend_rounds=1,
            dialing_rounds=0,
        ),
    ),
    "pipelined_rounds": (
        Scenario,
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
    """Build and run a named scenario; overrides are ScenarioSpec or
    AlpenhornConfig fields (see :func:`~repro.sim.scenario.with_overrides`)."""
    return make_scenario(name, **overrides).run()
