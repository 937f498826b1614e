"""The named scenarios the harness ships with: one table, a row per scenario.

A row is ``name -> ScenarioSpec``, and every row runs on the one
:class:`~repro.sim.scenario.Scenario` class.  A fault row states its faults
as data, a schedule of :class:`~repro.sim.scenario.Fault` values in
``spec.faults`` (a partition, a slow link, who is online, a burst of
requests) that the base class interprets.  The rows:

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

from repro.net.links import LinkSpec
from repro.sim.scenario import Fault, Scenario, ScenarioResult, ScenarioSpec, scenario_config, with_overrides

#: Six inter-region links: 15 ms inside a region, 80-180 ms between them.
_REGION_LINKS = (
    ("us-east", "us-east", LinkSpec.of(latency_ms=15, bandwidth_mbps=100, jitter_ms=5)),
    ("eu-west", "eu-west", LinkSpec.of(latency_ms=15, bandwidth_mbps=100, jitter_ms=5)),
    ("ap-south", "ap-south", LinkSpec.of(latency_ms=15, bandwidth_mbps=100, jitter_ms=5)),
    ("us-east", "eu-west", LinkSpec.of(latency_ms=80, bandwidth_mbps=50, jitter_ms=15)),
    ("us-east", "ap-south", LinkSpec.of(latency_ms=180, bandwidth_mbps=30, jitter_ms=25)),
    ("eu-west", "ap-south", LinkSpec.of(latency_ms=140, bandwidth_mbps=30, jitter_ms=20)),
)

SCENARIOS: dict[str, ScenarioSpec] = {
    "baseline": ScenarioSpec(name="baseline", description="steady state, uniform links"),
    "client_churn": ScenarioSpec(
        name="client_churn",
        description="25% offline per round, late joiners",
        faults=(Fault("churn", amount=0.25), Fault("join", at=1, amount=2)),
    ),
    "straggler_mix": ScenarioSpec(
        name="straggler_mix",
        description="one mix server on a slow link",
        faults=(Fault("slow", names=("mix1",), link=LinkSpec.of(latency_ms=400, bandwidth_mbps=5)),),
    ),
    "pkg_failure": ScenarioSpec(
        name="pkg_failure",
        description="a PKG partitions for one round, then recovers",
        addfriend_rounds=4,
        faults=(Fault("partition", names=("pkg1",), at=1),),
    ),
    "flash_crowd": ScenarioSpec(
        name="flash_crowd",
        description="burst of friend requests in one round",
        addfriend_rounds=3,
        faults=(Fault("flash", at=1, amount=0.8),),
    ),
    "geo_distributed": ScenarioSpec(
        name="geo_distributed",
        description="clients across three regions",
        faults=(
            Fault("regions", names=("us-east", "eu-west", "ap-south")),  # servers in us-east
            *(Fault("region_link", names=(a, b), link=link) for a, b, link in _REGION_LINKS),
        ),
    ),
    "metropolis": ScenarioSpec(
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
    "megacity": ScenarioSpec(
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
    "sharded_entry": ScenarioSpec(
        name="sharded_entry",
        description="mailbox-range sharded entry/CDN tier behind capped access links",
        num_clients=120,
        addfriend_rounds=2,
        dialing_rounds=2,
        client_link=LinkSpec.of(latency_ms=200, bandwidth_mbps=50, jitter_ms=10),
        config=scenario_config(entry_shards=4, ingress_batch_size=16, fixed_mailbox_count=8),
        shard_access_mbps=1.0,
    ),
    "passive_observer": ScenarioSpec(
        name="passive_observer",
        description="distinguishing-audit arm: the target acts",
        num_clients=16,
        friend_pairs=1,  # user0 -> user1
        addfriend_rounds=1,
        dialing_rounds=0,
    ),
    "passive_observer_idle": ScenarioSpec(
        name="passive_observer_idle",
        description="distinguishing-audit arm: the target stays idle",
        num_clients=16,
        friend_pairs=0,
        addfriend_rounds=1,
        dialing_rounds=0,
    ),
    "pipelined_rounds": ScenarioSpec(
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
}


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


def make_scenario(name: str, **overrides) -> Scenario:
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; choose from {scenario_names()}")
    return Scenario(with_overrides(SCENARIOS[name], **overrides))


def run_scenario(name: str, **overrides) -> ScenarioResult:
    """Build and run a named scenario; overrides are ScenarioSpec or
    AlpenhornConfig fields (see :func:`~repro.sim.scenario.with_overrides`)."""
    return make_scenario(name, **overrides).run()
