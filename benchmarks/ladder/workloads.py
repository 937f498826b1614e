"""The five ladder workloads: build a deployment, drive its rounds, check it.

Everything here goes through the pinned API surface listed in README.md
(``make_scenario`` + the ``Scenario`` construction hooks, ``Deployment``'s
round drivers, ``Client.call/friends/received_calls``); the round loop is
the benchmark's own so each phase can be timed from outside.

Load model: closed loop, one driver thread.  A round waits for all N
clients and the next starts when it ends, so the rate is whatever the
program sustains at N clients.

Steadiness: the host this was calibrated on runs identical work at two
speeds about 1.7x apart and flips between them every 0.1-30 s, each of its
two CPUs on its own, which no mean or median over one pass survives.  So the
populations are small (a round is 0.05-0.7 s), a run repeats the whole
schedule -- set-up, every round, teardown -- at one seed (identical work)
until ``--seconds`` are used up, the driver thread moves to whichever CPU is
faster at that moment before the rounds of each repetition, and every
wall-clock metric is built from the *fastest repetition of each round
position*: only a slow stretch that covers the same round in every one of
the 14-50 repetitions moves the result.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.config import AlpenhornConfig
from repro.core.coordinator import Deployment
from repro.crypto.engine import get_backend
from repro.mixnet.noise import NoiseConfig
from repro.net.simulated import SimulatedNetwork
from repro.sim.scenarios import make_scenario

#: A run repeats its schedule until ``--seconds`` are used up, and at least
#: this often (see the module docstring).
MIN_REPETITIONS = 3
#: ``--smoke`` needs the repeat check, not the statistics.
SMOKE_REPETITIONS = 2

#: Laplace scale of the mix noise.  0, as in the paper's own experiments
#: (section 8: "b = 0 to reduce variance"): every server adds exactly mu
#: noise messages per mailbox, so the work does not swing with the seed --
#: at b = 1 the envelope count of a 4-client round has a standard deviation
#: of 17 %.  mu stays 4 everywhere.
NOISE_B = 0.0

PROTOCOLS = ("add-friend", "dialing")
#: Protocol name -> metric-name suffix.
SHORT = {"add-friend": "addfriend", "dialing": "dialing"}


#: The CPUs this process may use, read before the driver thread is pinned
#: (empty where the platform has no affinity calls: nothing is pinned then).
_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _reference_chunk_s() -> float:
    """Wall seconds of a fixed ~2 ms of hashing and interpreter work."""
    started = time.perf_counter()
    digest = b"ladder" * 8
    for _ in range(3000):
        digest = hashlib.sha256(digest).digest()
    total = 0
    for i in range(5000):
        total += i * i
    return time.perf_counter() - started


def release_cpu() -> None:
    """Let the driver thread run on every CPU again."""
    if _CPUS:
        os.sched_setaffinity(0, _CPUS)


def settle_on_faster_cpu() -> float:
    """Pin the driver thread to the CPU that is faster right now; returns
    the reference chunk's wall there, in ms (the record keeps it, so a
    reader can tell a slow host from a slow program).

    The host's CPUs slow down independently and the kernel has no reason to
    move a lone busy thread off a slow one, so without this a run can sit
    out its whole budget on the wrong CPU.  Only the calling thread is
    pinned: threads and worker processes started earlier keep every CPU.
    """
    best_s, best_cpu = float("inf"), None
    for cpu in _CPUS:
        os.sched_setaffinity(0, {cpu})
        _reference_chunk_s()  # the first one after a migration runs cold
        wall = min(_reference_chunk_s(), _reference_chunk_s())
        if wall < best_s:
            best_s, best_cpu = wall, cpu
    if best_cpu is None:
        return _reference_chunk_s() * 1e3
    os.sched_setaffinity(0, {best_cpu})
    return best_s * 1e3


@dataclass(frozen=True)
class Workload:
    """One named input set.  Sizes are frozen here and in BENCHMARK.json;
    changing one is its own no-gain PR (README.md, "Rules")."""

    name: str
    #: ``"scenario"`` drives a ``repro.sim`` scenario's deployment;
    #: ``"library"`` builds a ``Deployment`` directly (real pairing crypto).
    kind: str
    clients: int
    friend_pairs: int
    addfriend_rounds: int
    dialing_rounds: int
    crypto_backend: str
    scenario: str = "baseline"
    #: Extra ``ScenarioSpec`` overrides (scenario workloads only).
    overrides: dict = field(default_factory=dict)

    @property
    def rounds(self) -> tuple[int, int]:
        """(add-friend, dialing) rounds per repetition."""
        return self.addfriend_rounds, self.dialing_rounds


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="sim-100",
            kind="scenario",
            clients=100,
            friend_pairs=12,
            addfriend_rounds=2,
            dialing_rounds=2,
            crypto_backend="accelerated",
        ),
        Workload(
            name="sim-pure-4",
            kind="scenario",
            clients=4,
            friend_pairs=1,
            addfriend_rounds=2,
            dialing_rounds=2,
            crypto_backend="pure",
        ),
        Workload(
            name="sim-shard-pipe-80",
            kind="scenario",
            scenario="sharded_entry",
            clients=80,
            friend_pairs=10,
            # One more than the sequential minimum: under the pipelined
            # driver a confirmation queued while round N is scanned rides
            # round N+2.
            addfriend_rounds=3,
            dialing_rounds=2,
            crypto_backend="accelerated",
            overrides={"zipf_alpha": 1.2, "pipelined": True},
        ),
        Workload(
            name="rt-mp-40",
            kind="scenario",
            # Under asyncio.start_server's default backlog of 100: past it
            # the first round waits out SYN retransmission timers (seconds,
            # in whole steps), which is a defect to fix and not a load to
            # time.
            clients=40,
            friend_pairs=5,
            addfriend_rounds=2,
            dialing_rounds=2,
            crypto_backend="accelerated",
            overrides={"runtime": "mp"},
        ),
        Workload(
            name="lib-realcrypto-2",
            kind="library",
            clients=2,
            friend_pairs=1,
            addfriend_rounds=2,
            dialing_rounds=3,
            crypto_backend="pure",
        ),
    )
}


@dataclass
class Rig:
    """One populated deployment plus what the round loop needs to drive it."""

    deployment: Deployment
    net: object
    pipelined: bool
    #: ``queue_calls(index)`` runs before dialing round ``index`` (once,
    #: with 0, under the pipelined driver); returns the calls it placed.
    queue_calls: Callable[[int], int]
    calls_placed: int = 0


def build_rig(workload: Workload, seed: int, recorder=None) -> Rig:
    """Transport + ``Deployment`` + clients + queued friendships.

    This is exactly what ``setup_s`` times.  With a ``recorder`` the same
    deployment is built on the benchmark's span-recording transport and
    crypto backend (tracing.py); nothing else differs.
    """
    clients, pairs = workload.clients, workload.friend_pairs
    backend = workload.crypto_backend
    if recorder is not None:
        backend = recorder.register_backend(backend)
    if workload.kind == "scenario":
        overrides = dict(
            workload.overrides,
            num_clients=clients,
            friend_pairs=pairs,
            crypto_backend=backend,
            noise_b=NOISE_B,
            seed=str(seed),
        )
        if recorder is None:
            scenario = make_scenario(workload.scenario, **overrides)
        else:
            scenario = recorder.make_scenario(workload.scenario, **overrides)
        deployment, net = scenario.build()
        try:
            scenario.configure(deployment, net)
            scenario.populate(deployment)
        except BaseException:
            deployment.close()  # do not leak worker processes
            raise

        def queue_calls(round_index: int) -> int:
            # Scenario.queue_calls dials once per friendship (the smaller
            # email calls); later dialing rounds carry cover traffic only.
            if round_index != 0:
                return 0
            scenario.queue_calls(deployment)
            return pairs

        return Rig(deployment, net, scenario.spec.pipelined, queue_calls)

    # Library workload: the session API on the real BN254 IBE and BLS
    # attestation (AlpenhornConfig's defaults), on the baseline topology.
    topology = make_scenario("baseline", num_clients=clients).build_topology()
    net = SimulatedNetwork(topology=topology, seed=f"{seed}/lib/net")
    if recorder is not None:
        recorder.adopt_transport(net)
    config = AlpenhornConfig(
        num_mix_servers=2,
        num_pkg_servers=2,
        noise=NoiseConfig(4, NOISE_B, 4, NOISE_B),
        crypto_backend=backend,
    )
    deployment = Deployment(config, seed=f"{seed}/lib", transport=net)
    emails = [f"user{i}@lib.example.org" for i in range(clients)]
    friend_pairs = [(emails[2 * i], emails[2 * i + 1]) for i in range(pairs)]
    for email in emails:
        deployment.create_client(email)
    for a, b in friend_pairs:
        deployment.session(a).add_friend(b)

    def place_calls(round_index: int) -> int:
        # A fresh keywheel is anchored two dialing rounds ahead, and a
        # client dials one queued call per round: a call placed before the
        # first round would still be queued when the last one ends.
        if round_index == 0:
            return 0
        for caller, callee in friend_pairs:
            deployment.client(caller).call(callee, round_index % config.num_intents)
        return len(friend_pairs)

    return Rig(deployment, net, False, place_calls)


@dataclass
class Repetition:
    """One pass over the schedule: what it took and what it delivered."""

    setup_wall_s: float
    #: ``settle_on_faster_cpu()``'s reading just before the rounds.
    host_reference_ms: float
    #: Per protocol, the wall of each round position.
    round_walls_s: dict[str, list[float]]
    #: Everything after set-up that is not a round: queueing calls,
    #: collecting results, ``close()``.
    other_wall_s: float
    rounds: list[dict]
    counts: dict
    #: Table (b): read from the public result objects (see ``_sim_stats``).
    sim: dict
    #: True on a ``SimulatedNetwork``: ``sim`` then repeats exactly per seed.
    simulated_network: bool
    problems: list[str]


@dataclass
class PassResult:
    """Everything one run of a workload measured and counted."""

    workload: str
    seed: int
    smoke: bool
    clients: int
    repetitions: list[Repetition]
    peak_rss_mb: float
    problems: list[str]

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def counts(self) -> dict:
        """Attempts and failures summed over every repetition."""
        return {
            key: sum(r.counts[key] for r in self.repetitions)
            for key in self.repetitions[0].counts
        }

    # The repetitions do identical work (one seed), so the per-round rows
    # and table (b) are read from the first.
    @property
    def rounds(self) -> list[dict]:
        return self.repetitions[0].rounds

    @property
    def sim(self) -> dict:
        return self.repetitions[0].sim

    @property
    def simulated_network(self) -> bool:
        return self.repetitions[0].simulated_network

    def setup_walls_s(self) -> list[float]:
        return [r.setup_wall_s for r in self.repetitions]

    def walls_by_position(self, protocol: str) -> list[tuple[float, ...]]:
        """One tuple per round position: that round's wall in each repetition."""
        return list(zip(*(r.round_walls_s[protocol] for r in self.repetitions)))

    def best_round_walls(self) -> dict[str, list[float]]:
        """Per protocol, each round position's fastest repetition."""
        return {p: [min(walls) for walls in self.walls_by_position(p)] for p in PROTOCOLS}

    def end_to_end(self) -> dict[str, float]:
        best = self.best_round_walls()
        busy = sum(sum(walls) for walls in best.values())
        participants = sum(r["participants"] for r in self.rounds)
        return {
            "setup_s": statistics.median(self.setup_walls_s()),
            "addfriend_round_wall_s": statistics.fmean(best["add-friend"]),
            "dialing_round_wall_s": statistics.fmean(best["dialing"]),
            "run_wall_s": busy + min(r.other_wall_s for r in self.repetitions),
            "client_rounds_per_s": participants / busy,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def failed_share(self) -> float:
        return self.counts["failed"] / self.counts["attempted"]

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "smoke": self.smoke,
            "clients": self.clients,
            "correct": self.correct,
            "problems": self.problems,
            "end_to_end": {**self.end_to_end(), "failed_share": self.failed_share()},
            "setup_walls_s": self.setup_walls_s(),
            "other_walls_s": [r.other_wall_s for r in self.repetitions],
            "host_reference_ms": [r.host_reference_ms for r in self.repetitions],
            # Round timings have few samples: every wall is kept, with the
            # best and the median per position (n = repetitions).
            "round_walls_s": {
                SHORT[protocol]: {
                    "n_repetitions": len(self.repetitions),
                    "best": best,
                    "median": [statistics.median(w) for w in self.walls_by_position(protocol)],
                    "walls": [r.round_walls_s[protocol] for r in self.repetitions],
                }
                for protocol, best in self.best_round_walls().items()
            },
            "counts": self.counts,
            "simulated_network": self.simulated_network,
            "sim": self.sim,
            "rounds": self.rounds,
        }


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its (reaped) children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _summary_row(summary) -> dict:
    mix = summary.mix_result
    return {
        "protocol": summary.protocol,
        "round": summary.round_number,
        "participants": summary.participants,
        "submissions": summary.submissions,
        "failures": summary.failures,
        "aborted": summary.aborted,
        "mailboxes": summary.mailbox_count,
        "delivered_real": mix.delivered_real if mix is not None else 0,
        "noise_added": mix.noise_added if mix is not None else 0,
        "latency_s": summary.latency_s,
        "submit_stage_s": summary.submit_stage_s,
        "mix_stage_s": summary.mix_stage_s,
        "scan_stage_s": summary.scan_stage_s,
        "bytes_sent": summary.bytes_sent,
    }


def _drive(rig: Rig, protocol: str, count: int) -> tuple[list[float], list]:
    """Drive ``count`` rounds; returns (per-round walls, summaries)."""
    deployment = rig.deployment
    walls: list[float] = []
    summaries: list = []
    if rig.pipelined:
        # Overlapped rounds cannot be timed one by one; a round's wall is
        # the gap between consecutive completions (they sum to the span).
        if protocol == "dialing":
            rig.calls_placed += rig.queue_calls(0)
        last = time.perf_counter()

        def on_summary(summary) -> None:
            nonlocal last
            now = time.perf_counter()
            walls.append(now - last)
            last = now
            summaries.append(summary)

        deployment.run_rounds(protocol, count, pipelined=True, on_summary=on_summary)
    else:
        run_round = (
            deployment.run_addfriend_round
            if protocol == "add-friend"
            else deployment.run_dialing_round
        )
        for index in range(count):
            if protocol == "dialing":
                rig.calls_placed += rig.queue_calls(index)
            started = time.perf_counter()
            summaries.append(run_round())
            walls.append(time.perf_counter() - started)
    return walls, summaries


def _sim_stats(net, rows: list[dict]) -> dict:
    """Table (b): statistics read from the public result objects.

    On a simulated network these are simulated-clock seconds and byte
    counts -- exactly repeatable per seed, blind to host speed.  On
    ``rt-mp`` the same fields are wall seconds on the transport clock.
    """
    live = [r for r in rows if not r["aborted"]]
    stats: dict[str, float] = {}
    for protocol in PROTOCOLS:
        short = SHORT[protocol]
        mine = [r for r in live if r["protocol"] == protocol]
        client_rounds = sum(r["participants"] for r in mine)
        stats[f"sim.round_latency_s.{short}"] = statistics.fmean(r["latency_s"] for r in mine)
        stats[f"sim.wire_bytes_per_client_round.{short}"] = (
            sum(r["bytes_sent"] for r in mine) / client_rounds
        )
        for stage in ("submit", "mix", "scan"):
            stats[f"stage.{stage}_s.{short}"] = statistics.fmean(
                r[f"{stage}_stage_s"] for r in mine
            )
    noise = sum(r["noise_added"] for r in live)
    stats["mixnet.noise_share"] = noise / (noise + sum(r["delivered_real"] for r in live))
    stats["sim.msgs_per_client_round"] = net.stats.messages_sent / sum(
        r["participants"] for r in live
    )
    scheduler = getattr(net, "scheduler", None)
    stats["sim.scheduler_events"] = scheduler.events_processed if scheduler is not None else 0
    stats["sim.frames_in_flight_peak"] = getattr(net, "frames_in_flight_peak", 0)
    stats["sim.total_bytes"] = net.stats.bytes_sent
    stats["sim.total_msgs"] = net.stats.messages_sent
    return stats


def _repeat(workload: Workload, seed: int, recorder) -> Repetition:
    """Set up, drive every round, collect, tear down, check -- once."""
    pairs, rounds = workload.friend_pairs, workload.rounds
    gc.collect()
    # Set-up runs unpinned, so that the workers rt-mp spawns in it do not
    # inherit a one-CPU mask.
    release_cpu()
    started = time.perf_counter()
    rig = build_rig(workload, seed, recorder)
    setup_wall = time.perf_counter() - started
    host_reference_ms = settle_on_faster_cpu()

    run_started = time.perf_counter()
    round_walls: dict[str, list[float]] = {}
    summaries: list = []
    try:
        for protocol, count in zip(PROTOCOLS, rounds):
            if recorder is not None:
                recorder.instrument_round_engine(rig.deployment.round_engine(protocol), protocol)
            round_walls[protocol], done = _drive(rig, protocol, count)
            summaries.extend(done)
        clients = rig.deployment.clients.values()
        confirmed = sum(len(c.friends()) for c in clients) // 2
        delivered = sum(len(c.received_calls()) for c in clients)
    finally:
        rig.deployment.close()
    run_wall = time.perf_counter() - run_started

    rows = [_summary_row(s) for s in summaries]
    problems: list[str] = []
    orphans = [p.pid for p in multiprocessing.active_children()]
    if orphans:
        problems.append(f"worker processes alive after close(): {orphans}")
    failed_submissions = sum(r["failures"] for r in rows if not r["aborted"])
    aborted = [r for r in rows if r["aborted"]]
    if confirmed != pairs:
        problems.append(f"friendships confirmed {confirmed} != queued pairs {pairs}")
    if delivered != rig.calls_placed:
        problems.append(f"calls delivered {delivered} != calls placed {rig.calls_placed}")
    if failed_submissions:
        problems.append(f"{failed_submissions} failed submissions")
    if aborted:
        problems.append(f"{len(aborted)} aborted rounds")
    if len(rows) != sum(rounds):
        problems.append(f"{len(rows)} rounds completed, expected {sum(rounds)}")
    counts = {
        "attempted": sum(r["participants"] for r in rows) + pairs + rig.calls_placed,
        "failed": (
            failed_submissions
            + sum(r["participants"] for r in aborted)
            + abs(pairs - confirmed)
            + abs(rig.calls_placed - delivered)
        ),
        "friend_pairs": pairs,
        "friendships_confirmed": confirmed,
        "calls_placed": rig.calls_placed,
        "calls_delivered": delivered,
        "failed_submissions": failed_submissions,
        "aborted_rounds": len(aborted),
    }
    return Repetition(
        setup_wall_s=setup_wall,
        host_reference_ms=host_reference_ms,
        round_walls_s=round_walls,
        other_wall_s=run_wall - sum(sum(walls) for walls in round_walls.values()),
        rounds=rows,
        counts=counts,
        sim=_sim_stats(rig.net, rows),
        simulated_network=isinstance(rig.net, SimulatedNetwork),
        problems=problems,
    )


def run_pass(workload: Workload, seed: int, seconds: float, smoke: bool, recorder=None, repetitions: int | None = None) -> PassResult:
    """One run: the schedule over and over until ``seconds`` are used up
    (a fixed ``repetitions`` when given, twice for ``--smoke``, once when
    traced)."""
    get_backend(workload.crypto_backend)  # resolve (and fail) before any timer
    if recorder is not None:
        repetitions = 1
    elif smoke and repetitions is None:
        repetitions = SMOKE_REPETITIONS
    done: list[Repetition] = []
    started = time.perf_counter()
    while True:
        done.append(_repeat(workload, seed, recorder))
        elapsed = time.perf_counter() - started
        if repetitions is not None:
            if len(done) >= repetitions:
                break
        # Stop once another repetition of average length no longer fits.
        elif len(done) >= MIN_REPETITIONS and elapsed + elapsed / len(done) > seconds:
            break
    problems = [f"repetition {i}: {p}" for i, r in enumerate(done) for p in r.problems]
    if done[0].simulated_network:
        # Consecutive runs at one seed: on a simulated network every
        # simulated-clock and byte statistic must repeat exactly.
        for index, repetition in enumerate(done[1:], start=1):
            for key, value in done[0].sim.items():
                if repetition.sim[key] != value:
                    problems.append(
                        f"{key} differs between repetitions 0 and {index} at seed {seed}: "
                        f"{value!r} vs {repetition.sim[key]!r}"
                    )
    return PassResult(
        workload=workload.name,
        seed=seed,
        smoke=smoke,
        clients=workload.clients,
        repetitions=done,
        peak_rss_mb=peak_rss_mb(),
        problems=problems,
    )


def sim_twin_problems(workload: Workload, passed: PassResult, seed: int, seconds: float, smoke: bool) -> list[str]:
    """A real-runtime pass must deliver exactly what a ``runtime="sim"``
    run of the same spec delivers, round by round."""
    overrides = {k: v for k, v in workload.overrides.items() if k != "runtime"}
    twin = run_pass(replace(workload, overrides=overrides), seed, seconds, smoke, repetitions=1)
    problems = [f"sim twin: {p}" for p in twin.problems]
    for key in ("friendships_confirmed", "calls_delivered"):
        if passed.counts[key] != twin.counts[key]:
            problems.append(f"{key} {passed.counts[key]} != sim twin's {twin.counts[key]}")
    delivered, expected = (
        [(r["protocol"], r["round"], r["submissions"], r["delivered_real"]) for r in side.rounds]
        for side in (passed, twin)
    )
    if delivered != expected:
        problems.append(f"per-round deliveries {delivered} != sim twin's {expected}")
    return problems
