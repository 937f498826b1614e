"""The experiments the harness ships with, as declarations.

Each is the data :func:`repro.sim.experiment.run_experiment` runs: which
scenario, which axes (defaults here, any of them replaceable from the CLI by
the axis's own name), which fixed workload and per-point seed, which point is
the reference, which values to report and which invariants fail the run.

* ``pipelining`` -- sequential vs pipelined rounds over clients x link
  latency, and friend-request liveness per retry horizon (``client_churn``).
* ``shards``     -- the sharded entry/CDN tier: submit-stage scaling over
  shards x Zipf skew, ingress batch sizes at the largest shard count, and
  (when ``cdn_egress_mbps`` values are given) the download-side mirror.
* ``crypto``     -- per-op cost of both crypto backends (``pure``,
  ``accelerated``), then a backend x clients scenario grid.
* ``fidelity``   -- ``fluid``'s bounded divergence from the ``slotted``
  simulator core, and what each costs the host.
* ``runtime``    -- ``sim`` vs real sockets (``asyncio``) vs worker processes
  (``mp``, where each mix server peels on its own core): the same seed must
  reproduce every outcome leaf of the record (:func:`repro.obs.record.outcome`).
* ``privacy``    -- the paired passive-observer audit against the analytic
  distinguishing bound, plus one baseline run's privacy ledger.
* ``paper``      -- section 8 itself: the figures and tables of the paper's
  evaluation from the analytic models, the paper's own number beside each
  (declared in :mod:`repro.sim.paper`).

Adding an experiment is adding an entry to :data:`EXPERIMENTS`; the CLI
derives its flags from the declarations.
"""

from __future__ import annotations

from repro.crypto.engine import backend_available, registered_backends
from repro.errors import ConfigurationError
from repro.net.links import LinkSpec
from repro.obs.record import outcome
from repro.sim.crypto_sweep import measure_per_op
from repro.sim.experiment import Axis, Column, Experiment, Section
from repro.sim.paper import SECTION8
from repro.sim.privacy_sweep import CONFIDENCE_ALPHA, run_privacy_audit


def _client_link(latency_ms: float) -> dict:
    return {"client_link": LinkSpec.of(latency_ms=latency_ms, bandwidth_mbps=50, jitter_ms=10)}


def _admit_backend(name: str) -> bool:
    """A registered backend missing its optional dependency is skipped (and
    recorded); a typo must fail loudly, not produce an empty-but-green record."""
    if name not in registered_backends():
        raise ConfigurationError(
            f"unknown crypto backend {name!r}; registered: {registered_backends()}"
        )
    return backend_available(name)


ALL_BACKENDS = Axis("crypto_backend", ("pure", "accelerated"), admit=_admit_backend)


def versus(measure, lower_is_better: bool = True):
    """A column value: this point's ``measure`` against its reference's, as a
    ratio above 1 when this point is better."""

    def value(result, reference):
        if reference is None:
            return None
        own, base = measure(result), measure(reference)
        numerator, denominator = (base, own) if lower_is_better else (own, base)
        return numerator / denominator if denominator else None

    return value


# A column's value is ``value(result, reference)``; the measures below ignore
# the reference, so ``versus`` can apply them to either side.
def stage(name: str, protocol: str | None = None):
    return lambda result, _=None: result.stage_mean(name, protocol)


def rate(protocol: str):
    return lambda result, _=None: result.throughput.get(protocol, {}).get("rounds_per_sec", 0.0)


def initial(key: str):
    """Liveness of the pre-run friendship pairs (always-online senders)."""
    return lambda result, _=None: result.friend_requests["initial"][key]


def item(key: str):
    """A column over a plain-dict result (per-op timings, audit points)."""
    return lambda result, _=None: result[key]


def post_submit(result, _=None) -> float:
    """Round latency minus the submit stage -- mix *and* scan, the part a
    capped CDN egress stretches (``scan_stage_s`` alone is the runtime
    table's "scan s")."""
    return result.mean_scan_stage("add-friend")


def wall_by(points: list[dict], axis: str) -> dict:
    """Summary value: total wall seconds per value of ``axis``."""
    totals: dict = {}
    for point in points:
        totals[point[axis]] = round(totals.get(point[axis], 0.0) + point["wall_seconds"], 3)
    return totals


def mib(size: int) -> str:
    return f"{size / 2**20:.2f}"


def yes_no(flag: bool) -> str:
    return "yes" if flag else "NO"


def holds(key: str):
    """A check (and summary value): no point's ``key`` is False (None: the
    point had no reference to be compared against)."""
    return lambda points, axes=None: all(p[key] is not False for p in points)


SUBMIT = stage("submit_stage_s", "add-friend")
WALL = Column("wall_seconds", "wall s", lambda r, _: r.wall_seconds, "{:.2f}")
MEAN_ROUND = Column("mean_round_s", "mean round s", stage("latency_s"), "{:.3f}")
AF_SUBMIT = Column("submit_stage_s", "af submit s", SUBMIT, "{:.3f}")
TRAFFIC = Column("total_bytes", "MiB", lambda r, _: r.total_bytes_sent, mib)
FRIENDS = Column("friendships", "friends", lambda r, _: r.friendships_confirmed)
CALLS = Column("calls", "calls", lambda r, _: r.calls_delivered)

# --------------------------------------------------------------------------- #
# pipelining
# --------------------------------------------------------------------------- #
PIPELINING = Experiment(
    name="pipelining",
    description="sequential vs pipelined rounds; retry liveness",
    scenario="pipelined_rounds",
    seed="sweep",
    sections=(
        Section(
            key="grid",
            title="sequential vs pipelined rounds (speedups against pipelined=False)",
            axes=(
                Axis("num_clients", (40, 80)),
                Axis("latency_ms", (40.0, 200.0), apply=_client_link),
                Axis("pipelined", (False, True)),
            ),
            reference={"pipelined": False},
            columns=(
                Column("dialing_rounds_per_s", "dial r/s", rate("dialing"), "{:.3f}"),
                Column("dialing_speedup", "dial speedup", versus(rate("dialing"), False), "{:.2f}x"),
                Column("overall_rounds_per_s", "all r/s", rate("overall"), "{:.3f}"),
                Column("overall_speedup", "all speedup", versus(rate("overall"), False), "{:.2f}x"),
            ),
        ),
        Section(
            key="retry",
            title="client_churn liveness: always-online senders, per retry horizon",
            scenario="client_churn",
            axes=(Axis("retry_horizon", (None, 2)),),
            workload=dict(num_clients=40, friend_pairs=12, addfriend_rounds=8, dialing_rounds=0),
            seed="{seed}/retry",
            columns=(
                Column("requests", "requests", initial("total")),
                Column("confirmed", "confirmed", initial("confirmed")),
                Column("confirmed_fraction", "confirmed frac", initial("confirmed_fraction"), "{:.2f}"),
                Column("retries", "retries", initial("retries")),
                Column("addfriend_rounds_run", "af rounds", lambda r, _: len(r.rounds_for("add-friend"))),
                TRAFFIC,
            ),
        ),
    ),
)

# --------------------------------------------------------------------------- #
# shards
# --------------------------------------------------------------------------- #
SHARDS_AXIS = Axis("entry_shards", (1, 2, 4))


def _submit_throughput(result, _) -> float:
    """Envelopes per second through the add-friend submit stage."""
    rounds = [
        r for r in result.rounds_for("add-friend") if not r.aborted and r.submit_stage_s > 0
    ]
    if not rounds:
        return 0.0
    return sum(r.submissions for r in rounds) / sum(r.submit_stage_s for r in rounds)


def _speedup_at_max_shards(points) -> dict:
    uniform = [p for p in points if p["zipf_alpha"] == 0] or points
    best = max(uniform, key=lambda p: p["entry_shards"])
    return {"submit_stage_speedup_at_max_shards": best["submit_speedup"]}


def _cdn_seed(names: dict) -> str:
    # Only capped points grow the egress suffix, so every cell that existed
    # before the CDN axis keeps its historical seed.
    seed = "{seed}/s{entry_shards}/a0".format(**names)
    egress = names["cdn_egress_mbps"]
    return f"{seed}/e{egress:g}" if egress > 0 else seed


# One caveat on the shard axis: the 1-shard reference is the classic tier (no
# ingress proxy, one frame per envelope), so multi-shard points fold ingress
# batching's frame amortization into their speedup.  The ``batching`` section
# (largest shard count, uniform placement) isolates exactly that share.
SHARDS = Experiment(
    name="shards",
    description="sharded entry/CDN tier: shards x Zipf skew, ingress batching, CDN egress",
    scenario="sharded_entry",
    seed="shard-sweep",
    defaults=dict(num_clients=80, shard_access_mbps=0.5, addfriend_rounds=2, dialing_rounds=1),
    sections=(
        Section(
            key="grid",
            title="submit-stage scaling and load imbalance (speedups against 1 shard, uniform)",
            axes=(SHARDS_AXIS, Axis("zipf_alpha", (0.0, 1.2))),
            seed="{seed}/s{entry_shards}/a{zipf_alpha:g}",
            # one shard has no placement to skew
            skip=lambda point, axes: point["entry_shards"] == 1 and point["zipf_alpha"] > 0,
            reference={"entry_shards": 1, "zipf_alpha": 0.0},
            columns=(
                AF_SUBMIT,
                Column("submit_speedup", "speedup", versus(SUBMIT), "{:.2f}x"),
                Column("submit_envelopes_per_s", "submit env/s", _submit_throughput, "{:.1f}"),
                Column("imbalance", "imbalance", lambda r, _: r.shard_loads.get("imbalance", 1.0), "{:.2f}"),
                TRAFFIC,
            ),
            summary=_speedup_at_max_shards,
        ),
        Section(
            key="batching",
            title="ingress envelope batching at the largest shard count (SubmitBatch frames on the wire)",
            axes=(SHARDS_AXIS, Axis("ingress_batch_size", (1, 16))),
            seed="{seed}/s{entry_shards}/a0",
            skip=lambda point, axes: point["entry_shards"] != max(axes["entry_shards"]),
            columns=(
                Column(
                    "submit_batch_frames", "submit frames",
                    lambda r, _: r.calls_by_method.get("submit_batch", 0),
                ),
                AF_SUBMIT,
                TRAFFIC,
            ),
        ),
        Section(
            key="cdn_egress",
            title="CDN egress capacity: post-submit (mix+scan) scaling with CDN shard count",
            axes=(Axis("cdn_egress_mbps", ()), SHARDS_AXIS),
            seed=_cdn_seed,
            reference={"entry_shards": 1},
            columns=(
                Column("post_submit_stage_s", "af mix+scan s", post_submit, "{:.3f}"),
                Column("post_submit_speedup", "speedup", versus(post_submit), "{:.2f}x"),
                AF_SUBMIT,
                TRAFFIC,
            ),
        ),
    ),
)

# --------------------------------------------------------------------------- #
# crypto
# --------------------------------------------------------------------------- #
PER_OP = (
    ("seal_us", "seal us"), ("open_us", "open us"),
    ("shared_secret_us", "x25519 us"), ("public_key_us", "pubkey us"),
    ("seal_many_us_per_op", "batch seal us"), ("open_many_us_per_op", "batch open us"),
    ("shared_secret_many_us_per_op", "batch x25519 us"),
)


def _accelerated_vs_pure(points) -> dict:
    by_backend = {p["crypto_backend"]: p for p in points}
    pure, fast = by_backend.get("pure"), by_backend.get("accelerated")

    def ratio(op: str) -> float:
        return round(pure[op] / fast[op], 2) if pure and fast and fast[op] else 0.0

    return {
        "aead_seal_speedup_accelerated_vs_pure": ratio("seal_us"),
        "aead_open_speedup_accelerated_vs_pure": ratio("open_us"),
        "x25519_speedup_accelerated_vs_pure": ratio("shared_secret_us"),
    }


CRYPTO = Experiment(
    name="crypto",
    description="crypto engine: per-op cost per backend, then backend x clients",
    scenario="baseline",
    seed="crypto-sweep",
    # one round of each protocol keeps a 10k-client point a few minutes' affair
    defaults=dict(addfriend_rounds=1, dialing_rounds=1),
    sections=(
        Section(
            key="per_op",
            title="crypto engine per-op cost (µs; batch = amortized per op)",
            axes=(ALL_BACKENDS,),
            run=lambda scenario, crypto_backend, **_: measure_per_op(crypto_backend),
            columns=tuple(Column(key, header, item(key), "{:.1f}") for key, header in PER_OP),
            summary=_accelerated_vs_pure,
        ),
        Section(
            key="grid",
            title="crypto engine scenario grid",
            axes=(ALL_BACKENDS, Axis("num_clients", (100, 400))),
            seed="{seed}/{crypto_backend}/{num_clients}",
            columns=(
                WALL,
                MEAN_ROUND,
                Column("rounds_per_s", "rounds/s", rate("overall"), "{:.3f}"),
                FRIENDS,
            ),
            summary=lambda points: {"max_completed_clients": max(p["num_clients"] for p in points)},
        ),
    ),
)

# --------------------------------------------------------------------------- #
# fidelity
# --------------------------------------------------------------------------- #
def _latency_divergence(result, reference):
    """Max relative per-round latency deviation from the reference core."""
    if reference is None:
        return None
    return max(
        (
            abs(mine.latency_s - base.latency_s) / base.latency_s
            for mine, base in zip(result.rounds, reference.rounds)
            if base.latency_s > 0
        ),
        default=0.0,
    )


def _delivery_divergence(result, reference):
    """Sum of absolute per-round delivered_real deviations from the reference."""
    if reference is None:
        return None
    return sum(
        abs(mine.delivered_real - base.delivered_real)
        for mine, base in zip(result.rounds, reference.rounds)
    )


# Every same-size point shares its seed, so fluid's deviation from the slotted
# reference is a pure measurement of the flow approximation.
FIDELITY = Experiment(
    name="fidelity",
    description="simulator core: fluid's divergence from slotted, and the host cost of each",
    scenario="baseline",
    seed="fidelity-sweep",
    sections=(
        Section(
            key="grid",
            title="simulator-core fidelity (divergence against the same-size slotted point)",
            axes=(Axis("num_clients", (100, 300)), Axis("fidelity", ("slotted", "fluid"))),
            seed="{seed}/c{num_clients}",
            reference={"fidelity": "slotted"},
            columns=(
                WALL,
                MEAN_ROUND,
                Column("delivered", "delivered", lambda r, _: sum(x.delivered_real for x in r.rounds)),
                Column("latency_divergence", "latency div", _latency_divergence, "{:.3f}"),
                Column("delivery_divergence", "delivery div", _delivery_divergence),
            ),
            # a slotted point is its own reference: its divergences are None
            summary=lambda points: {
                "max_fluid_latency_divergence": max(p["latency_divergence"] or 0.0 for p in points),
                "wall_seconds_by_fidelity": wall_by(points, "fidelity"),
            },
            checks=(
                (
                    "fluid delivers exactly what slotted delivers (delivery_divergence == 0)",
                    lambda points, axes: not any(p["delivery_divergence"] for p in points),
                ),
            ),
        ),
    ),
)

# --------------------------------------------------------------------------- #
# runtime
# --------------------------------------------------------------------------- #
def _parity(result, reference):
    if reference is None:
        return None
    return outcome(result.to_dict()) == outcome(reference.to_dict())


# Every same-size point shares its seed, so the protocol outcome -- every
# record leaf outside ``repro.obs.record.MEASUREMENT`` -- is the same on every
# runtime: real sockets and worker processes change *when* things happen,
# never *what* is delivered.  ``sim`` points report simulated seconds per
# stage, ``asyncio``/``mp`` points real wall-clock seconds, so the stage
# columns are not comparable across the runtime axis -- wall s and parity are.
RUNTIME = Experiment(
    name="runtime",
    description="sim vs asyncio vs mp at one seed: same deliveries",
    scenario="baseline",
    seed="runtime-sweep",
    defaults=dict(addfriend_rounds=2, dialing_rounds=2),
    sections=(
        Section(
            key="grid",
            title="deployment runtimes (parity against the same-size sim point)",
            axes=(Axis("num_clients", (24, 60)), Axis("runtime", ("sim", "asyncio", "mp"))),
            seed="{seed}/c{num_clients}",
            reference={"runtime": "sim"},
            columns=(
                WALL,
                MEAN_ROUND,
                Column("submit_stage_s", "submit s", stage("submit_stage_s"), "{:.3f}"),
                Column("mix_stage_s", "mix s", stage("mix_stage_s"), "{:.3f}"),
                Column("scan_stage_s", "scan s", stage("scan_stage_s"), "{:.3f}"),
                FRIENDS,
                CALLS,
                Column("parity", "parity", _parity, yes_no),
            ),
            summary=lambda points: {
                "parity_ok": holds("parity")(points),
                "wall_seconds_by_runtime": wall_by(points, "runtime"),
            },
            checks=(
                (
                    "every real-runtime point reproduces every outcome leaf of its sim point's record",
                    holds("parity"),
                ),
                (
                    "every requested runtime produced a point",
                    lambda points, axes: {p["runtime"] for p in points} == set(axes["runtime"]),
                ),
            ),
        ),
    ),
)

# --------------------------------------------------------------------------- #
# privacy
# --------------------------------------------------------------------------- #
def _audit(scenario, noise_b, seed=None, **overrides) -> dict:
    # The audit runs the passive_observer pair on its own per-trial seeds.
    return run_privacy_audit(noise_b, **overrides)


PRIVACY = Experiment(
    name="privacy",
    description="passive-observer advantage vs the analytic bound; one run's privacy ledger",
    scenario="baseline",
    defaults=dict(num_clients=40),
    sections=(
        Section(
            key="audit",
            title="empirical advantage vs analytic bound (paired trials; runs 2 scenarios per trial)",
            # 0.05 is deliberately under-noised: eps = 2/0.05 = 40 per
            # observation, so the bound saturates at ~1 and the record shows
            # how little that configuration promises.
            axes=(
                Axis("noise_b", (0.05, 0.5, 1.0, 4.0)),
                Axis("privacy_trials", (24,), apply=lambda n: {"trials": n}, parse=int),
            ),
            # the audit scenarios fix their own shape (each arm's
            # friend_pairs is pinned by run_observer_trial)
            workload=dict(num_clients=16, addfriend_rounds=1, dialing_rounds=0),
            run=_audit,
            columns=(
                Column("epsilon", "eps/obs", item("epsilon"), "{:.2f}"),
                Column("advantage_bound", "bound", item("advantage_bound"), "{:.4f}"),
                Column("advantage", "empirical (cert)", item("advantage"), "{:.4f}"),
                Column("advantage_raw", "raw", item("advantage_raw"), "{:.4f}"),
                Column("within_bound", "within", item("within_bound"), yes_no),
            ),
            summary=lambda points: {
                "experiment": "paired passive-observer distinguishing trials",
                "statistic": "total published (noisy) mailbox messages, one add-friend round",
                "confidence": 1 - CONFIDENCE_ALPHA,
                "all_within_bound": holds("within_bound")(points),
            },
            checks=(
                (
                    "certified empirical advantage <= analytic bound at every noise scale "
                    "(else the DP accounting or the noise pipeline is broken)",
                    holds("within_bound"),
                ),
            ),
        ),
        Section(
            key="ledger",
            title="privacy ledger of one baseline run",
            columns=(FRIENDS, CALLS),
            # BENCH_privacy.json's ``ledger`` *is* the run's ledger report
            # (``python -m repro.obs validate`` reads it there).
            summary=lambda points: points[0]["result"]["privacy"],
        ),
    ),
)

EXPERIMENTS: dict[str, Experiment] = {
    e.name: e for e in (PIPELINING, SHARDS, CRYPTO, FIDELITY, RUNTIME, PRIVACY, SECTION8)
}
