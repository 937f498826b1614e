"""Scenario sweeps: a clients x link-latency grid with trend tracking.

A sweep runs one scenario over every point of a ``clients x latency`` grid,
once with the sequential round driver and once with the pipelined one, and
reports the round throughput of both plus their ratio.  The machine-readable
result lands in ``BENCH_sweep.json`` (via :mod:`repro.bench.reporting`), so
the throughput trajectory -- and the pipeline's speedup at high-latency
links -- is tracked across PRs the same way the paper-figure benchmarks are.

Two further axes ride the same report:

* ``retry_horizons`` drives ``client_churn`` once per horizon (0 = retry
  disabled) and records friend-request liveness -- what fraction of the
  always-online senders' requests reached ``confirmed`` -- plus the retry
  overhead in extra submissions and bytes.
* ``fanout_pkgs`` runs the high-latency scenario at that PKG count with the
  client's per-PKG RPCs issued sequentially vs fanned out in one concurrent
  phase, and records the add-friend submit-stage speedup.

A second, independent sweep covers the sharded entry tier
(:func:`run_shard_sweep`, CLI ``--sweep-shards``): the ``sharded_entry``
scenario over a shard-count x Zipf-skew grid plus an ingress-batch-size
comparison, written to ``BENCH_shard.json`` -- submit-stage throughput
scaling, per-shard load imbalance, and SubmitBatch frame counts.  Its
``cdn_egress_mbps`` axis (CLI ``--sweep-cdn-egress``) caps every CDN
shard's shared egress link and records scan-stage latency per shard count
-- the download-side mirror of the entry-ingress measurement.

The crypto-engine sweep lives in :mod:`repro.sim.crypto_sweep`
(CLI ``--sweep-crypto``, ``BENCH_crypto.json``).

A third sweep covers the simulator core itself (:func:`run_fidelity_sweep`,
CLI ``--sweep-fidelity``, ``BENCH_net.json``): one scenario over a
clients x fidelity grid (``slotted`` / ``fluid``), measuring ``fluid``'s
bounded divergence from the ``slotted`` reference plus what each fidelity
level costs the host.

``python -m repro.sim --sweep`` is the CLI; :func:`run_sweep` the API.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.reporting import format_table, table_report, write_json_report
from repro.net.links import LinkSpec
from repro.sim.scenario import ScenarioResult


@dataclass
class SweepPoint:
    """One grid cell: the same workload driven sequentially and pipelined."""

    num_clients: int
    latency_ms: float
    sequential: ScenarioResult
    pipelined: ScenarioResult

    def speedup(self, protocol: str = "dialing") -> float:
        base = self.sequential.throughput.get(protocol, {}).get("rounds_per_sec", 0.0)
        pipe = self.pipelined.throughput.get(protocol, {}).get("rounds_per_sec", 0.0)
        return pipe / base if base > 0 else 0.0

    def row(self) -> list:
        seq_dial = self.sequential.throughput["dialing"]["rounds_per_sec"]
        pipe_dial = self.pipelined.throughput["dialing"]["rounds_per_sec"]
        seq_all = self.sequential.throughput["overall"]["rounds_per_sec"]
        pipe_all = self.pipelined.throughput["overall"]["rounds_per_sec"]
        return [
            self.num_clients,
            int(self.latency_ms),
            f"{seq_dial:.3f}",
            f"{pipe_dial:.3f}",
            f"{self.speedup('dialing'):.2f}x",
            f"{seq_all:.3f}",
            f"{pipe_all:.3f}",
            f"{self.speedup('overall'):.2f}x",
        ]


@dataclass
class RetryPoint:
    """One retry-axis cell: client_churn at one retry horizon (0 = off)."""

    retry_horizon: int
    result: ScenarioResult

    def row(self) -> list:
        requests = self.result.friend_requests
        initial = requests.get("initial", requests)
        addfriend = self.result.rounds_for("add-friend")
        return [
            self.retry_horizon or "off",
            initial["total"],
            initial["confirmed"],
            f"{initial['confirmed_fraction']:.2f}",
            initial["retries"],
            len(addfriend),
            f"{self.result.total_bytes_sent / 2**20:.2f}",
        ]

    def to_dict(self) -> dict:
        return {
            "retry_horizon": self.retry_horizon,
            "result": self.result.to_dict(),
        }


@dataclass
class FanoutComparison:
    """The same workload with sequential vs parallel per-PKG client RPCs."""

    pkg_servers: int
    sequential: ScenarioResult
    parallel: ScenarioResult

    def submit_speedup(self) -> float:
        par = self.parallel.mean_submit_stage("add-friend")
        seq = self.sequential.mean_submit_stage("add-friend")
        return seq / par if par > 0 else 0.0

    def row(self) -> list:
        return [
            self.pkg_servers,
            f"{self.sequential.mean_submit_stage('add-friend'):.3f}",
            f"{self.parallel.mean_submit_stage('add-friend'):.3f}",
            f"{self.submit_speedup():.2f}x",
        ]

    def to_dict(self) -> dict:
        return {
            "pkg_servers": self.pkg_servers,
            "sequential_submit_stage_s": round(
                self.sequential.mean_submit_stage("add-friend"), 6
            ),
            "parallel_submit_stage_s": round(self.parallel.mean_submit_stage("add-friend"), 6),
            "submit_stage_speedup": round(self.submit_speedup(), 4),
            "sequential": self.sequential.to_dict(),
            "parallel": self.parallel.to_dict(),
        }


@dataclass
class SweepResult:
    """Everything one sweep produced."""

    scenario: str
    points: list[SweepPoint] = field(default_factory=list)
    #: client_churn liveness per retry horizon (empty unless requested).
    retry_points: list[RetryPoint] = field(default_factory=list)
    #: sequential-vs-parallel PKG fan-out comparison (None unless requested).
    fanout: FanoutComparison | None = None

    HEADERS = [
        "clients", "link ms",
        "seq dial r/s", "pipe dial r/s", "dial speedup",
        "seq all r/s", "pipe all r/s", "all speedup",
    ]
    RETRY_HEADERS = [
        "retry K", "requests", "confirmed", "confirmed frac",
        "retries", "af rounds", "MiB",
    ]
    FANOUT_HEADERS = ["pkgs", "seq submit s", "par submit s", "submit speedup"]

    def table(self) -> tuple[list[str], list[list]]:
        return list(self.HEADERS), [point.row() for point in self.points]

    def retry_table(self) -> tuple[list[str], list[list]]:
        return list(self.RETRY_HEADERS), [point.row() for point in self.retry_points]

    def fanout_table(self) -> tuple[list[str], list[list]]:
        rows = [self.fanout.row()] if self.fanout is not None else []
        return list(self.FANOUT_HEADERS), rows

    def to_report(self) -> dict:
        headers, rows = self.table()
        report = table_report(
            headers, rows, title=f"sweep of {self.scenario}: sequential vs pipelined rounds"
        )
        report["scenario"] = self.scenario
        report["points"] = [
            {
                "clients": point.num_clients,
                "latency_ms": point.latency_ms,
                "sequential": point.sequential.to_dict(),
                "pipelined": point.pipelined.to_dict(),
                "dialing_speedup": round(point.speedup("dialing"), 4),
                "overall_speedup": round(point.speedup("overall"), 4),
            }
            for point in self.points
        ]
        report["retry_points"] = [point.to_dict() for point in self.retry_points]
        report["fanout"] = self.fanout.to_dict() if self.fanout is not None else None
        return report


def sweep_link(latency_ms: float) -> LinkSpec:
    """The client link used at one latency grid point."""
    return LinkSpec.of(latency_ms=latency_ms, bandwidth_mbps=50, jitter_ms=10)


# --------------------------------------------------------------------------- #
# The shard sweep (repro.cluster): shard count x Zipf skew, plus batching
# --------------------------------------------------------------------------- #
@dataclass
class ShardPoint:
    """One grid cell: the sharded_entry scenario at (shards, zipf alpha)."""

    entry_shards: int
    zipf_alpha: float
    result: ScenarioResult

    def submit_stage(self) -> float:
        return self.result.mean_submit_stage("add-friend")

    def submit_throughput(self) -> float:
        """Envelopes per second through the add-friend submit stage."""
        rounds = [
            r
            for r in self.result.rounds_for("add-friend")
            if not r.aborted and r.submit_stage_s > 0
        ]
        if not rounds:
            return 0.0
        return sum(r.submissions for r in rounds) / sum(r.submit_stage_s for r in rounds)

    def imbalance(self) -> float:
        return self.result.shard_loads.get("imbalance", 1.0)

    def row(self, baseline_stage: float | None) -> list:
        speedup = baseline_stage / self.submit_stage() if baseline_stage and self.submit_stage() else 0.0
        return [
            self.entry_shards,
            f"{self.zipf_alpha:g}",
            f"{self.submit_stage():.3f}",
            f"{speedup:.2f}x" if speedup else "-",
            f"{self.submit_throughput():.1f}",
            f"{self.imbalance():.2f}",
            f"{self.result.total_bytes_sent / 2**20:.2f}",
        ]

    def to_dict(self) -> dict:
        return {
            "entry_shards": self.entry_shards,
            "zipf_alpha": self.zipf_alpha,
            "addfriend_submit_stage_s": round(self.submit_stage(), 6),
            "submit_throughput_envelopes_per_s": round(self.submit_throughput(), 3),
            "imbalance": self.imbalance(),
            "result": self.result.to_dict(),
        }


@dataclass
class BatchPoint:
    """One batching cell: the same sharded workload at one batch size."""

    batch_size: int
    result: ScenarioResult

    def submit_frames(self) -> int:
        """Wire messages (both directions) carrying submissions shard-ward."""
        return self.result.calls_by_method.get("submit_batch", 0)

    def row(self) -> list:
        return [
            self.batch_size,
            self.submit_frames(),
            f"{self.result.mean_submit_stage('add-friend'):.3f}",
            f"{self.result.total_bytes_sent / 2**20:.3f}",
        ]

    def to_dict(self) -> dict:
        return {
            "batch_size": self.batch_size,
            "submit_batch_frames": self.submit_frames(),
            "addfriend_submit_stage_s": round(self.result.mean_submit_stage("add-friend"), 6),
            "total_bytes_sent": self.result.total_bytes_sent,
            "calls_by_method": self.result.calls_by_method,
        }


@dataclass
class CdnEgressPoint:
    """One CDN-egress cell: (shards, per-CDN-shard egress cap in Mbit/s)."""

    entry_shards: int
    cdn_egress_mbps: float
    result: ScenarioResult

    def scan_stage(self) -> float:
        return self.result.mean_scan_stage("add-friend")

    def row(self, baseline_stage: float | None) -> list:
        stage = self.scan_stage()
        speedup = baseline_stage / stage if baseline_stage and stage else 0.0
        return [
            self.entry_shards,
            f"{self.cdn_egress_mbps:g}" if self.cdn_egress_mbps else "uncapped",
            f"{stage:.3f}",
            f"{speedup:.2f}x" if speedup else "-",
            f"{self.result.mean_submit_stage('add-friend'):.3f}",
            f"{self.result.total_bytes_sent / 2**20:.2f}",
        ]

    def to_dict(self) -> dict:
        return {
            "entry_shards": self.entry_shards,
            "cdn_egress_mbps": self.cdn_egress_mbps,
            "addfriend_scan_stage_s": round(self.scan_stage(), 6),
            "addfriend_submit_stage_s": round(
                self.result.mean_submit_stage("add-friend"), 6
            ),
            "result": self.result.to_dict(),
        }


@dataclass
class ShardSweepResult:
    """Everything one shard sweep produced (lands in BENCH_shard.json)."""

    points: list[ShardPoint] = field(default_factory=list)
    batch_points: list[BatchPoint] = field(default_factory=list)
    cdn_egress_points: list[CdnEgressPoint] = field(default_factory=list)

    HEADERS = [
        "shards", "zipf a", "af submit s", "speedup",
        "submit env/s", "imbalance", "MiB",
    ]
    BATCH_HEADERS = ["batch", "submit frames", "af submit s", "MiB"]
    CDN_HEADERS = ["shards", "cdn egress", "af scan s", "speedup", "af submit s", "MiB"]

    def baseline_stage(self, zipf_alpha: float) -> float | None:
        """The single-shard submit stage the speedups are measured against."""
        for point in self.points:
            if point.entry_shards == 1 and point.zipf_alpha == zipf_alpha:
                return point.submit_stage()
        for point in self.points:  # no exact baseline: use the uniform one
            if point.entry_shards == 1:
                return point.submit_stage()
        return None

    def speedup_at_max_shards(self) -> float:
        """Submit-stage speedup of the largest uniform grid point vs 1 shard."""
        uniform = [p for p in self.points if p.zipf_alpha == 0]
        if not uniform:
            uniform = self.points
        best = max(uniform, key=lambda p: p.entry_shards, default=None)
        if best is None:
            return 0.0
        baseline = self.baseline_stage(best.zipf_alpha)
        stage = best.submit_stage()
        return baseline / stage if baseline and stage else 0.0

    def table(self) -> tuple[list[str], list[list]]:
        rows = [point.row(self.baseline_stage(point.zipf_alpha)) for point in self.points]
        return list(self.HEADERS), rows

    def batch_table(self) -> tuple[list[str], list[list]]:
        return list(self.BATCH_HEADERS), [point.row() for point in self.batch_points]

    def cdn_baseline_stage(self, cdn_egress_mbps: float) -> float | None:
        """The 1-shard scan stage the CDN-egress speedups compare against."""
        for point in self.cdn_egress_points:
            if point.entry_shards == 1 and point.cdn_egress_mbps == cdn_egress_mbps:
                return point.scan_stage()
        return None

    def cdn_egress_table(self) -> tuple[list[str], list[list]]:
        rows = [
            point.row(self.cdn_baseline_stage(point.cdn_egress_mbps))
            for point in self.cdn_egress_points
        ]
        return list(self.CDN_HEADERS), rows

    def to_report(self) -> dict:
        headers, rows = self.table()
        report = table_report(
            headers, rows, title="sharded entry tier: submit-stage scaling and load imbalance"
        )
        report["points"] = [point.to_dict() for point in self.points]
        report["batching"] = [point.to_dict() for point in self.batch_points]
        report["cdn_egress"] = [point.to_dict() for point in self.cdn_egress_points]
        report["submit_stage_speedup_at_max_shards"] = round(self.speedup_at_max_shards(), 4)
        return report


def run_shard_sweep(
    shard_counts: list[int] | None = None,
    zipf_alphas: list[float] | None = None,
    clients: int = 80,
    latency_ms: float = 200.0,
    access_mbps: float = 0.5,
    batch_size: int = 16,
    batch_sizes: list[int] | None = None,
    cdn_egress_mbps: list[float] | None = None,
    progress=None,
    **overrides,
) -> ShardSweepResult:
    """Run ``sharded_entry`` over a shard-count x Zipf-alpha grid.

    Every point shares the client count, the 200 ms-class links, and the
    *per-shard* access capacity, so the shard axis measures horizontal
    scaling of the submit stage and the alpha axis measures how skewed
    mailbox placement unbalances per-shard load.  One caveat on the shard
    axis: the 1-shard baseline is the classic tier (no ingress proxy, one
    frame per envelope), so multi-shard points fold ingress batching's
    frame amortization into their speedup.  The ``batch_sizes`` section
    (run at the largest shard count, uniform placement) isolates exactly
    that batching share -- compare its ``batch=1`` row against the grid to
    separate the two effects; at the default operating point batching
    contributes ~0.1 s of the ~1.1 s stage, the rest is sharding.
    """
    from repro.sim.scenarios import run_scenario

    shard_counts = shard_counts if shard_counts else [1, 2, 4]
    zipf_alphas = zipf_alphas if zipf_alphas is not None else [0.0, 1.2]
    seed = overrides.pop("seed", "shard-sweep")
    overrides.setdefault("addfriend_rounds", 2)
    overrides.setdefault("dialing_rounds", 1)
    # Placement must be stable and resolvable for every shard count on the
    # grid: pin one mailbox count >= the largest shard count for all points.
    mailbox_count = overrides.pop("fixed_mailbox_count", max(8, 2 * max(shard_counts)))
    result = ShardSweepResult()

    def run_point(
        num_shards: int, alpha: float, batch: int, cdn_egress: float = 0.0
    ) -> ScenarioResult:
        # The seed only grows the egress suffix for capped points so every
        # pre-existing grid cell keeps its historical seed (and stays
        # comparable across PRs in BENCH_shard.json).
        point_seed = f"{seed}/s{num_shards}/a{alpha:g}"
        if cdn_egress > 0:
            point_seed += f"/e{cdn_egress:g}"
        return run_scenario(
            "sharded_entry",
            num_clients=clients,
            client_link=sweep_link(latency_ms),
            entry_shards=num_shards,
            zipf_alpha=alpha if num_shards > 1 else 0.0,
            shard_access_mbps=access_mbps,
            cdn_egress_mbps=cdn_egress,
            ingress_batch_size=batch,
            fixed_mailbox_count=mailbox_count,
            seed=point_seed,
            **overrides,
        )

    for num_shards in shard_counts:
        for alpha in zipf_alphas:
            if num_shards == 1 and alpha > 0:
                continue  # one shard has no placement to skew
            if progress:
                progress(f"shard sweep: {num_shards} shards @ zipf {alpha:g}")
            result.points.append(
                ShardPoint(
                    entry_shards=num_shards,
                    zipf_alpha=alpha,
                    result=run_point(num_shards, alpha, batch_size),
                )
            )

    batch_shards = max(shard_counts)
    for batch in batch_sizes or []:
        if progress:
            progress(f"shard sweep: ingress batch {batch} @ {batch_shards} shards")
        result.batch_points.append(
            BatchPoint(batch_size=batch, result=run_point(batch_shards, 0.0, batch))
        )

    # The CDN-egress axis: cap every CDN shard's shared egress and watch the
    # scan stage (mailbox downloads) queue behind it -- then scale with the
    # shard count the same way the submit stage scales behind entry ingress.
    for cdn_egress in cdn_egress_mbps or []:
        for num_shards in shard_counts:
            if progress:
                cap = f"{cdn_egress:g} Mbps" if cdn_egress else "uncapped"
                progress(f"shard sweep: cdn egress {cap} @ {num_shards} shards")
            result.cdn_egress_points.append(
                CdnEgressPoint(
                    entry_shards=num_shards,
                    cdn_egress_mbps=cdn_egress,
                    result=run_point(num_shards, 0.0, batch_size, cdn_egress),
                )
            )
    return result


def emit_shard_report(result: ShardSweepResult, name: str = "shard") -> str:
    """Print the shard tables and write ``BENCH_<name>.json``; returns the path."""
    headers, rows = result.table()
    print(format_table(headers, rows, title="sharded entry tier: shard count x zipf skew"))
    if result.batch_points:
        headers, rows = result.batch_table()
        print(
            format_table(
                headers, rows, title="ingress envelope batching (SubmitBatch frames on the wire)"
            )
        )
    if result.cdn_egress_points:
        headers, rows = result.cdn_egress_table()
        print(
            format_table(
                headers, rows, title="CDN egress capacity: scan-stage scaling with CDN shard count"
            )
        )
    print(f"submit-stage speedup at max shards: {result.speedup_at_max_shards():.2f}x")
    path = write_json_report(name, result.to_report())
    return str(path)


def run_sweep(
    scenario: str = "pipelined_rounds",
    clients: list[int] | None = None,
    latencies_ms: list[float] | None = None,
    retry_horizons: list[int] | None = None,
    fanout_pkgs: int | None = None,
    retry_workload: dict | None = None,
    fanout_workload: dict | None = None,
    progress=None,
    **overrides,
) -> SweepResult:
    """Run ``scenario`` over the grid, sequential and pipelined at each point.

    ``overrides`` are forwarded to every grid run (``seed``, round counts,
    ...); ``progress`` is an optional ``callable(str)`` for CLI feedback.

    ``retry_horizons`` (e.g. ``[0, 2]``; 0 = retry disabled) additionally
    runs ``client_churn`` once per horizon and records friend-request
    liveness and retry overhead.  ``fanout_pkgs`` additionally runs the
    scenario at that PKG count with sequential vs parallel per-PKG client
    RPCs and records the add-friend submit-stage speedup.  Both sections use
    their own fixed workloads, so the grid overrides do not skew them.
    """
    from repro.sim.scenarios import run_scenario

    clients = clients if clients else [40, 80]
    latencies_ms = latencies_ms if latencies_ms else [40.0, 200.0]
    result = SweepResult(scenario=scenario)
    for num_clients in clients:
        for latency_ms in latencies_ms:
            point_overrides = dict(
                overrides,
                num_clients=num_clients,
                client_link=sweep_link(latency_ms),
            )
            if progress:
                progress(f"sweep: {num_clients} clients @ {latency_ms:g} ms links")
            sequential = run_scenario(scenario, pipelined=False, **point_overrides)
            pipelined = run_scenario(scenario, pipelined=True, **point_overrides)
            result.points.append(
                SweepPoint(
                    num_clients=num_clients,
                    latency_ms=latency_ms,
                    sequential=sequential,
                    pipelined=pipelined,
                )
            )

    seed = overrides.get("seed", "sweep")
    retry_args = dict(
        num_clients=40, friend_pairs=12, addfriend_rounds=8, dialing_rounds=0,
        seed=f"{seed}/retry",
    )
    retry_args.update(retry_workload or {})
    for horizon in retry_horizons or []:
        if progress:
            progress(f"sweep: client_churn retry_horizon={horizon or 'off'}")
        churn = run_scenario(
            "client_churn", retry_horizon=horizon or None, **retry_args
        )
        result.retry_points.append(RetryPoint(retry_horizon=horizon, result=churn))

    if fanout_pkgs:
        fanout_args = dict(
            num_clients=24, friend_pairs=6, addfriend_rounds=2, dialing_rounds=0,
            seed=f"{seed}/fanout",
        )
        fanout_args.update(fanout_workload or {})
        runs = {}
        for mode in ("sequential", "parallel"):
            if progress:
                progress(f"sweep: pkg fan-out {mode} @ {fanout_pkgs} PKGs")
            runs[mode] = run_scenario(
                scenario,
                pipelined=False,
                num_pkg_servers=fanout_pkgs,
                pkg_fanout=mode,
                **fanout_args,
            )
        result.fanout = FanoutComparison(
            pkg_servers=fanout_pkgs,
            sequential=runs["sequential"],
            parallel=runs["parallel"],
        )
    return result


def emit_sweep_report(result: SweepResult, name: str = "sweep") -> str:
    """Print the sweep tables and write ``BENCH_<name>.json``; returns the path."""
    headers, rows = result.table()
    print(format_table(headers, rows, title=f"sweep of {result.scenario}"))
    if result.retry_points:
        headers, rows = result.retry_table()
        print(
            format_table(
                headers, rows, title="client_churn liveness: always-online senders, per retry horizon"
            )
        )
    if result.fanout is not None:
        headers, rows = result.fanout_table()
        print(
            format_table(
                headers, rows, title="add-friend submit stage: sequential vs parallel PKG fan-out"
            )
        )
    path = write_json_report(name, result.to_report())
    return str(path)


# -- the simulator-core fidelity sweep (CLI --sweep-fidelity) ---------------

@dataclass
class FidelityPoint:
    """One grid cell: a scenario at one client count and fidelity level."""

    num_clients: int
    fidelity: str
    result: ScenarioResult
    #: Max relative per-round latency deviation from the same-size
    #: ``slotted`` point (None for the ``slotted`` points themselves).
    latency_divergence: float | None = None
    #: Sum of absolute per-round delivered_real deviations from ``slotted``.
    delivery_divergence: int | None = None

    def delivered_total(self) -> int:
        return sum(r.delivered_real for r in self.result.rounds)

    def row(self) -> list:
        mean_lat = (
            sum(self.result.round_latencies()) / len(self.result.round_latencies())
            if self.result.round_latencies()
            else 0.0
        )
        divergence = (
            "-" if self.latency_divergence is None else f"{self.latency_divergence:.3f}"
        )
        return [
            self.num_clients,
            self.fidelity,
            f"{self.result.wall_seconds:.2f}",
            f"{mean_lat:.3f}",
            self.delivered_total(),
            divergence,
        ]

    def to_dict(self) -> dict:
        return {
            "num_clients": self.num_clients,
            "fidelity": self.fidelity,
            "latency_divergence": self.latency_divergence,
            "delivery_divergence": self.delivery_divergence,
            "result": self.result.to_dict(),
        }


@dataclass
class FidelitySweepResult:
    """Everything one fidelity sweep produced (lands in BENCH_net.json)."""

    scenario: str = "baseline"
    points: list[FidelityPoint] = field(default_factory=list)

    HEADERS = [
        "clients", "fidelity", "wall s", "mean round s",
        "delivered", "latency div",
    ]

    def table(self) -> tuple[list[str], list[list]]:
        return list(self.HEADERS), [point.row() for point in self.points]

    def max_fluid_divergence(self) -> float:
        """The largest relative round-latency deviation any fluid point showed."""
        return max(
            (p.latency_divergence or 0.0 for p in self.points if p.fidelity == "fluid"),
            default=0.0,
        )

    def wall_seconds_by_fidelity(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for point in self.points:
            totals[point.fidelity] = round(
                totals.get(point.fidelity, 0.0) + point.result.wall_seconds, 3
            )
        return totals

    def to_report(self) -> dict:
        headers, rows = self.table()
        report = table_report(
            headers, rows, title="simulator-core fidelity: slotted vs fluid"
        )
        report["scenario"] = self.scenario
        report["points"] = [point.to_dict() for point in self.points]
        report["max_fluid_latency_divergence"] = round(self.max_fluid_divergence(), 6)
        report["wall_seconds_by_fidelity"] = self.wall_seconds_by_fidelity()
        return report


def run_fidelity_sweep(
    client_counts: list[int] | None = None,
    fidelities: list[str] | None = None,
    scenario: str = "baseline",
    progress=None,
    **overrides,
) -> FidelitySweepResult:
    """Run one scenario over a clients x fidelity grid.

    Every same-size point shares its seed, so ``fluid``'s deviation from
    the ``slotted`` reference is a pure measurement of the flow
    approximation.  The wall-clock column is the point of the sweep: what
    each fidelity level costs the host at each population size.
    """
    from repro.sim.scenarios import run_scenario

    client_counts = client_counts or [100, 300]
    fidelities = fidelities or ["slotted", "fluid"]
    seed = overrides.pop("seed", "fidelity-sweep")
    result = FidelitySweepResult(scenario=scenario)
    for clients in client_counts:
        reference: ScenarioResult | None = None
        for fidelity in fidelities:
            if progress:
                progress(f"fidelity sweep: {clients} clients @ {fidelity}")
            point_result = run_scenario(
                scenario,
                num_clients=clients,
                fidelity=fidelity,
                seed=f"{seed}/c{clients}",
                **overrides,
            )
            point = FidelityPoint(clients, fidelity, point_result)
            if fidelity == "slotted":
                reference = point_result
            elif reference is not None:
                base_rounds = reference.rounds
                divergences = [
                    abs(mine.latency_s - base.latency_s) / base.latency_s
                    for mine, base in zip(point_result.rounds, base_rounds)
                    if base.latency_s > 0
                ]
                point.latency_divergence = round(max(divergences, default=0.0), 6)
                point.delivery_divergence = sum(
                    abs(mine.delivered_real - base.delivered_real)
                    for mine, base in zip(point_result.rounds, base_rounds)
                )
            result.points.append(point)
    return result


def emit_fidelity_report(result: FidelitySweepResult, name: str = "net") -> str:
    """Print the fidelity table and write ``BENCH_<name>.json``; returns the path."""
    headers, rows = result.table()
    print(
        format_table(
            headers, rows, title=f"simulator-core fidelity grid on {result.scenario}"
        )
    )
    print(f"max fluid latency divergence: {result.max_fluid_divergence():.3f}")
    path = write_json_report(name, result.to_report())
    return str(path)


# -- the deployment-runtime sweep (CLI --sweep-runtime) ---------------------

#: The runtimes the grid accepts (ScenarioSpec.runtime values).
RUNTIMES = ("sim", "asyncio", "mp")


@dataclass
class RuntimePoint:
    """One grid cell: a scenario at one client count on one runtime.

    ``sim`` points report simulated seconds per stage; ``asyncio``/``mp``
    points report *real* wall-clock seconds (the transport clock is
    ``time.monotonic``), so the stage columns are not comparable across the
    runtime axis -- the wall-seconds column and the parity column are.
    """

    runtime: str
    num_clients: int
    result: ScenarioResult
    #: Whether confirmed friendships and delivered calls match the
    #: same-size ``sim`` point's (None when the grid has no sim reference,
    #: or for the sim points themselves).
    parity_with_sim: bool | None = None

    def stage_mean(self, name: str) -> float:
        rows = [r for r in self.result.rounds if not r.aborted]
        if not rows:
            return 0.0
        return sum(getattr(r, name) for r in rows) / len(rows)

    def row(self) -> list:
        parity = "-" if self.parity_with_sim is None else (
            "yes" if self.parity_with_sim else "NO"
        )
        return [
            self.num_clients,
            self.runtime,
            f"{self.result.wall_seconds:.2f}",
            f"{self.stage_mean('latency_s'):.3f}",
            f"{self.stage_mean('submit_stage_s'):.3f}",
            f"{self.stage_mean('mix_stage_s'):.3f}",
            f"{self.stage_mean('scan_stage_s'):.3f}",
            self.result.friendships_confirmed,
            self.result.calls_delivered,
            parity,
        ]

    def to_dict(self) -> dict:
        return {
            "runtime": self.runtime,
            "num_clients": self.num_clients,
            "parity_with_sim": self.parity_with_sim,
            "wall_seconds": round(self.result.wall_seconds, 3),
            "mean_round_s": round(self.stage_mean("latency_s"), 6),
            "mean_submit_stage_s": round(self.stage_mean("submit_stage_s"), 6),
            "mean_mix_stage_s": round(self.stage_mean("mix_stage_s"), 6),
            "mean_scan_stage_s": round(self.stage_mean("scan_stage_s"), 6),
            "result": self.result.to_dict(),
        }


@dataclass
class RuntimeCryptoPoint:
    """One crypto-leg cell: the asyncio runtime on one crypto backend.

    On real sockets the mix stage is real wall clock, so this leg re-times
    what the simulated crypto sweep can only model: how the ``parallel``
    backend's worker pool trades against ``pure`` on actual cores.
    """

    crypto_backend: str
    result: ScenarioResult

    def mean_mix_stage(self) -> float:
        rows = [r for r in self.result.rounds if not r.aborted]
        if not rows:
            return 0.0
        return sum(r.mix_stage_s for r in rows) / len(rows)

    def row(self) -> list:
        mean_round = (
            sum(self.result.round_latencies()) / len(self.result.round_latencies())
            if self.result.round_latencies()
            else 0.0
        )
        return [
            self.crypto_backend,
            f"{self.result.wall_seconds:.2f}",
            f"{self.mean_mix_stage():.3f}",
            f"{mean_round:.3f}",
        ]

    def to_dict(self) -> dict:
        return {
            "crypto_backend": self.crypto_backend,
            "wall_seconds": round(self.result.wall_seconds, 3),
            "mean_mix_stage_s": round(self.mean_mix_stage(), 6),
            "result": self.result.to_dict(),
        }


@dataclass
class RuntimeSweepResult:
    """Everything one runtime sweep produced (lands in BENCH_runtime.json)."""

    scenario: str = "baseline"
    points: list[RuntimePoint] = field(default_factory=list)
    crypto_points: list[RuntimeCryptoPoint] = field(default_factory=list)
    skipped_backends: list[str] = field(default_factory=list)

    HEADERS = [
        "clients", "runtime", "wall s", "mean round s",
        "submit s", "mix s", "scan s", "friends", "calls", "parity",
    ]
    CRYPTO_HEADERS = ["backend", "wall s", "mean mix s", "mean round s"]

    def parity_ok(self) -> bool:
        """True when every real-runtime point matched its sim reference."""
        return all(p.parity_with_sim is not False for p in self.points)

    def wall_seconds_by_runtime(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for point in self.points:
            totals[point.runtime] = round(
                totals.get(point.runtime, 0.0) + point.result.wall_seconds, 3
            )
        return totals

    def table(self) -> tuple[list[str], list[list]]:
        return list(self.HEADERS), [point.row() for point in self.points]

    def crypto_table(self) -> tuple[list[str], list[list]]:
        return list(self.CRYPTO_HEADERS), [point.row() for point in self.crypto_points]

    def to_report(self) -> dict:
        headers, rows = self.table()
        report = table_report(
            headers, rows, title=f"deployment runtimes on {self.scenario}: sim vs asyncio vs mp"
        )
        report["scenario"] = self.scenario
        report["points"] = [point.to_dict() for point in self.points]
        report["crypto_points"] = [point.to_dict() for point in self.crypto_points]
        report["skipped_backends"] = list(self.skipped_backends)
        report["parity_ok"] = self.parity_ok()
        report["wall_seconds_by_runtime"] = self.wall_seconds_by_runtime()
        return report


def run_runtime_sweep(
    runtimes: list[str] | None = None,
    client_counts: list[int] | None = None,
    scenario: str = "baseline",
    mp_workers: int = 0,
    crypto_backends: list[str] | None = None,
    progress=None,
    **overrides,
) -> RuntimeSweepResult:
    """Run one scenario over a runtime x clients grid, plus a crypto leg.

    Every same-size point shares its seed, so the protocol outcome is
    deterministic across runtimes -- the parity column asserts exactly
    that: real sockets and worker processes change *when* things happen,
    never *what* is delivered.  The sim point of each size (run first when
    present) is the parity reference.

    The crypto leg then re-runs the first grid size on the ``asyncio``
    runtime once per backend in ``crypto_backends`` (default: ``pure`` and
    ``parallel``; unavailable ones recorded in ``skipped_backends``),
    timing the mix stage on real cores instead of the simulated clock.
    """
    from repro.crypto.engine import backend_available
    from repro.errors import ConfigurationError
    from repro.sim.scenarios import run_scenario

    runtimes = list(runtimes) if runtimes else list(RUNTIMES)
    for runtime in runtimes:
        if runtime not in RUNTIMES:
            raise ConfigurationError(
                f"unknown runtime {runtime!r}: expected one of {', '.join(RUNTIMES)}"
            )
    client_counts = client_counts or [24, 60]
    seed = overrides.pop("seed", "runtime-sweep")
    overrides.setdefault("addfriend_rounds", 2)
    overrides.setdefault("dialing_rounds", 2)
    result = RuntimeSweepResult(scenario=scenario)

    ordered = sorted(runtimes, key=lambda r: r != "sim")  # sim first: parity reference
    for clients in client_counts:
        reference: ScenarioResult | None = None
        for runtime in ordered:
            if progress:
                progress(f"runtime sweep: {clients} clients @ {runtime}")
            point_result = run_scenario(
                scenario,
                num_clients=clients,
                runtime=runtime,
                mp_workers=mp_workers if runtime == "mp" else 0,
                seed=f"{seed}/c{clients}",
                **overrides,
            )
            point = RuntimePoint(runtime, clients, point_result)
            if runtime == "sim":
                reference = point_result
            elif reference is not None:
                point.parity_with_sim = (
                    point_result.friendships_confirmed == reference.friendships_confirmed
                    and point_result.calls_delivered == reference.calls_delivered
                )
            result.points.append(point)

    backends = crypto_backends if crypto_backends is not None else ["pure", "parallel"]
    leg_clients = client_counts[0]
    for backend in backends:
        if not backend_available(backend):
            result.skipped_backends.append(backend)
            if progress:
                progress(f"runtime sweep: backend {backend!r} unavailable; skipped")
            continue
        if progress:
            progress(f"runtime sweep: crypto {backend} @ {leg_clients} clients on asyncio")
        crypto_result = run_scenario(
            scenario,
            num_clients=leg_clients,
            runtime="asyncio",
            crypto_backend=backend,
            seed=f"{seed}/crypto/{backend}",
            **overrides,
        )
        result.crypto_points.append(RuntimeCryptoPoint(backend, crypto_result))
    return result


def emit_runtime_report(result: RuntimeSweepResult, name: str = "runtime") -> str:
    """Print the runtime tables and write ``BENCH_<name>.json``; returns the path."""
    headers, rows = result.table()
    print(
        format_table(
            headers, rows, title=f"deployment-runtime grid on {result.scenario}"
        )
    )
    if result.crypto_points:
        headers, rows = result.crypto_table()
        print(
            format_table(
                headers, rows,
                title="crypto backends on the asyncio runtime (real wall-clock mix stage)",
            )
        )
    if result.skipped_backends:
        print(f"skipped unavailable backends: {', '.join(result.skipped_backends)}")
    print(f"result parity across runtimes: {'yes' if result.parity_ok() else 'NO'}")
    path = write_json_report(name, result.to_report())
    return str(path)
