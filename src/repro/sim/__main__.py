"""CLI for the scenario harness: ``python -m repro.sim``.

Examples::

    python -m repro.sim --list
    python -m repro.sim --scenario baseline --clients 500
    python -m repro.sim --scenario straggler_mix --clients 100 --json out.json
    python -m repro.sim --scenario pipelined_rounds --clients 100
    python -m repro.sim --sweep --sweep-clients 40,80 --sweep-latency-ms 40,200
    python -m repro.sim --scenario sharded_entry --shards 4 --zipf 1.2
    python -m repro.sim --sweep-shards --sweep-zipf 0,1.2
    python -m repro.sim --sweep-shards 1,2,4 --sweep-cdn-egress 0,1
    python -m repro.sim --scenario metropolis          # 10k clients, accelerated
    python -m repro.sim --scenario megacity            # 100k clients, fluid links
    python -m repro.sim --scenario megacity --fidelity slotted  # exact client links
    python -m repro.sim --sweep-crypto pure,accelerated --sweep-crypto-clients 100,400
    python -m repro.sim --sweep-fidelity --sweep-fidelity-clients 100,300
    python -m repro.sim --scenario baseline --runtime asyncio   # real TCP sockets
    python -m repro.sim --scenario baseline --runtime mp --mp-workers 2
    python -m repro.sim --sweep-runtime --sweep-runtime-clients 24

``--sweep`` runs the scenario over a clients x link-latency grid, once with
the sequential round driver and once pipelined, and writes the comparison
(round throughput and speedup per grid point) to ``BENCH_sweep.json`` for
trend tracking across PRs.  ``--sweep-shards`` runs the sharded entry tier
over a shard-count x Zipf-skew grid (plus an ingress batch comparison and an
optional ``--sweep-cdn-egress`` axis) and writes ``BENCH_shard.json``.
``--sweep-crypto`` microbenchmarks every available crypto backend and runs a
backend x client-count scenario grid into ``BENCH_crypto.json``.
``--sweep-fidelity`` runs the simulator-core fidelity grid (``slotted`` vs
``fluid``) and writes ``BENCH_net.json`` -- measuring fluid's divergence
from the slotted reference and what each costs the host.
``--sweep-runtime`` runs the deployment-runtime grid (``sim`` vs ``asyncio``
vs ``mp``) plus a crypto-backend leg on real sockets and writes
``BENCH_runtime.json`` -- asserting result parity across runtimes and
recording real wall-clock per round stage.

Observability flags (single-run mode)::

    python -m repro.sim --scenario metropolis --trace trace.json
    python -m repro.sim --scenario baseline --dashboard 8350
    python -m repro.sim --scenario baseline --log-level debug

``--trace PATH`` records per-stage round spans (announce / submit / mix /
scan), shard and ingress spans, and crypto-engine batch spans, then writes a
Chrome/Perfetto ``trace_event`` file to PATH, a raw span dump next to it
(``PATH`` with a ``.jsonl`` suffix), and a wall-clock attribution report to
``BENCH_trace.json``.  ``--dashboard PORT`` serves a live HTML dashboard
(Server-Sent Events) with run/pause/step control while the scenario runs.
``--log-level LEVEL`` routes structured per-event logs to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.reporting import format_table
from repro.sim.scenarios import SCENARIOS, make_scenario, scenario_names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim",
        description="Run an Alpenhorn deployment scenario on the simulated network.",
    )
    parser.add_argument(
        "--scenario",
        default=None,
        help="scenario name (see --list); default baseline, or pipelined_rounds with --sweep",
    )
    parser.add_argument("--list", action="store_true", help="list scenarios and exit")
    parser.add_argument("--clients", type=int, default=None, help="number of simulated clients")
    parser.add_argument("--addfriend-rounds", type=int, default=None)
    parser.add_argument("--dialing-rounds", type=int, default=None)
    parser.add_argument("--friend-pairs", type=int, default=None)
    parser.add_argument("--mix-servers", type=int, default=None)
    parser.add_argument("--pkg-servers", type=int, default=None)
    parser.add_argument("--seed", default=None, help="deterministic scenario seed")
    parser.add_argument("--json", default=None, metavar="PATH", help="also write the result as JSON")
    parser.add_argument(
        "--pipelined",
        choices=("on", "off"),
        default=None,
        help="override the scenario's round driver (overlapped vs sequential rounds)",
    )
    parser.add_argument(
        "--retry-horizon",
        type=int,
        default=None,
        metavar="K",
        help="re-enqueue friend requests unconfirmed K add-friend rounds "
        "after submission (0 disables retry)",
    )
    parser.add_argument(
        "--pkg-fanout",
        choices=("parallel", "sequential"),
        default=None,
        help="how clients issue per-PKG RPCs (default: the scenario's, normally parallel)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="shard the entry/CDN tier into N mailbox-range shards (1 = classic)",
    )
    parser.add_argument(
        "--ingress-batch",
        type=int,
        default=None,
        metavar="B",
        help="envelopes per SubmitBatch frame at each shard's ingress proxy",
    )
    parser.add_argument(
        "--zipf",
        type=float,
        default=None,
        metavar="A",
        help="Zipf(A) mailbox-skew for the client population (sharded runs)",
    )
    parser.add_argument(
        "--access-mbps",
        type=float,
        default=None,
        metavar="MBPS",
        help="shared ingress capacity of each entry endpoint's access link",
    )
    parser.add_argument(
        "--redial-attempts",
        type=int,
        default=None,
        metavar="N",
        help="dialing outbox: total dials per call before giving up "
        "(0 disables; calls of aborted rounds then fail terminally)",
    )
    parser.add_argument(
        "--crypto-backend",
        default=None,
        metavar="NAME",
        help="crypto engine for the symmetric/X25519 hot path "
        "(pure, accelerated, parallel; default: the scenario's, normally pure)",
    )
    parser.add_argument(
        "--fidelity",
        choices=("slotted", "fluid"),
        default=None,
        help="simulator-core fidelity: slotted delivery with per-frame "
        "jitter/loss draws (default), or fluid-flow client links",
    )
    parser.add_argument(
        "--runtime",
        choices=("sim", "asyncio", "mp"),
        default=None,
        help="deployment runtime: discrete-event simulation (default), real "
        "localhost TCP sockets in-process, or sockets plus mix servers in "
        "spawned worker processes",
    )
    parser.add_argument(
        "--mp-workers",
        type=int,
        default=None,
        metavar="N",
        help="--runtime mp: worker process count (default: one per mix server)",
    )
    parser.add_argument(
        "--attestation-backend",
        choices=("bls", "simulated"),
        default=None,
        help="PKG attestation scheme (default: the scenario's, normally simulated)",
    )
    parser.add_argument(
        "--cdn-egress-mbps",
        type=float,
        default=None,
        metavar="MBPS",
        help="shared egress capacity of each CDN endpoint's access link "
        "(0 = uncapped)",
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help="run a clients x link-latency grid (sequential vs pipelined) "
        "and write BENCH_sweep.json; --scenario defaults to pipelined_rounds",
    )
    parser.add_argument(
        "--sweep-clients",
        default="40,80",
        metavar="N,N,...",
        help="comma-separated client counts for --sweep (default: 40,80)",
    )
    parser.add_argument(
        "--sweep-latency-ms",
        default="40,200",
        metavar="MS,MS,...",
        help="comma-separated client link latencies for --sweep (default: 40,200)",
    )
    parser.add_argument(
        "--sweep-retry-horizon",
        default="0,2",
        metavar="K,K,...",
        help="retry-horizon axis for --sweep: client_churn liveness per horizon "
        "(0 = retry off; empty string skips the axis; default: 0,2)",
    )
    parser.add_argument(
        "--sweep-fanout-pkgs",
        type=int,
        default=4,
        metavar="N",
        help="PKG count for the sequential-vs-parallel fan-out comparison "
        "in --sweep (0 skips it; default: 4)",
    )
    parser.add_argument(
        "--sweep-shards",
        nargs="?",
        const="1,2,4",
        default=None,
        metavar="N,N,...",
        help="run the sharded_entry scenario over these shard counts (and the "
        "--sweep-zipf skews) and write BENCH_shard.json; default grid 1,2,4",
    )
    parser.add_argument(
        "--sweep-zipf",
        default="0,1.2",
        metavar="A,A,...",
        help="Zipf mailbox-skew axis for --sweep-shards (default: 0,1.2)",
    )
    parser.add_argument(
        "--sweep-batch",
        default="1,16",
        metavar="B,B,...",
        help="ingress batch sizes compared at the largest shard count in "
        "--sweep-shards (empty string skips; default: 1,16)",
    )
    parser.add_argument(
        "--sweep-access-mbps",
        type=float,
        default=0.5,
        metavar="MBPS",
        help="per-shard access-link ingress capacity for --sweep-shards",
    )
    parser.add_argument(
        "--sweep-cdn-egress",
        nargs="?",
        const="0,1",
        default=None,
        metavar="MBPS,MBPS,...",
        help="add a CDN-egress axis to --sweep-shards: per-CDN-shard egress "
        "caps whose scan-stage latency is compared across the shard grid "
        "(0 = uncapped baseline; default caps 0,1)",
    )
    parser.add_argument(
        "--sweep-crypto",
        nargs="?",
        const="pure,accelerated,parallel",
        default=None,
        metavar="NAME,NAME,...",
        help="run the crypto-engine sweep (per-op microbenchmarks plus a "
        "backend x client grid) and write BENCH_crypto.json; unavailable "
        "backends are skipped",
    )
    parser.add_argument(
        "--sweep-crypto-clients",
        default="100,400",
        metavar="N,N,...",
        help="client counts for the --sweep-crypto grid (default: 100,400)",
    )
    parser.add_argument(
        "--sweep-fidelity",
        nargs="?",
        const="slotted,fluid",
        default=None,
        metavar="F,F,...",
        help="run the simulator-core fidelity grid (slotted/fluid) "
        "and write BENCH_net.json; default grid slotted,fluid",
    )
    parser.add_argument(
        "--sweep-fidelity-clients",
        default="100,300",
        metavar="N,N,...",
        help="client counts for the --sweep-fidelity grid (default: 100,300)",
    )
    parser.add_argument(
        "--sweep-runtime",
        nargs="?",
        const="sim,asyncio,mp",
        default=None,
        metavar="R,R,...",
        help="run the deployment-runtime grid (sim/asyncio/mp x clients, plus "
        "a crypto-backend leg on the asyncio runtime) and write "
        "BENCH_runtime.json; default grid sim,asyncio,mp",
    )
    parser.add_argument(
        "--sweep-runtime-clients",
        default="24,60",
        metavar="N,N,...",
        help="client counts for the --sweep-runtime grid (default: 24,60)",
    )
    parser.add_argument(
        "--noise-mu",
        type=float,
        default=None,
        metavar="MU",
        help="per-server, per-mailbox noise mean (default: the scenario's)",
    )
    parser.add_argument(
        "--noise-b",
        type=float,
        default=None,
        metavar="B",
        help="per-server Laplace noise scale (default: the scenario's, or "
        "derived from --privacy-budget)",
    )
    parser.add_argument(
        "--privacy-budget",
        type=int,
        default=None,
        metavar="ACTIONS",
        help="lifetime action budget the run claims to protect at "
        "(eps=ln 2, delta=1e-4); derives the noise scale when --noise-b is "
        "unset and records a consistency warning when both are given",
    )
    parser.add_argument(
        "--sweep-privacy",
        nargs="?",
        const="0.05,0.5,1,4",
        default=None,
        metavar="B,B,...",
        help="run the paired passive-observer distinguishing audit over these "
        "Laplace noise scales (plus a ledger leg on the baseline scenario) "
        "and write BENCH_privacy.json; default grid 0.05,0.5,1,4 -- the "
        "0.05 point is deliberately under-noised so the analytic bound's "
        "degradation is visible",
    )
    parser.add_argument(
        "--privacy-trials",
        type=int,
        default=24,
        metavar="N",
        help="paired trials per arm per --sweep-privacy grid point "
        "(half calibrate the distinguisher, half evaluate it; default: 24)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record per-stage/crypto/shard spans and write a Chrome trace_event "
        "file to PATH (plus PATH.jsonl raw spans and BENCH_trace.json "
        "wall-clock attribution); single-run mode only",
    )
    parser.add_argument(
        "--dashboard",
        type=int,
        default=None,
        metavar="PORT",
        help="serve a live dashboard (SSE) on 127.0.0.1:PORT during the run "
        "with run/pause/step control (0 = any free port); single-run mode only",
    )
    parser.add_argument(
        "--dashboard-paused",
        action="store_true",
        help="start the --dashboard run paused (press Run or Step in the UI)",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        choices=("debug", "info", "warning", "error"),
        help="route structured per-round (and, at debug, per-event) logs to stderr",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.log_level:
        from repro.obs.logging import configure_logging

        configure_logging(args.log_level)

    if args.list:
        for name in scenario_names():
            _, spec = SCENARIOS[name]
            print(f"{name:16s} {spec.description}")
        return 0

    overrides = {}
    if args.clients is not None:
        overrides["num_clients"] = args.clients
    if args.addfriend_rounds is not None:
        overrides["addfriend_rounds"] = args.addfriend_rounds
    if args.dialing_rounds is not None:
        overrides["dialing_rounds"] = args.dialing_rounds
    if args.friend_pairs is not None:
        overrides["friend_pairs"] = args.friend_pairs
    if args.mix_servers is not None:
        overrides["num_mix_servers"] = args.mix_servers
    if args.pkg_servers is not None:
        overrides["num_pkg_servers"] = args.pkg_servers
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.pipelined is not None:
        overrides["pipelined"] = args.pipelined == "on"
    if args.retry_horizon is not None:
        overrides["retry_horizon"] = args.retry_horizon or None
    if args.pkg_fanout is not None:
        overrides["pkg_fanout"] = args.pkg_fanout
    if args.shards is not None:
        overrides["entry_shards"] = args.shards
    if args.ingress_batch is not None:
        overrides["ingress_batch_size"] = args.ingress_batch
    if args.zipf is not None:
        overrides["zipf_alpha"] = args.zipf
    if args.access_mbps is not None:
        overrides["shard_access_mbps"] = args.access_mbps
    if args.redial_attempts is not None:
        overrides["redial_attempts"] = args.redial_attempts or None
    if args.crypto_backend is not None:
        overrides["crypto_backend"] = args.crypto_backend
    if args.cdn_egress_mbps is not None:
        overrides["cdn_egress_mbps"] = args.cdn_egress_mbps
    if args.fidelity is not None:
        overrides["fidelity"] = args.fidelity
    if args.attestation_backend is not None:
        overrides["attestation_backend"] = args.attestation_backend
    if args.runtime is not None:
        overrides["runtime"] = args.runtime
    if args.mp_workers is not None:
        overrides["mp_workers"] = args.mp_workers
    if args.noise_mu is not None:
        overrides["noise_mu"] = args.noise_mu
    if args.noise_b is not None:
        overrides["noise_b"] = args.noise_b
    if args.privacy_budget is not None:
        overrides["privacy_budget"] = args.privacy_budget

    sweeping = args.sweep_crypto is not None or args.sweep_shards is not None
    sweeping = sweeping or args.sweep_cdn_egress is not None or args.sweep
    sweeping = sweeping or args.sweep_fidelity is not None
    sweeping = sweeping or args.sweep_runtime is not None
    sweeping = sweeping or args.sweep_privacy is not None
    if sweeping and (args.trace or args.dashboard is not None):
        print("note: --trace/--dashboard apply to single runs only; ignored with sweeps")
        args.trace = None
        args.dashboard = None

    if args.sweep_privacy is not None:
        return run_privacy_sweep_cli(args, overrides)
    if args.sweep_runtime is not None:
        return run_runtime_sweep_cli(args, overrides)
    if args.sweep_fidelity is not None:
        return run_fidelity_sweep_cli(args, overrides)
    if args.sweep_crypto is not None:
        return run_crypto_sweep_cli(args, overrides)
    if args.sweep_shards is not None or args.sweep_cdn_egress is not None:
        return run_shard_sweep_cli(args, overrides)
    if args.sweep:
        return run_sweep_cli(args, overrides)

    try:
        scenario = make_scenario(args.scenario or "baseline", **overrides)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.log_level:
        from repro.obs.logging import EventLogMonitor

        scenario.monitors.append(EventLogMonitor())

    dashboard = None
    if args.dashboard is not None:
        from repro.obs.dashboard import DashboardMonitor, DashboardServer

        dashboard = DashboardServer(port=args.dashboard)
        dashboard.start()
        scenario.monitors.append(
            DashboardMonitor(dashboard, paused=args.dashboard_paused)
        )
        scenario.privacy.server = dashboard  # stream privacy events too
        print(f"dashboard: {dashboard.url}  (run/pause/step from the page)")
        if args.dashboard_paused:
            print("dashboard: starting paused; press Run or Step to begin")

    from repro.obs.trace import NullTracer, Tracer, active_tracer, set_active_tracer

    from repro.errors import ConfigurationError

    previous_tracer = active_tracer()
    tracer = Tracer() if args.trace else NullTracer()
    set_active_tracer(tracer)
    try:
        result = scenario.run()
    except ConfigurationError as exc:
        # e.g. a topology-sculpting scenario asked to run on a real runtime
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    finally:
        set_active_tracer(previous_tracer)
        if dashboard is not None:
            dashboard.stop()

    if args.trace:
        write_trace_outputs(args.trace, tracer, result)

    headers, rows = result.table()
    print(
        format_table(
            headers,
            rows,
            title=(
                f"scenario {result.name}: {result.spec.num_clients} clients, "
                f"{result.spec.num_mix_servers} mix / {result.spec.num_pkg_servers} pkg servers"
            ),
        )
    )
    print(
        f"friendships={result.friendships_confirmed} calls={result.calls_delivered} "
        f"traffic={result.total_bytes_sent / 2**20:.2f} MiB in {result.total_messages_sent} msgs "
        f"(wall {result.wall_seconds:.1f}s)"
    )
    overall = result.throughput.get("overall")
    if overall:
        driver = "pipelined" if result.spec.pipelined else "sequential"
        print(
            f"throughput ({driver} driver): {overall['rounds_per_sec']:.3f} rounds/s "
            f"over {overall['rounds']} rounds in {overall['busy_s']:.2f}s simulated"
        )
    requests = result.friend_requests
    if requests.get("total"):
        initial = requests["initial"]
        retry = result.spec.retry_horizon
        print(
            f"friend requests ({'retry K=' + str(retry) if retry else 'no retry'}): "
            f"{requests['confirmed']}/{requests['total']} confirmed, "
            f"{requests['retries']} retries; initial pairs "
            f"{initial['confirmed']}/{initial['total']} "
            f"({initial['confirmed_fraction'] * 100:.0f}%)"
        )

    protocols = result.privacy.get("protocols", {})
    if protocols:
        spend = "  ".join(
            f"{proto}: eps={row['epsilon']:.3f} over {row['rounds']} rounds "
            f"(b={row['laplace_scale']:g}, delta={row['delta']:g})"
            for proto, row in sorted(protocols.items())
        )
        print(f"privacy spend: {spend}")
    check = result.privacy.get("budget_check")
    if check and not check["consistent"]:
        print(
            f"privacy budget WARNING: configured b={check['configured_b']:g} is "
            f"{check['under_noised_factor']:g}x under the b={check['prescribed_b']:.1f} "
            f"that {check['protected_actions']} actions prescribe "
            f"(achieved eps={check['achieved_epsilon']:.3f})"
        )

    if args.trace:
        from repro.bench.reporting import write_json_report

        privacy_path = write_json_report(
            "privacy", {"ledger": result.privacy, "audit": None}
        )
        print(f"wrote {privacy_path}")

    from repro.bench.history import append_history

    append_history(
        kind="scenario",
        name=result.name,
        wall_seconds=result.wall_seconds,
        stats={
            "clients": result.spec.num_clients,
            "rounds": len(result.rounds),
            "friendships_confirmed": result.friendships_confirmed,
            "calls_delivered": result.calls_delivered,
            "total_bytes_sent": result.total_bytes_sent,
        },
    )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def write_trace_outputs(path: str, tracer, result) -> None:
    """Write the Chrome trace, the raw span dump, and ``BENCH_trace.json``."""
    from pathlib import Path

    from repro.bench.reporting import write_json_report

    trace_path = Path(path)
    tracer.write_chrome_trace(trace_path)
    jsonl_path = trace_path.with_suffix(".jsonl")
    tracer.write_jsonl(jsonl_path)

    report = tracer.report()
    total_latency = sum(r.latency_s for r in result.rounds)
    stage_sim = sum(stage["sim_s"] for stage in report["stages"].values())
    report["scenario"] = {
        "name": result.name,
        "clients": result.spec.num_clients,
        "rounds": len(result.rounds),
        "wall_seconds": result.wall_seconds,
    }
    report["coverage"] = {
        "stage_sim_s": stage_sim,
        "round_latency_s": total_latency,
        "fraction": (stage_sim / total_latency) if total_latency else 1.0,
    }
    # Real runtimes (asyncio/mp): per-endpoint wall buckets from the merged
    # rpc.call/rpc.serve pairs, plus how many serve spans resolved a remote
    # parent (the propagation health of the trace-context trailer).
    runtime = {}
    if hasattr(tracer, "remote_spans"):
        from repro.obs.distributed import runtime_attribution
        from repro.obs.trace import propagation_coverage

        runtime = runtime_attribution(tracer)
        if runtime:
            report["runtime"] = runtime
            report["propagation"] = propagation_coverage(tracer.to_trace_events())
    bench_path = write_json_report("trace", report)
    print(f"wrote {trace_path} ({report['span_count']} spans), {jsonl_path}")
    print(
        f"wrote {bench_path}: stage coverage "
        f"{report['coverage']['fraction'] * 100:.1f}% of "
        f"{total_latency:.1f}s simulated round latency"
    )
    if runtime:
        propagation = report["propagation"]
        print(
            f"runtime attribution: {len(runtime)} endpoints, propagation "
            f"{propagation['resolved']}/{propagation['serve']} rpc.serve spans linked"
        )


def run_crypto_sweep_cli(args, overrides: dict) -> int:
    from repro.sim.crypto_sweep import emit_crypto_report, run_crypto_sweep

    ignored = [
        flag
        for flag, key in (
            ("--clients", "num_clients"),
            ("--crypto-backend", "crypto_backend"),
            ("--pipelined", "pipelined"),
        )
        if overrides.pop(key, None) is not None
    ]
    if ignored:
        print(
            f"note: {', '.join(ignored)} ignored with --sweep-crypto "
            "(the grid supplies backends and client counts)"
        )
    try:
        backends = [v.strip() for v in args.sweep_crypto.split(",") if v.strip()]
        clients = [int(v) for v in args.sweep_crypto_clients.split(",") if v.strip()]
    except ValueError:
        print(
            "error: --sweep-crypto-clients must be comma-separated integers",
            file=sys.stderr,
        )
        return 2
    if args.scenario:
        overrides["scenario"] = args.scenario
    from repro.errors import ConfigurationError

    from repro.obs.logging import progress_printer

    try:
        result = run_crypto_sweep(
            backends=backends, clients=clients, progress=progress_printer(), **overrides
        )
    except (ConfigurationError, KeyError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    path = emit_crypto_report(result)
    print(f"wrote {path}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.to_report(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def run_shard_sweep_cli(args, overrides: dict) -> int:
    from repro.sim.sweep import emit_shard_report, run_shard_sweep

    ignored = [
        flag
        for flag, key in (
            ("--shards", "entry_shards"),
            ("--zipf", "zipf_alpha"),
            ("--ingress-batch", "ingress_batch_size"),
            ("--access-mbps", "shard_access_mbps"),
            ("--cdn-egress-mbps", "cdn_egress_mbps"),
            ("--pipelined", "pipelined"),
            ("--retry-horizon", "retry_horizon"),
        )
        if overrides.pop(key, None) is not None
    ]
    if ignored:
        print(
            f"note: {', '.join(ignored)} ignored with --sweep-shards "
            "(the grid supplies shard counts, skews, batch sizes, and capacity)"
        )
    clients = overrides.pop("num_clients", None) or 80
    try:
        # --sweep-cdn-egress alone implies the default shard grid.
        shard_counts = [
            int(v) for v in (args.sweep_shards or "1,2,4").split(",") if v.strip()
        ]
        zipf_alphas = [float(v) for v in args.sweep_zipf.split(",") if v.strip()]
        batch_sizes = [int(v) for v in args.sweep_batch.split(",") if v.strip()]
        cdn_egress = [
            float(v) for v in (args.sweep_cdn_egress or "").split(",") if v.strip()
        ]
    except ValueError:
        print(
            "error: --sweep-shards / --sweep-zipf / --sweep-batch / "
            "--sweep-cdn-egress must be comma-separated numbers",
            file=sys.stderr,
        )
        return 2
    from repro.obs.logging import progress_printer

    result = run_shard_sweep(
        shard_counts=shard_counts,
        zipf_alphas=zipf_alphas,
        clients=clients,
        access_mbps=args.sweep_access_mbps,
        batch_sizes=batch_sizes,
        cdn_egress_mbps=cdn_egress,
        progress=progress_printer(),
        **overrides,
    )
    path = emit_shard_report(result)
    print(f"wrote {path}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.to_report(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def run_privacy_sweep_cli(args, overrides: dict) -> int:
    """--sweep-privacy: the paired audit grid plus a baseline ledger leg."""
    from repro.bench.history import append_history
    from repro.bench.reporting import write_json_report
    from repro.sim.privacy_sweep import audit_table, run_privacy_sweep
    from repro.sim.scenarios import run_scenario

    ignored = [
        flag
        for flag, key in (
            ("--noise-b", "noise_b"),
            ("--seed", "seed"),
            ("--pipelined", "pipelined"),
        )
        if overrides.pop(key, None) is not None
    ]
    if ignored:
        print(
            f"note: {', '.join(ignored)} ignored with --sweep-privacy "
            "(the grid supplies noise scales, the harness supplies seeds)"
        )
    try:
        grid = [float(v) for v in args.sweep_privacy.split(",") if v.strip()]
    except ValueError:
        print(
            "error: --sweep-privacy must be comma-separated noise scales",
            file=sys.stderr,
        )
        return 2
    if not grid or args.privacy_trials < 4:
        print(
            "error: --sweep-privacy needs at least one noise scale and "
            "--privacy-trials >= 4",
            file=sys.stderr,
        )
        return 2
    ledger_clients = overrides.pop("num_clients", None) or 40
    noise_mu = overrides.pop("noise_mu", None)
    overrides.pop("privacy_budget", None)
    audit_overrides = dict(overrides)
    if noise_mu is not None:
        audit_overrides["noise_mu"] = noise_mu
    for key in ("addfriend_rounds", "dialing_rounds", "friend_pairs"):
        audit_overrides.pop(key, None)  # the audit scenarios fix their shape

    print(
        f"privacy audit: {len(grid)} noise scales x {args.privacy_trials} "
        "paired trials per arm (this runs 2 scenarios per trial)"
    )
    import time

    sweep_started = time.perf_counter()
    audit = run_privacy_sweep(grid, trials=args.privacy_trials, **audit_overrides)
    headers, rows = audit_table(audit)
    print(format_table(headers, rows, title="empirical advantage vs analytic bound"))

    ledger_result = run_scenario("baseline", num_clients=ledger_clients, **overrides)
    report = {"ledger": ledger_result.privacy, "audit": audit}
    path = write_json_report("privacy", report)
    print(f"wrote {path}")
    if not audit["all_within_bound"]:
        print(
            "error: empirical advantage exceeded the analytic bound -- "
            "the DP accounting or the noise pipeline is broken",
            file=sys.stderr,
        )
        return 1
    append_history(
        kind="sweep",
        name="privacy",
        wall_seconds=time.perf_counter() - sweep_started,
        stats={
            "grid": grid,
            "trials_per_arm": args.privacy_trials,
            "all_within_bound": audit["all_within_bound"],
        },
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def run_runtime_sweep_cli(args, overrides: dict) -> int:
    from repro.sim.sweep import emit_runtime_report, run_runtime_sweep

    ignored = [
        flag
        for flag, key in (
            ("--clients", "num_clients"),
            ("--runtime", "runtime"),
        )
        if overrides.pop(key, None) is not None
    ]
    if ignored:
        print(
            f"note: {', '.join(ignored)} ignored with --sweep-runtime "
            "(the grid supplies runtimes and client counts)"
        )
    mp_workers = overrides.pop("mp_workers", 0)
    scenario = args.scenario or "baseline"
    try:
        runtimes = [v.strip() for v in args.sweep_runtime.split(",") if v.strip()]
        clients = [int(v) for v in args.sweep_runtime_clients.split(",") if v.strip()]
    except ValueError:
        print(
            "error: --sweep-runtime-clients must be comma-separated integers",
            file=sys.stderr,
        )
        return 2
    from repro.errors import ConfigurationError
    from repro.obs.logging import progress_printer

    try:
        result = run_runtime_sweep(
            runtimes=runtimes,
            client_counts=clients,
            scenario=scenario,
            mp_workers=mp_workers,
            progress=progress_printer(),
            **overrides,
        )
    except (ConfigurationError, KeyError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    path = emit_runtime_report(result)
    print(f"wrote {path}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.to_report(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def run_fidelity_sweep_cli(args, overrides: dict) -> int:
    from repro.sim.sweep import emit_fidelity_report, run_fidelity_sweep

    ignored = [
        flag
        for flag, key in (
            ("--clients", "num_clients"),
            ("--fidelity", "fidelity"),
        )
        if overrides.pop(key, None) is not None
    ]
    if ignored:
        print(
            f"note: {', '.join(ignored)} ignored with --sweep-fidelity "
            "(the grid supplies fidelities and client counts)"
        )
    scenario = args.scenario or "baseline"
    try:
        fidelities = [v.strip() for v in args.sweep_fidelity.split(",") if v.strip()]
        clients = [int(v) for v in args.sweep_fidelity_clients.split(",") if v.strip()]
    except ValueError:
        print(
            "error: --sweep-fidelity-clients must be comma-separated integers",
            file=sys.stderr,
        )
        return 2
    from repro.obs.logging import progress_printer

    try:
        result = run_fidelity_sweep(
            client_counts=clients,
            fidelities=fidelities,
            scenario=scenario,
            progress=progress_printer(),
            **overrides,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    path = emit_fidelity_report(result)
    print(f"wrote {path}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.to_report(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def run_sweep_cli(args, overrides: dict) -> int:
    from repro.sim.sweep import emit_sweep_report, run_sweep

    ignored = [
        flag
        for flag, key in (
            ("--clients", "num_clients"),
            ("--pipelined", "pipelined"),
            ("--retry-horizon", "retry_horizon"),
            ("--pkg-fanout", "pkg_fanout"),
        )
        if overrides.pop(key, None) is not None
    ]
    if ignored:
        print(
            f"note: {', '.join(ignored)} ignored with --sweep "
            "(the grid supplies client counts and both drivers; the retry and "
            "fan-out axes have their own flags)"
        )
    scenario = args.scenario or "pipelined_rounds"
    try:
        clients = [int(v) for v in args.sweep_clients.split(",") if v]
        latencies = [float(v) for v in args.sweep_latency_ms.split(",") if v]
        retry_horizons = [int(v) for v in args.sweep_retry_horizon.split(",") if v.strip()]
    except ValueError:
        print(
            "error: --sweep-clients / --sweep-latency-ms / --sweep-retry-horizon "
            "must be comma-separated numbers",
            file=sys.stderr,
        )
        return 2
    from repro.obs.logging import progress_printer

    try:
        result = run_sweep(
            scenario=scenario,
            clients=clients,
            latencies_ms=latencies,
            retry_horizons=retry_horizons,
            fanout_pkgs=args.sweep_fanout_pkgs or None,
            progress=progress_printer(),
            **overrides,
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    path = emit_sweep_report(result)
    print(f"wrote {path}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.to_report(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
