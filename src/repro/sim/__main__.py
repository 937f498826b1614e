"""CLI for the scenario harness: ``python -m repro.sim``.

Three subcommands::

    python -m repro.sim list                     # scenarios and experiments
    python -m repro.sim run SCENARIO [--FIELD VALUE ...]
    python -m repro.sim sweep EXPERIMENT [--FIELD VALUE[,VALUE...] ...]

Every scalar field of :class:`~repro.sim.scenario.ScenarioSpec` and of its
:class:`~repro.core.config.AlpenhornConfig` is a flag under its own name
(``num_clients`` -> ``--num-clients``, ``ibe_backend`` -> ``--ibe-backend``);
an ``int | None`` field takes an integer or ``none``, a ``bool`` field
``on``/``off``.  Examples::

    python -m repro.sim run baseline --num-clients 500
    python -m repro.sim run straggler_mix --num-clients 100 --json out.json
    python -m repro.sim run sharded_entry --entry-shards 4 --zipf-alpha 1.2
    python -m repro.sim run client_churn --retry-horizon none
    python -m repro.sim run baseline --ibe-backend bn254 --attestation-backend bls
    python -m repro.sim run metropolis           # 10k clients, accelerated
    python -m repro.sim run megacity --fidelity slotted  # exact client links
    python -m repro.sim run baseline --runtime mp  # a worker per mix server
    python -m repro.sim sweep pipelining --num-clients 40,80 --latency-ms 40,200
    python -m repro.sim sweep shards --entry-shards 1,2,4 --cdn-egress-mbps 0,1
    python -m repro.sim sweep crypto --crypto-backend pure,accelerated
    python -m repro.sim sweep fidelity --num-clients 100,300
    python -m repro.sim sweep runtime --num-clients 24
    python -m repro.sim sweep privacy --noise-b 0.05,1 --privacy-trials 8

``sweep`` runs one of the declared experiments
(:mod:`repro.sim.experiments`) and writes ``BENCH_<experiment>.json``.  A
flag that names an axis of the experiment takes a comma list and *is* that
axis; any other field flag takes one value and applies to every point, under
each section's fixed workload.  A broken check of the experiment exits 1
(after the record is written); an unknown scenario, experiment, field or
value exits 2.

Observability flags (``run`` only; ``--help`` says what each writes)::

    python -m repro.sim run metropolis --trace trace.json
    python -m repro.sim run baseline --dashboard 8350
    python -m repro.sim run baseline --log-level debug
"""

from __future__ import annotations

import argparse
import dataclasses
import shutil
import sys
from functools import partial

from repro.core.config import AlpenhornConfig
from repro.errors import ConfigurationError
from repro.obs.record import render, write_json_report
from repro.sim.experiment import emit_record, run_experiment
from repro.sim.experiments import EXPERIMENTS
from repro.sim.scenario import CONFIG_FIELDS, SPEC_FIELDS, ScenarioSpec
from repro.sim.scenarios import SCENARIOS, make_scenario, scenario_names


class UsageError(Exception):
    """A bad command line: one line on stderr, exit status 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_SWITCH = {"on": True, "true": True, "off": False, "false": False}
_KINDS = {"int": int, "float": float, "str": str, "bool": lambda text: _SWITCH[text.lower()]}


def _convert(name: str, kind: str, convert, optional: bool, text: str):
    if optional and text.lower() == "none":
        return None
    try:
        return convert(text)
    except (ValueError, KeyError):
        raise UsageError(
            f"--{name.replace('_', '-')}: expected {kind}{' or none' if optional else ''}, got {text!r}"
        ) from None


def flag_parsers() -> dict:
    """name -> text parser for every flag generated from a declaration: each
    scalar ``ScenarioSpec`` and ``AlpenhornConfig`` field, by its annotation
    (``LinkSpec``, ``NoiseConfig`` and ``config`` itself have no flag), plus
    the derived axes of the registered experiments."""
    parsers = {}
    for f in dataclasses.fields(ScenarioSpec) + dataclasses.fields(AlpenhornConfig):
        kind, _, rest = f.type.partition(" | ")
        if kind in _KINDS:
            parsers[f.name] = partial(_convert, f.name, kind, _KINDS[kind], rest == "None")
    for experiment in EXPERIMENTS.values():
        for section in experiment.sections:
            for axis in section.axes:
                if axis.apply is not None:
                    parsers[axis.name] = partial(
                        _convert, axis.name, axis.parse.__name__, axis.parse, False
                    )
    return parsers


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro.sim",
        description="Run an Alpenhorn deployment scenario, or a declared experiment over it.",
    )
    common = _Parser(add_help=False)
    common.add_argument("--json", metavar="PATH", help="also write the record to PATH")
    common.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        help="route structured per-round (and, at debug, per-event) logs to stderr",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="list the scenarios and the experiments with their axes")
    run = commands.add_parser("run", parents=[common], help="run one scenario")
    run.add_argument("scenario", help="scenario name (see list)")
    run.add_argument(
        "--trace",
        metavar="PATH",
        help="record per-stage round, shard, ingress and crypto-batch spans; write a "
        "Chrome/Perfetto trace_event file to PATH (plus PATH.jsonl raw spans), and give "
        "the run record its trace section (without --json it lands in BENCH_run.json)",
    )
    run.add_argument(
        "--dashboard",
        type=int,
        metavar="PORT",
        help="serve a live dashboard (SSE) on 127.0.0.1:PORT during the run with "
        "run/pause/step control (0 = any free port)",
    )
    run.add_argument(
        "--dashboard-paused",
        action="store_true",
        help="start the --dashboard run paused (press Run or Step in the UI)",
    )
    sweep = commands.add_parser("sweep", parents=[common], help="run one experiment")
    sweep.add_argument("experiment", help="experiment name (see list)")
    for name in flag_parsers():
        # a derived axis (latency_ms, privacy_trials) only means something to a sweep
        owner = ScenarioSpec if name in SPEC_FIELDS else AlpenhornConfig if name in CONFIG_FIELDS else None
        for command in (run, sweep) if owner else (sweep,):
            command.add_argument(
                "--" + name.replace("_", "-"),
                dest=name,
                metavar="VALUE" if command is run else "VALUE[,VALUE...]",
                help=(
                    f"{owner.__name__}.{name}: {owner.__dataclass_fields__[name].type}"
                    if owner
                    else f"the {name} axis"
                ),
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "list":
            return list_cli()
        if args.log_level:
            from repro.obs.logging import configure_logging

            configure_logging(args.log_level)
        parsers = flag_parsers()
        given = {
            name: getattr(args, name)
            for name in parsers
            if getattr(args, name, None) is not None
        }
        if args.command == "run":
            return run_cli(args, {name: parsers[name](text) for name, text in given.items()})
        return sweep_cli(args, given, parsers)
    except (UsageError, ConfigurationError, ValueError) as exc:
        # ConfigurationError: e.g. a topology-sculpting scenario asked to run
        # on a real runtime, or Zipf skew over one shard or without a pinned
        # mailbox count; ValueError: e.g. too few audit trials.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def list_cli() -> int:
    print("scenarios (python -m repro.sim run NAME):")
    for name in scenario_names():
        print(f"  {name:22s} {SCENARIOS[name].description}")
    print("experiments (python -m repro.sim sweep NAME), sections and default axes:")
    for experiment in EXPERIMENTS.values():
        print("\n".join("  " + line for line in experiment.describe()))
    return 0


def sweep_cli(args, given: dict, parsers: dict) -> int:
    from repro.obs.logging import progress_printer

    experiment = EXPERIMENTS.get(args.experiment)
    if experiment is None:
        raise UsageError(
            f"unknown experiment {args.experiment!r}; choose from {sorted(EXPERIMENTS)}"
        )
    overrides = {}
    for name, text in given.items():
        if experiment.axis(name) is not None:
            overrides[name] = [parsers[name](v.strip()) for v in text.split(",") if v.strip()]
        else:
            overrides[name] = parsers[name](text)
    record = run_experiment(experiment, overrides, progress=progress_printer())
    path = emit_record(record)
    print(f"wrote {path}")
    if args.json:
        shutil.copyfile(path, args.json)
        print(f"wrote {args.json}")
    return 1 if record["failed_checks"] else 0


def run_cli(args, overrides: dict) -> int:
    if args.scenario not in SCENARIOS:
        raise UsageError(f"unknown scenario {args.scenario!r}; choose from {scenario_names()}")
    scenario = make_scenario(args.scenario, **overrides)

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
        print(f"dashboard: {dashboard.url}  (run/pause/step from the page)")
        if args.dashboard_paused:
            print("dashboard: starting paused; press Run or Step to begin")

    from repro.obs.trace import Tracer, set_active_tracer

    tracer = Tracer() if args.trace else None
    previous_tracer = set_active_tracer(tracer)
    try:
        result = scenario.run()
    finally:
        set_active_tracer(previous_tracer)
        if dashboard is not None:
            dashboard.stop()

    record = result.to_dict()
    print(render(record))
    if args.trace:
        trace_path = tracer.write_chrome_trace(args.trace)
        jsonl_path = tracer.write_jsonl(trace_path.with_suffix(".jsonl"))
        print(f"wrote {trace_path} ({len(tracer.spans)} spans), {jsonl_path}")
    if args.json or args.trace:
        # The one record of the run: where --json says, else (traced) BENCH_run.json.
        spec = dataclasses.asdict(result.spec)
        path = write_json_report("run", record, path=args.json, seed=spec["seed"], spec=spec)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
