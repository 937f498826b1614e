"""``python -m repro.obs`` -- read a run's artifacts back.

``validate PATH...`` checks what a run wrote.  A record -- any JSON in the
``BENCH_*.json`` envelope: ``run --json``'s run record, an experiment's -- is
held to the one ``schema`` and to the invariants of the sections it carries:
cumulative epsilon monotone and re-derivable from ``analysis.dp.privacy_cost``,
an infinite epsilon only at ``b = 0`` and flagged, noise counts nonnegative,
every audit point's empirical advantage within the analytic bound, a traced
run's stage spans tiling its round latency (coverage within 1 +- 0.05).  A
Chrome/Perfetto file (``{"traceEvents": [...]}``) is held to the trace-event
schema (known phases, balanced begin/end pairs per pid/tid track, monotonic
non-negative per-track timestamps, non-negative durations), per process, so
merged multi-process runtime traces are covered too; ``--min-propagation F``
additionally requires that at least fraction ``F`` of its ``rpc.serve`` spans
carry a resolved remote parent.  Exit status 1 means problems; CI runs it on
every smoke's output.

``explain RUN.json`` prints a run record the way the run that wrote it did:
the per-round table, the summaries, the privacy spend, the trace block.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.record import read_json_report, render, validate_record
from repro.obs.trace import validate_trace_events


def validate_file(path: str, min_propagation: float | None) -> list[str]:
    try:
        payload = read_json_report(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable or not RFC 8259 JSON: {exc}"]
    if isinstance(payload, dict) and "traceEvents" not in payload:
        return validate_record(payload)
    events = payload["traceEvents"] if isinstance(payload, dict) else payload
    return validate_trace_events(events, min_propagation=min_propagation)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)
    validate = sub.add_parser("validate", help="validate records and trace-event files")
    validate.add_argument("paths", nargs="+", help="record or trace JSON files to check")
    validate.add_argument(
        "--min-propagation",
        type=float,
        default=None,
        metavar="FRACTION",
        help="require at least this fraction of rpc.serve spans to resolve "
        "a remote parent (distributed traces)",
    )
    explain = sub.add_parser("explain", help="print a run record as its run printed it")
    explain.add_argument("path", help="a run record (run --json PATH, or a traced run's BENCH_run.json)")
    args = parser.parse_args(argv)

    if args.command == "explain":
        print(render(read_json_report(args.path)["data"]))
        return 0
    status = 0
    for path in args.paths:
        problems = validate_file(path, args.min_propagation)
        if problems:
            status = 1
            print(f"{path}: INVALID ({len(problems)} problem(s))")
            for problem in problems[:20]:
                print(f"  - {problem}")
            if len(problems) > 20:
                print(f"  ... and {len(problems) - 20} more")
        else:
            print(f"{path}: ok")
    return status


if __name__ == "__main__":
    sys.exit(main())
