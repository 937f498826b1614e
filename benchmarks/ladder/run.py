#!/usr/bin/env python3
"""The benchmark ladder's one command.

    python3 benchmarks/ladder/run.py --workload W --seed N --seconds S --trace 0|1
        one workload in this process; the last stdout line is the result
        object BENCHMARK.json's contract describes (end-to-end metrics with
        --trace 0, per-layer metrics with --trace 1)

    python3 benchmarks/ladder/run.py [--seed N] [--runs K] [--workload W]... [--smoke] [--out F]
        the whole ladder: every workload untraced (K seeds) and traced, each
        in a fresh subprocess, plus the layer probes and the cross-run
        checks; prints every metric by name with its unit and writes one
        self-describing record

    python3 benchmarks/ladder/run.py compare A.json B.json
        diff two records against the bounds frozen in BENCHMARK.json

See README.md in this directory for the metric and workload catalogue.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
# The program under test is imported from the checkout this file sits in,
# never from an installed copy.
for entry in (str(HERE), str(REPO / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

SCHEMA = "ladder/1"
#: Where traced runs write their spans and the suite its default record
#: (already covered by the root .gitignore).
RESULTS = REPO / "benchmarks" / "results" / "ladder"
#: A workload subprocess that runs longer than this is recorded as failed
#: instead of hanging the suite (the contract's own per-run cap).
WORKLOAD_TIMEOUT_S = 180


def load_catalogue() -> dict:
    """BENCHMARK.json: the frozen workload list, metric units and bounds."""
    return json.loads((REPO / "BENCHMARK.json").read_text())


def environment() -> dict:
    """What two records need to carry to be diffed without the code."""
    sha = None  # the driver's checkout is not a git repository
    if (REPO / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(REPO), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import cryptography

        cryptography_version = cryptography.__version__
    except ImportError:
        cryptography_version = None
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "cryptography": cryptography_version,
        "platform": platform.platform(),
        "nproc": nproc,
        "loadavg_1min_at_start": load1,
        # A busy box inflates every wall-clock metric; compare prints the
        # flag beside the record's numbers.
        "loaded": load1 > nproc / 2,
        "started_unix": time.time(),
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--runs", type=int, default=1, help="suite: untraced runs (seeds) per workload")
    parser.add_argument("--smoke", action="store_true", help="two repetitions per workload and ~1/10-size probes, every check")
    parser.add_argument("--skip-probes", action="store_true", help="traced run without the layer probes")
    parser.add_argument("--out", type=Path, default=None, help="write the full record here")
    return parser.parse_args(argv)


# --------------------------------------------------------------------------- #
# Leave nothing running
# --------------------------------------------------------------------------- #
def _live_children() -> list[int]:
    """Pids whose parent is this process and that have not ended (Linux)."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = Path("/proc", entry, "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # ended while we looked
        if int(fields[1]) == me and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def reap_children() -> None:
    """Stop every process this one started and wait until each has ended.

    ``close()`` joins the mix workers, but multiprocessing's spawn method
    also starts a resource-tracker process that only ends once this
    interpreter has gone -- a moment *after* our exit, when whoever started
    us is already looking for leftovers.  Called on every path out of
    ``main``.
    """
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None:
        for process in multiprocessing.active_children():
            process.terminate()
            process.join(5)
            if process.is_alive():
                process.kill()
                process.join()
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"), "_resource_tracker", None)
    if getattr(tracker, "_fd", None) is not None:
        # What ResourceTracker._stop() does (3.11 never calls it at exit):
        # closing the keep-alive pipe ends the tracker's main loop.
        os.close(tracker._fd)
        tracker._fd = None
        os.waitpid(tracker._pid, 0)
        tracker._pid = None
    # Anything else (there should be nothing): kill, then wait.
    for pid in _live_children():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break


def _terminated(signum, _frame) -> None:
    # Turn a polite kill into an exception so the ``finally`` in the
    # entry point still reaps the workers.
    raise SystemExit(128 + signum)


# --------------------------------------------------------------------------- #
# One workload, one process (the BENCHMARK.json contract)
# --------------------------------------------------------------------------- #
def run_single(args: argparse.Namespace) -> int:
    if len(args.workload or ()) != 1:
        print("--trace needs exactly one --workload", file=sys.stderr)
        return 2
    catalogue = load_catalogue()
    env = environment()
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the program under test from {REPO / 'src'}: {exc}", file=sys.stderr)
        return 2
    name = args.workload[0]
    if name not in workloads.WORKLOADS:
        print(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[name]
    seconds = args.seconds if args.seconds is not None else catalogue["run_seconds"]

    addfriend_rounds, dialing_rounds = workload.rounds
    record = {
        "schema": SCHEMA,
        "environment": env,
        "workload": name,
        "spec": {
            **dataclasses.asdict(workload),
            "rounds_per_repetition": {"addfriend": addfriend_rounds, "dialing": dialing_rounds},
        },
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "traced": bool(args.trace),
    }
    if not args.trace:
        passed = workloads.run_pass(workload, args.seed, seconds, args.smoke)
        values = passed.end_to_end()
        section = "end_to_end"
    else:
        import probes
        import tracing

        record["probes"] = {} if args.skip_probes else probes.run_all(smoke=args.smoke)
        spans_path = RESULTS / f"spans-{name}-{args.seed}.jsonl"
        passed, traced = tracing.run_traced_pass(workload, args.seed, seconds, args.smoke, spans_path)
        if workload.overrides.get("runtime") == "mp":
            passed.problems.extend(
                workloads.sim_twin_problems(workload, passed, args.seed, seconds, args.smoke)
            )
        record["layers"] = {**passed.sim, **traced}
        record["spans_file"] = str(spans_path.relative_to(REPO))
        values = {**record["probes"], **record["layers"]}
        section = "per_layer"
    record["pass"] = passed.to_dict()
    # The one JSON object the contract wants on the last stdout line.
    result = {
        "correct": passed.correct,
        "attempted": passed.counts["attempted"],
        "failed": passed.counts["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in catalogue[section]
            if not (args.skip_probes and m["name"] not in values)
        },
    }
    record["result"] = result
    for problem in passed.problems:
        print(f"CHECK FAILED [{name}]: {problem}", file=sys.stderr)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# --------------------------------------------------------------------------- #
# The whole ladder
# --------------------------------------------------------------------------- #
def _child(workload: str, seed: int, trace: int, args, scratch: Path, extra=()) -> tuple[dict | None, str]:
    """Run one workload in a fresh subprocess; (record, failure reason)."""
    out = scratch / f"{workload}-{seed}-{trace}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(trace), "--out", str(out), *extra,
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    # Its own session, so a hung workload's workers die with it.
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        _stdout, stderr = child.communicate(timeout=WORKLOAD_TIMEOUT_S)
    except BaseException as exc:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return None, f"timed out after {WORKLOAD_TIMEOUT_S}s"
    sys.stderr.write(stderr)
    record = json.loads(out.read_text()) if out.exists() else None
    return record, "" if child.returncode == 0 else f"exit code {child.returncode}"


def run_suite(args: argparse.Namespace) -> int:
    catalogue = load_catalogue()
    names = args.workload or [w["name"] for w in catalogue["workloads"]]
    why = {w["name"]: w["why"] for w in catalogue["workloads"]}
    per_layer = {m["name"]: m for m in catalogue["per_layer"]}
    record = {
        "schema": SCHEMA,
        "environment": environment(),
        "benchmark": catalogue,
        "seed": args.seed,
        "runs": args.runs,
        "smoke": args.smoke,
        "probes": {},
        "workloads": {},
        "problems": [],
    }
    problems: list[str] = record["problems"]
    RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="suite-", dir=RESULTS) as scratch:
        for index, name in enumerate(names):
            entry = record["workloads"][name] = {"why": why.get(name, ""), "runs": []}
            print(f"[{name}] {entry['why']}", flush=True)
            for seed in range(args.seed, args.seed + args.runs):
                child, failure = _child(name, seed, 0, args, Path(scratch))
                if failure:
                    problems.append(f"{name} seed {seed}: {failure}")
                if child is not None:
                    # Per-round rows are kept for the traced pass only.
                    entry["runs"].append({k: v for k, v in child["pass"].items() if k != "rounds"})
                    entry["spec"] = child["spec"]
            # The probes do not depend on the workload: once is enough.
            extra = () if index == 0 else ("--skip-probes",)
            traced, failure = _child(name, args.seed, 1, args, Path(scratch), extra)
            if failure:
                problems.append(f"{name} traced: {failure}")
            if traced is None or not entry["runs"]:
                continue
            if index == 0:
                record["probes"] = {k: {**per_layer[k], "value": v} for k, v in traced["probes"].items()}
            entry["traced"] = traced["pass"]
            entry["end_to_end"] = {
                meta["name"]: {
                    **meta,
                    "values": (values := [run["end_to_end"][meta["name"]] for run in entry["runs"]]),
                    "median": statistics.median(values),
                }
                for meta in catalogue["end_to_end"]
            }
            entry["failed_share"] = max(run["end_to_end"]["failed_share"] for run in entry["runs"])
            entry["per_layer"] = {k: {**per_layer[k], "value": v} for k, v in traced["layers"].items()}
            # Two runs at one seed -- and tracing must not perturb the
            # program: on a simulated network they agree exactly.
            first = entry["runs"][0]
            if first["simulated_network"]:
                for key, value in traced["pass"]["sim"].items():
                    if first["sim"][key] != value:
                        problems.append(
                            f"{name}: {key} differs between two runs at seed {args.seed}: "
                            f"{first['sim'][key]!r} vs {value!r}"
                        )
    print_record(record)
    out = args.out if args.out is not None else RESULTS / "ladder.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(f"\nrecord written to {out}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


def print_record(record: dict) -> None:
    env = record["environment"]
    print(
        f"\nladder record  schema={record['schema']}  git={env['git_sha']}  seed={record['seed']}  "
        f"runs={record['runs']}  smoke={record['smoke']}\n"
        f"python {env['python']}  cryptography {env['cryptography']}  nproc {env['nproc']}  "
        f"load1 {env['loadavg_1min_at_start']:.2f}" + ("  ** LOADED: timings suspect **" if env["loaded"] else "")
    )
    print("\n== end-to-end (tracing off; median over runs) ==")
    for name, entry in record["workloads"].items():
        if "end_to_end" not in entry:
            print(f"{name}: FAILED")
            continue
        print(f"{name}")
        for metric, row in entry["end_to_end"].items():
            print(f"  {metric:<28} {row['median']:>14.4f} {row['unit']:<6} ({row['better']} is better, bound {row['bound']:.0%})")
        print(f"  {'failed_share':<28} {entry['failed_share']:>14.4f} ratio  (any increase is a regression)")
    print("\n== layer probes ==")
    for metric, row in record["probes"].items():
        print(f"  {metric:<44} {row['value']:>14.4f} {row['unit']}")
    print("\n== per workload: result objects and traced pass ==")
    for name, entry in record["workloads"].items():
        if "per_layer" not in entry:
            continue
        print(name)
        for metric, row in entry["per_layer"].items():
            print(f"  {metric:<44} {row['value']:>14.6g} {row['unit']}")


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminated)
    try:
        if args.trace is not None:
            return run_single(args)
        return run_suite(args)
    finally:
        reap_children()


if __name__ == "__main__":
    # The guard matters: rt-mp-40 spawns worker processes, and
    # multiprocessing's spawn re-imports this file in each of them.
    sys.exit(main(sys.argv[1:]))
