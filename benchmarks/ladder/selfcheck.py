#!/usr/bin/env python3
"""The ladder's self-check: the whole suite at smoke size, under a minute.

    python3 benchmarks/ladder/selfcheck.py

This is the one-liner a CI job should call.  It is deliberately not named
``test_*.py``: pytest's default pattern does not collect it, so tier-1 time
is unchanged.  It checks that

* BENCHMARK.json obeys the driver's schema limits and names exactly the
  workloads ``workloads.py`` defines;
* ``run.py --smoke`` exits 0: all five workloads pass every correctness
  check (friendships confirmed, calls delivered, no failed submission, no
  aborted round, no orphan worker, rt-mp parity with its sim twin);
* every end-to-end and per-layer metric BENCHMARK.json lists is reported,
  the end-to-end ones never 0, ``failed_share`` 0, ``trace.coverage``
  within 1.00 +/- 0.02;
* simulated statistics are identical across two runs at one seed (the
  suite checks untraced against traced) and different at another seed;
* ``run.py compare`` of the record with itself reports no regression;
* a run that spawns workers leaves no process behind the moment it exits
  (not a worker, not multiprocessing's resource tracker);
* a directory holding only BENCHMARK.json and this directory fails fast
  without printing a result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
RUN = [sys.executable, str(HERE / "run.py")]

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def check_schema(catalogue: dict) -> list[str]:
    problems = []
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(catalogue) != expected:
        problems.append(f"BENCHMARK.json keys {sorted(catalogue)} != {sorted(expected)}")
        return problems
    if not (2 <= len(catalogue["workloads"]) <= 8):
        problems.append("2 to 8 workloads")
    if not (1 <= len(catalogue["end_to_end"]) <= 16 and 1 <= len(catalogue["per_layer"]) <= 128):
        problems.append("1 to 16 end-to-end and 1 to 128 per-layer metrics")
    if not (isinstance(catalogue["run_seconds"], int) and 1 <= catalogue["run_seconds"] <= 60):
        problems.append("run_seconds is a whole number from 1 to 60")
    names = [w["name"] for w in catalogue["workloads"]]
    names += [m["name"] for m in catalogue["end_to_end"] + catalogue["per_layer"]]
    for name in names:
        if not NAME.match(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for workload in catalogue["workloads"]:
        if set(workload) != {"name", "why"} or len(workload["why"]) > 200 or "\n" in workload["why"]:
            problems.append(f"workload {workload.get('name')!r}: exactly name and a one-line why of <= 200 chars")
    for metric in catalogue["end_to_end"]:
        if set(metric) != {"name", "unit", "better", "bound"} or not 0 < metric["bound"] <= 0.25:
            problems.append(f"end_to_end {metric.get('name')!r}: keys or bound")
    for metric in catalogue["per_layer"]:
        if set(metric) != {"name", "unit", "better"}:
            problems.append(f"per_layer {metric.get('name')!r}: keys")
    for metric in catalogue["end_to_end"] + catalogue["per_layer"]:
        if not UNIT.match(metric["unit"]) or metric["better"] not in ("lower", "higher"):
            problems.append(f"{metric['name']!r}: unit or direction")
    setup = [m for m in catalogue["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (s, lower) is mandatory")
    if len(json.dumps(catalogue)) > 64 * 1024:
        problems.append("BENCHMARK.json over 64 KiB")
    return problems


def session_survivors(command: list[str]) -> list[int]:
    """Run ``command`` in a session of its own; pids still in it at exit."""
    child = subprocess.Popen(
        command, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
    )
    child.wait()
    left = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                fields = Path("/proc", entry, "stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[3]) == child.pid:
                left.append(int(entry))
    return left


def main() -> int:
    started = time.perf_counter()
    problems: list[str] = []
    catalogue = json.loads((REPO / "BENCHMARK.json").read_text())
    problems += check_schema(catalogue)

    sys.path[:0] = [str(HERE), str(REPO / "src")]
    import workloads

    if [w["name"] for w in catalogue["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads != workloads.WORKLOADS")

    results = REPO / "benchmarks" / "results" / "ladder"  # git-ignored
    results.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selfcheck-", dir=results) as scratch:
        scratch = Path(scratch)
        out = scratch / "smoke.json"
        done = subprocess.run([*RUN, "--smoke", "--out", str(out)], capture_output=True, text=True)
        if done.returncode != 0:
            problems.append(f"run.py --smoke exited {done.returncode}:\n{done.stderr[-3000:]}")
        record = json.loads(out.read_text()) if out.exists() else {"workloads": {}, "probes": {}}
        per_layer = {m["name"] for m in catalogue["per_layer"]}
        for workload in catalogue["workloads"]:
            entry = record["workloads"].get(workload["name"])
            if entry is None or "end_to_end" not in entry:
                problems.append(f"{workload['name']}: missing from the smoke record")
                continue
            for metric in catalogue["end_to_end"]:
                if not entry["end_to_end"][metric["name"]]["median"] > 0:
                    problems.append(f"{workload['name']}: {metric['name']} is not positive")
            if entry["failed_share"] != 0:
                problems.append(f"{workload['name']}: failed_share {entry['failed_share']}")
            reported = set(entry["per_layer"]) | set(record["probes"])
            if reported != per_layer:
                problems.append(
                    f"{workload['name']}: per-layer names differ from BENCHMARK.json: "
                    f"missing {sorted(per_layer - reported)}, extra {sorted(reported - per_layer)}"
                )
            coverage = entry["per_layer"]["trace.coverage"]["value"]
            if not 0.98 <= coverage <= 1.02:
                problems.append(f"{workload['name']}: trace.coverage {coverage}")

        # Another seed must give other simulated statistics (the simulated
        # clock's: with b = 0 noise the byte counts are the same at every seed).
        other = scratch / "other-seed.json"
        first = catalogue["workloads"][0]["name"]
        subprocess.run(
            [*RUN, "--workload", first, "--seed", "2", "--trace", "0", "--smoke", "--out", str(other)],
            capture_output=True, text=True,
        )
        if other.exists() and first in record["workloads"] and record["workloads"][first]["runs"]:
            same = record["workloads"][first]["runs"][0]["sim"]
            key = "sim.round_latency_s.addfriend"
            if json.loads(other.read_text())["pass"]["sim"][key] == same[key]:
                problems.append(f"{first}: {key} identical at seeds 1 and 2")
        else:
            problems.append(f"{first}: second-seed run failed")

        if out.exists():
            done = subprocess.run([*RUN, "compare", str(out), str(out)], capture_output=True, text=True)
            if done.returncode != 0 or "0 regressed" not in done.stdout:
                problems.append(f"compare of a record with itself: exit {done.returncode}")

        spawning = [n for n, w in workloads.WORKLOADS.items() if w.overrides.get("runtime") == "mp"]
        for name in spawning:
            left = session_survivors([*RUN, "--workload", name, "--seed", "1", "--trace", "0", "--smoke"])
            if left:
                problems.append(f"{name}: processes {left} outlive the run")

        # The driver also runs the command where only BENCHMARK.json and
        # this directory exist: it must fail fast and print no result.
        bare = scratch / "bare"
        (bare / "benchmarks").mkdir(parents=True)
        shutil.copy(REPO / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "benchmarks" / "ladder", ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "benchmarks/ladder/run.py", "--workload", first, "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True,
        )
        if done.returncode == 0 or done.stdout.strip():
            problems.append("bare directory: expected a non-zero exit and no result")

    elapsed = time.perf_counter() - started
    for problem in problems:
        print(f"SELFCHECK FAILED: {problem}", file=sys.stderr)
    print(f"ladder selfcheck: {'FAILED' if problems else 'ok'} in {elapsed:.1f}s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
