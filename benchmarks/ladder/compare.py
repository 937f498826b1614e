"""``run.py compare A.json B.json``: diff two ladder records.

One row per (workload, end-to-end metric) with both medians and quartiles,
the change, the frozen bound and a verdict; then the per-layer changes,
``trace.*_s`` first, ranked by absolute change.  Exits non-zero on any
``regressed``.

Verdicts (the choosing-metrics guide's rules, A = parent, B = change):

* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- the run-to-run spread (quartile distance over median)
  of either side exceeds the bound and the two sets of runs interleave, so
  neither "regressed" nor "unchanged" can be claimed;
* ``improved``   -- B's median is better by more than A's own quartile
  distance and B wins at least nine tenths of all pairs of runs;
* ``unchanged``  -- everything else.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single run has no spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, change of the median as a share of A's, positive = worse)."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    worse = sign * (b_med - a_med) / abs(a_med)
    spread = max((a_q3 - a_q1) / abs(a_med), (b_q3 - b_q1) / abs(b_med))
    # Oriented so that smaller is better on both sides.
    a_cost, b_cost = [sign * v for v in a], [sign * v for v in b]
    interleave = min(b_cost) <= max(a_cost) and min(a_cost) <= max(b_cost)
    if spread > bound and interleave:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    pairs = [(x, y) for x in a_cost for y in b_cost if x != y]
    wins = sum(1 for x, y in pairs if y < x)
    if -worse * abs(a_med) > (a_q3 - a_q1) and pairs and wins >= 0.9 * len(pairs) and worse < 0:
        return "improved", worse
    return "unchanged", worse


def _quartile_text(values: list[float]) -> str:
    return "/".join(f"{x:.4g}" for x in quartiles(values))


def _relative(x: float, y: float) -> float:
    return (y - x) / x if x else 0.0


def _load(path: str) -> dict:
    record = json.loads(Path(path).read_text())
    if not str(record.get("schema", "")).startswith("ladder/"):
        raise SystemExit(f"{path}: not a ladder record")
    return record


def _describe(label: str, record: dict) -> str:
    env = record["environment"]
    flag = "  ** loaded at start: timings suspect **" if env["loaded"] else ""
    return (
        f"{label}: git {env['git_sha']}  seed {record['seed']}  runs {record['runs']}  "
        f"smoke {record['smoke']}  python {env['python']}  load1 {env['loadavg_1min_at_start']:.2f}{flag}"
    )


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    a, b = _load(argv[0]), _load(argv[1])
    print(_describe("A", a))
    print(_describe("B", b))
    if a["smoke"] != b["smoke"]:
        print("the two records ran different workload sizes; nothing to compare", file=sys.stderr)
        return 2
    bounds = {m["name"]: m for m in b["benchmark"]["end_to_end"]}
    regressed = 0

    print(f"\n{'workload':<20} {'metric':<24} {'A q1/med/q3':>30} {'B q1/med/q3':>30} {'change':>8} {'bound':>6}  verdict")
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None or "end_to_end" not in wa or "end_to_end" not in wb:
            print(f"{name:<20} missing or failed in one record")
            continue
        for metric, meta in bounds.items():
            va, vb = wa["end_to_end"][metric]["values"], wb["end_to_end"][metric]["values"]
            result, worse = verdict(va, vb, meta["better"], meta["bound"])
            regressed += result == "regressed"
            print(
                f"{name:<20} {metric:<24} {_quartile_text(va):>30} {_quartile_text(vb):>30} "
                f"{worse:>+8.1%} {meta['bound']:>6.0%}  {result}"
            )
        if wb["failed_share"] > wa["failed_share"]:
            regressed += 1
            print(f"{name:<20} {'failed_share':<24} {wa['failed_share']:>30.4f} {wb['failed_share']:>30.4f} {'':>8} {'any':>6}  regressed")

    print("\nper-layer changes, traced pass (seconds of self time first, largest first):")
    for name in a["workloads"]:
        la = a["workloads"][name].get("per_layer")
        lb = b["workloads"].get(name, {}).get("per_layer")
        if not la or not lb:
            continue
        rows = [(k, la[k]["value"], lb[k]["value"], la[k]["unit"]) for k in la if k in lb]
        seconds = [r for r in rows if r[0].startswith("trace.") and r[3] == "s"]
        others = [r for r in rows if r not in seconds and r[1] != r[2]]
        seconds.sort(key=lambda r: -abs(r[2] - r[1]))
        others.sort(key=lambda r: -abs(_relative(r[1], r[2])))
        print(f"  {name}")
        for key, x, y, unit in seconds + others:
            print(f"    {key:<42} {x:>14.6g} -> {y:>14.6g} {unit:<6} {y - x:>+12.4g} ({_relative(x, y):+.1%})")

    print("\nlayer probes (relative change, largest first):")
    probes = [
        (k, row["value"], b["probes"][k]["value"], row["unit"])
        for k, row in a["probes"].items()
        if k in b["probes"]
    ]
    probes.sort(key=lambda r: -abs(_relative(r[1], r[2])))
    for key, x, y, unit in probes:
        print(f"    {key:<42} {x:>14.6g} -> {y:>14.6g} {unit:<6} ({_relative(x, y):+.1%})")

    print(f"\n{regressed} regressed")
    return 1 if regressed else 0
