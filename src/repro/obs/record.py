"""The run record, read back: checked and rendered.

A scenario run is one self-describing JSON -- ``ScenarioResult.to_dict()``
inside :func:`repro.bench.reporting.write_json_report`'s envelope (``schema``,
``environment``, ``seed``, ``spec``).  :func:`render` is the printed summary of
a run, live (``python -m repro.sim run``) and offline (``python -m repro.obs
explain RUN.json``) from the same dict; :func:`validate_record` is what
``python -m repro.obs validate`` holds any envelope to.
"""

from __future__ import annotations

from repro.bench.reporting import SCHEMA, format_table
from repro.obs.privacy import UNPROTECTED, validate_audit, validate_ledger

__all__ = ["render", "round_table", "validate_record"]

#: How far the stage spans' simulated time may be from the round latency.
COVERAGE_TOLERANCE = 0.05


def round_table(rounds: list[dict]) -> tuple[list[str], list[list]]:
    """(headers, rows) of the per-round table, from the record's ``rounds``."""
    headers = [
        "protocol", "round", "online", "submitted", "failed",
        "mailboxes", "real", "noise", "latency s", "MiB",
    ]
    rows = [
        [
            r["protocol"],
            r["round"],
            r["participants"],
            r["submissions"],
            r["failures"],
            r["mailboxes"],
            r["delivered_real"],
            r["noise_added"],
            "aborted" if r["aborted"] else f"{r['latency_s']:.3f}",
            f"{r['bytes_sent'] / 2**20:.2f}",
        ]
        for r in rounds
    ]
    return headers, rows


def render(record: dict) -> str:
    """The per-round table and the one-line summaries of a single run."""
    lines = [
        format_table(
            *round_table(record["rounds"]),
            title=(
                f"scenario {record['scenario']}: {record['num_clients']} clients, "
                f"{record['mix_servers']} mix / {record['pkg_servers']} pkg servers"
            ),
        ),
        f"friendships={record['friendships_confirmed']} calls={record['calls_delivered']} "
        f"traffic={record['total_bytes_sent'] / 2**20:.2f} MiB in "
        f"{record['total_messages_sent']} msgs (wall {record['wall_seconds']:.1f}s)",
    ]
    overall = record["throughput"].get("overall")
    if overall:
        driver = "pipelined" if record["pipelined"] else "sequential"
        lines.append(
            f"throughput ({driver} driver): {overall['rounds_per_sec']:.3f} rounds/s "
            f"over {overall['rounds']} rounds in {overall['busy_s']:.2f}s simulated"
        )
    requests = record["friend_requests"]
    if requests.get("total"):
        initial = requests["initial"]
        retry = record["retry_horizon"]
        lines.append(
            f"friend requests ({'retry K=' + str(retry) if retry else 'no retry'}): "
            f"{requests['confirmed']}/{requests['total']} confirmed, "
            f"{requests['retries']} retries; initial pairs "
            f"{initial['confirmed']}/{initial['total']} "
            f"({initial['confirmed_fraction'] * 100:.0f}%)"
        )

    privacy = record["privacy"]
    protocols = privacy.get("protocols", {})
    if protocols:
        spend = "  ".join(
            f"{proto}: eps={row['epsilon']:.3f} over {row['rounds']} rounds "
            f"(b={row['laplace_scale']:g}, delta={row['delta']:g})"
            + (" UNPROTECTED" if "unprotected" in row else "")
            for proto, row in sorted(protocols.items())
        )
        lines.append(f"privacy spend: {spend}")
        if any("unprotected" in row for row in protocols.values()):
            lines.append(f"privacy: UNPROTECTED = {UNPROTECTED}")
    check = privacy.get("budget_check")
    if check and not check["consistent"]:
        lines.append(
            f"privacy budget WARNING: configured b={check['configured_b']:g} is "
            f"{check['under_noised_factor']:g}x under the b={check['prescribed_b']:.1f} "
            f"that {check['protected_actions']} actions prescribe "
            f"(achieved eps={check['achieved_epsilon']:.3f})"
        )

    trace = record.get("trace")
    if trace:
        coverage = trace["coverage"]
        lines.append(
            f"trace: {trace['span_count']} spans, stage coverage "
            f"{coverage['fraction'] * 100:.1f}% of "
            f"{coverage['round_latency_s']:.1f}s simulated round latency"
        )
        lines.append(
            "wall self time: "
            + "  ".join(f"{cat} {wall:.2f}s" for cat, wall in trace["category_totals"].items())
        )
        if "runtime" in trace:
            propagation = trace["propagation"]
            lines.append(
                f"runtime attribution: {len(trace['runtime'])} endpoints, propagation "
                f"{propagation['resolved']}/{propagation['serve']} rpc.serve spans linked"
            )
    return "\n".join(lines)


def validate_record(envelope) -> list[str]:
    """Problems with one envelope (empty means valid): the ``schema`` number,
    then the invariants of each section its ``data`` carries -- the privacy
    ledger (a run's ``privacy``, the privacy experiment's ``ledger``), the
    ``audit`` points, a traced run's stage ``coverage`` (within 1 +-
    ``COVERAGE_TOLERANCE``)."""
    if not isinstance(envelope, dict) or envelope.get("schema") != SCHEMA:
        found = envelope.get("schema") if isinstance(envelope, dict) else None
        return [f"unknown schema {found!r}: this validator reads schema {SCHEMA}"]
    data = envelope.get("data")
    if not isinstance(data, dict):
        return ["envelope carries no data object"]
    problems: list[str] = []
    for key in ("privacy", "ledger"):
        if isinstance(data.get(key), dict):
            problems += validate_ledger(data[key])
    if isinstance(data.get("audit"), dict):
        problems += validate_audit(data["audit"])
    if "rounds" in data and len(data.get("round_gauges", [])) != len(data["rounds"]):
        problems.append("round_gauges does not have one entry per round")
    trace = data.get("trace")
    if trace:
        fraction = trace.get("coverage", {}).get("fraction")
        if not isinstance(fraction, (int, float)) or abs(fraction - 1.0) > COVERAGE_TOLERANCE:
            problems.append(
                f"trace coverage {fraction!r}: stage spans do not tile the round "
                f"latency within {COVERAGE_TOLERANCE:g}"
            )
    return problems
