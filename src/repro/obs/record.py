"""The run record: written, read back, checked and rendered.

A scenario run is one self-describing JSON -- ``ScenarioResult.to_dict()``
inside :func:`write_json_report`'s envelope (``schema``, ``environment``,
``seed``, ``spec``); an experiment writes its sections in the same envelope.
:func:`dumps` is the one (RFC 8259) JSON writer and :func:`read_json_report`
its reader.  :func:`render` is the printed summary of a run, live (``python
-m repro.sim run``) and offline (``python -m repro.obs explain RUN.json``)
from the same dict; :func:`validate_record` is what ``python -m repro.obs
validate`` holds any envelope to.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
from pathlib import Path

from repro.obs.privacy import UNPROTECTED, validate_audit, validate_ledger

__all__ = [
    "SCHEMA",
    "dumps",
    "format_table",
    "read_json_report",
    "render",
    "round_table",
    "validate_record",
    "write_json_report",
]

#: Version of the ``BENCH_<name>.json`` envelope and of the run record inside
#: it (3: a run is one record -- ``metrics`` is gone, an infinite epsilon is
#: the string ``"inf"``, ``run --json`` writes the envelope).
SCHEMA = 3


def dumps(value, **kwargs) -> str:
    """The one JSON writer: RFC 8259 only.  An infinite epsilon (a round at
    ``b = 0``; the ``unprotected`` flag beside it is the marker) is written as
    the string ``"inf"``; any other non-finite float raises."""

    def finite(item):
        if isinstance(item, float) and item == math.inf:
            return "inf"
        if isinstance(item, dict):
            return {key: finite(entry) for key, entry in item.items()}
        if isinstance(item, (list, tuple)):
            return [finite(entry) for entry in item]
        return item

    return json.dumps(finite(value), allow_nan=False, **kwargs)


def read_json_report(path: str | Path) -> dict:
    """Read what :func:`dumps` wrote: strict JSON, with ``"inf"`` under an
    ``epsilon*`` key read back as ``math.inf``."""

    def reject(token):
        raise ValueError(f"{token} is not JSON (RFC 8259)")

    def infinite(value):
        return math.inf if value == "inf" else value

    def restore(pairs):
        record = dict(pairs)
        for key, value in record.items():
            if "epsilon" in key:
                record[key] = (
                    [infinite(entry) for entry in value] if isinstance(value, list) else infinite(value)
                )
        return record

    return json.loads(
        Path(path).read_text(encoding="utf-8"), parse_constant=reject, object_pairs_hook=restore
    )


def format_table(headers: list[str], rows: list[list], title: str | None = None) -> str:
    """Format a small fixed-width table."""
    columns = [[str(h)] + [str(row[i]) for row in rows] for i, h in enumerate(headers)]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _checkout_root() -> Path | None:
    """The repository root when this module runs from a src-layout checkout
    (``<root>/src/repro/obs/record.py`` with ``pyproject.toml`` beside
    ``src/``); None for a regular install under ``site-packages``."""
    src = Path(__file__).resolve().parents[2]
    if src.name == "src" and (src.parent / "pyproject.toml").is_file():
        return src.parent
    return None


def results_dir() -> Path:
    """Where JSON results land: ``$BENCH_RESULTS_DIR``, else
    ``benchmarks/results`` under the checkout (so results do not scatter when
    pytest is invoked from elsewhere), else under the CWD when the package is
    installed and there is no checkout to anchor on."""
    configured = os.environ.get("BENCH_RESULTS_DIR")
    if configured:
        return Path(configured)
    return (_checkout_root() or Path.cwd()) / "benchmarks" / "results"


def environment() -> dict:
    """What two records need to carry to be diffed without the code (the
    benchmark ladder's ``environment`` keys)."""
    root = _checkout_root()
    sha = None
    if root is not None and (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import cryptography

        cryptography_version = cryptography.__version__
    except ImportError:
        cryptography_version = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "cryptography": cryptography_version,
        "platform": platform.platform(),
        "nproc": os.cpu_count() or 1,
    }


def write_json_report(name: str, data, path: str | Path | None = None, **header) -> Path:
    """Write ``data`` inside the one envelope, to ``path`` or (by default) to
    ``BENCH_<name>.json`` in :func:`results_dir`.

    ``data`` is any JSON-serializable value (an experiment passes its sections,
    a scenario run its record); ``header`` adds envelope keys beside it (an
    experiment's ``seed`` and resolved ``axes``, a run's ``seed`` and
    ``spec``).  Returns the path written.
    """
    if path is None:
        target_dir = results_dir()
        target_dir.mkdir(parents=True, exist_ok=True)
        path = target_dir / f"BENCH_{name}.json"
    envelope = {
        "name": name, "schema": SCHEMA, **header,
        "environment": environment(), "data": data,
    }
    path = Path(path)
    path.write_text(dumps(envelope, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


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
