"""Reporting shared by the scenario CLI and the experiment engine: a
fixed-width table for the terminal and one writer that puts every
machine-readable result in ``BENCH_<name>.json`` under one self-describing
envelope, so two runs can be diffed without the code.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
from pathlib import Path

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
    (``<root>/src/repro/bench/reporting.py`` with ``pyproject.toml`` beside
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
