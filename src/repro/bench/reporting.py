"""Reporting shared by the benchmark files, the scenario CLI and the
experiment engine: a fixed-width table for the terminal and one writer that
puts every machine-readable result in ``BENCH_<name>.json`` under one
self-describing envelope, so two runs can be diffed without the code.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

#: Version of the ``BENCH_<name>.json`` envelope.
SCHEMA = 2


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


def write_json_report(name: str, data, **header) -> Path:
    """Write ``BENCH_<name>.json``: ``data`` inside the one envelope.

    ``data`` is any JSON-serializable value (benchmarks pass
    ``{"headers": [...], "rows": [...]}``, an experiment passes its sections);
    ``header`` adds envelope keys beside it (an experiment's ``seed`` and
    resolved ``axes``).  Returns the path written.
    """
    target_dir = results_dir()
    target_dir.mkdir(parents=True, exist_ok=True)
    path = target_dir / f"BENCH_{name}.json"
    envelope = {
        "name": name, "schema": SCHEMA, **header,
        "environment": environment(), "data": data,
    }
    path.write_text(json.dumps(envelope, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def emit_table(
    capsys,
    name: str,
    headers: list[str],
    rows: list[list],
    title: str | None = None,
    extra: dict | None = None,
) -> Path:
    """What every benchmark report does: print the paper-style table to the
    live terminal and write its JSON counterpart as ``BENCH_<name>.json``.

    ``extra`` merges additional machine-readable keys (raw measurements,
    derived ratios) into the JSON next to the table."""
    with capsys.disabled():
        print()
        print(format_table(headers, rows, title=title))
    report = {"headers": list(headers), "rows": [list(row) for row in rows]}
    if title:
        report["title"] = title
    if extra:
        report.update(extra)
    return write_json_report(name, report)
