"""The table of what stays deleted (tools/gone.py).

The checkout has no hit, and every row can fire: each row matches its own
example line in a scratch repository holding every row's example, and an
example placed under a row's ``':!'`` exclusion does not fire.  The rows and
their examples are read from the table, never quoted here.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "gone.py"

spec = importlib.util.spec_from_file_location("gone", TOOL)
gone = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gone)
TABLE = {"tools/gone.py": TOOL.read_text().splitlines()}


def git_repo(path: Path, files: dict[str, list[str]]) -> Path:
    """A fresh repository at ``path`` with ``files`` (path -> lines) tracked."""
    subprocess.run(["git", "init", "-q", str(path)], check=True)
    for name, lines in files.items():
        (path / name).parent.mkdir(parents=True, exist_ok=True)
        (path / name).write_text("".join(line + "\n" for line in lines))
    subprocess.run(["git", "add", "-A"], cwd=path, check=True)
    return path


def excluded_placements(row) -> list[str]:
    """Where the row's example goes under each of its exclusions: the
    excluded file itself, or the example's file name inside an excluded
    directory."""
    placed = []
    for pathspec in row.paths:
        if pathspec.startswith(":!"):
            excluded = pathspec[2:]
            placed.append(excluded if Path(excluded).suffix else f"{excluded}/{Path(row.example[0]).name}")
    return placed


EXCLUDING = [row for row in gone.ROWS if excluded_placements(row)]


@pytest.fixture(scope="module")
def examples(tmp_path_factory):
    """Every row's example at its own path, and the table at its own."""
    files = dict(TABLE)
    for row in gone.ROWS:
        files.setdefault(row.example[0], []).append(row.example[1])
    return git_repo(tmp_path_factory.mktemp("examples"), files)


def row_id(row) -> str:
    return f"{row.example[0]}:{gone.ROWS.index(row)}"


def test_the_checkout_has_no_hit():
    inside = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"], cwd=ROOT, capture_output=True)
    if inside.returncode != 0:
        pytest.skip(f"{ROOT} is not a git work tree, so there are no tracked files to scan")
    assert [line for row in gone.ROWS for line in gone.hits(row)] == []


@pytest.mark.parametrize("row", gone.ROWS, ids=row_id)
def test_a_row_fires_on_its_example(examples, row):
    path, line = row.example
    assert any(hit.startswith(f"{path}:") and hit.endswith(f":{line}") for hit in gone.hits(row, examples))


@pytest.fixture(scope="module")
def excluded(tmp_path_factory):
    files: dict[str, list[str]] = {}
    for row in EXCLUDING:
        for path in excluded_placements(row):
            files.setdefault(path, []).append(row.example[1])
    return git_repo(tmp_path_factory.mktemp("excluded"), files)


@pytest.mark.parametrize("row", EXCLUDING, ids=row_id)
def test_an_excluded_path_does_not_fire(excluded, row):
    placed = tuple(f"{path}:" for path in excluded_placements(row))
    assert not [hit for hit in gone.hits(row, excluded) if hit.startswith(placed)]
    # Without its exclusions the same row fires there: the placement is scanned.
    unexcluded = row._replace(paths=tuple(p for p in row.paths if not p.startswith(":!")))
    fired = {hit.split(":", 1)[0] + ":" for hit in gone.hits(unexcluded, excluded)}
    assert fired >= set(placed)


def run_tool(repo: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "tools/gone.py"], cwd=repo, capture_output=True, text=True)


def test_the_command_prints_each_hit_under_its_message_and_exits_1(examples):
    done = run_tool(examples)
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    for row in gone.ROWS:
        path, line = row.example
        message = f"    {row.replaced} (deleted in PR {row.pr}, see CHANGES.md)"
        assert any(
            hit.startswith(f"{path}:") and hit.endswith(f":{line}") and below == message
            for hit, below in zip(lines, lines[1:])
        )


def test_the_command_exits_0_on_a_tree_holding_only_the_table(tmp_path):
    done = run_tool(git_repo(tmp_path, TABLE))
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == f"{len(gone.ROWS)} rows, 0 hits\n"
