"""Outcome parity: does this checkout produce the records a revision produces?

    python tools/parity.py REV

Runs the same 24 records against REV, checked out in a temporary git
worktree, and against this checkout: every row of ``scenario_names()`` with
pipelining off and on, at 16 clients, seed ``parity``, on the accelerated
crypto backend when ``cryptography`` is installed (else the pure one), each
tree in its own Python process.  It prints every leaf that differs between
the two sides, under ``outcome`` or ``measurement`` as
``repro.obs.record.MEASUREMENT`` classifies it, and exits 1 if and only if an
outcome leaf differs.  ``wall_seconds``, the one leaf of a ``sim`` record read
off the host clock, is dropped before the comparison, so ``REV`` = ``HEAD``
prints no leaf: the command is also a determinism check.  A row that only
one side declares is named, not compared.

:func:`worktree` is the one way a tool here checks a revision out.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.crypto.engine import backend_available  # noqa: E402
from repro.obs.record import outcome  # noqa: E402

#: Runs in each tree's own process: ``argv`` is (src dir, crypto backend,
#: output file).  The tree's ``src`` goes first on the path, ahead of any
#: installed copy of the package.
RECORDS = """\
import sys
sys.path.insert(0, sys.argv[1])
import pathlib, repro
from repro.obs.record import dumps
from repro.sim.scenarios import run_scenario, scenario_names
if not pathlib.Path(repro.__file__).is_relative_to(sys.argv[1]):
    sys.exit(f"imported {repro.__file__}, not the tree under {sys.argv[1]}")
records = {}
for row in scenario_names():
    for pipelined in (False, True):
        record = run_scenario(row, num_clients=16, seed="parity",
                              crypto_backend=sys.argv[2], pipelined=pipelined).to_dict()
        del record["wall_seconds"]
        records[f"{row} pipelined={pipelined}"] = record
pathlib.Path(sys.argv[3]).write_text(dumps(records))
"""


@contextlib.contextmanager
def worktree(rev: str):
    """``rev`` checked out (detached) in a temporary git worktree of this
    repository; the worktree is removed however the block exits."""
    scratch = Path(tempfile.mkdtemp(prefix="worktree-"))
    path = scratch / "tree"
    try:
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach", str(path), rev],
            check=True,
        )
        yield path
    finally:
        if path.exists():
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(path)])
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"])
        shutil.rmtree(scratch, ignore_errors=True)


#: What :func:`differing` reports for a leaf one side does not have.
ABSENT = "<absent>"


def leaves(value, path: str = ""):
    """``(path, value)`` for every leaf of a JSON value; an empty dict or
    list is a leaf itself."""
    if isinstance(value, dict) and value:
        for key, item in value.items():
            yield from leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list) and value:
        for index, item in enumerate(value):
            yield from leaves(item, f"{path}[{index}]")
    else:
        yield path, value


def differing(old, new) -> list[tuple[str, object, object]]:
    """``(path, old value, new value)`` for every leaf that differs; a leaf
    on one side only differs from :data:`ABSENT`."""
    before, after = dict(leaves(old)), dict(leaves(new))
    return [
        (path, before.get(path, ABSENT), after.get(path, ABSENT))
        for path in {**before, **after}
        if before.get(path, ABSENT) != after.get(path, ABSENT)
    ]


def compare(old: dict, new: dict) -> tuple[list, list]:
    """The differing leaves of two run records, split into (outcome,
    measurement) by :func:`repro.obs.record.outcome`."""
    outcomes = {path for path, _, _ in differing(outcome(old), outcome(new))}
    diffs = differing(old, new)
    return [d for d in diffs if d[0] in outcomes], [d for d in diffs if d[0] not in outcomes]


def run_records(tree: Path, backend: str, out: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", RECORDS, str(tree / "src"), backend, str(out)], cwd=tree
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare this checkout against")
    rev = parser.parse_args(argv).rev
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwinds through worktree()
    backend = "accelerated" if backend_available("accelerated") else "pure"
    try:
        with worktree(rev) as tree:
            sides = {"old": tree.parent / "old.json", "new": tree.parent / "new.json"}
            jobs = [run_records(tree, backend, sides["old"]), run_records(ROOT, backend, sides["new"])]
            try:
                failed = any([job.wait() for job in jobs])
            finally:
                for job in jobs:
                    job.kill()  # a no-op once it has exited
            if failed:
                print("a record run failed", file=sys.stderr)
                return 2
            old, new = (json.loads(path.read_text()) for path in sides.values())
    except subprocess.CalledProcessError as exc:
        print(f"cannot check out {rev!r}: {exc}", file=sys.stderr)
        return 2
    print(f"{len(new)} records ({backend} backend): {rev} -> this checkout")
    for key in sorted(old.keys() - new.keys()):
        print(f"  only at {rev}: {key}")
    for key in sorted(new.keys() - old.keys()):
        print(f"  only in this checkout: {key}")
    outcomes, measurements = [], []
    for key in (key for key in new if key in old):
        in_outcome, in_measurement = compare(old[key], new[key])
        outcomes += [f"  {key} {path}: {a!r} -> {b!r}" for path, a, b in in_outcome]
        measurements += [f"  {key} {path}: {a!r} -> {b!r}" for path, a, b in in_measurement]
    print(f"outcome: {len(outcomes)} differing leaves", *outcomes, sep="\n")
    print(f"measurement: {len(measurements)} differing leaves", *measurements, sep="\n")
    return 1 if outcomes else 0


if __name__ == "__main__":
    sys.exit(main())
