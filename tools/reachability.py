"""Reachability census: which functions under ``src/repro`` does anything run?

Every population below runs in its own subprocess with a ``sitecustomize``
module first on ``PYTHONPATH``.  That module installs a ``sys.setprofile``
hook and a ``threading.setprofile`` hook in every Python process the
population starts -- pytest, the ``mp`` forkserver and the mix workers it
forks (they inherit its hook and its record file), the benchmark
ladder's per-workload subprocesses -- and appends each ``repro`` code object
to a per-process record file the first time it is called.  Every ``def``
under ``src/repro`` then falls into exactly one class:

  never called   no population calls it;
  test-only      only the tier-1 test population calls it;
  workload       a workload population (the paper sweep, the ladder's smoke
                 pass, the examples, the CI's ``python -m repro...``
                 commands) calls it.

A message's compiled ``encode``/``decode`` (``repro.utils.serialization``)
has the file name ``<codec NAME>``, outside the package, so the hook does
not record it and it is no ``def`` to classify; the fields' ``emit_*``
methods that generate it are, and run when each layout is declared.

A never-called or test-only function either goes, or it is listed in
``KEEP`` below with a one-line reason: safety code, a test oracle, an
abstract declaration with two or more implementations, a name
``benchmarks/ladder`` imports, or a documented CLI/README feature.

Usage (from the checkout root; the full census takes about ten minutes on
two cores, tier-1 under the hook being most of it)::

    python3 tools/reachability.py                   # the report
    python3 tools/reachability.py --json OUT.json   # plus the classification

The census is a report, not a gate: it exits 0 unless a population could
not be started, or a source file under the package changed while the
populations ran -- every ``(file, line)`` a later population records would
then miss its ``def``.  Each ``.py`` file is hashed before the first
population and after each one; on a mismatch the census prints one
``FAILED`` line naming the changed files and exits 1 without classifying.
The CI commands run at no more than ``CLIENT_CAP`` clients
(and ``FRIEND_PAIR_CAP`` friend pairs): which functions run does not depend
on the client count, and the 10k- and 20k-client smokes would take most of
an hour under the hook.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import textwrap
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
CI_FILE = ROOT / ".github" / "workflows" / "ci.yml"
CLIENT_CAP = 64
FRIEND_PAIR_CAP = 16

NEVER, TEST_ONLY, WORKLOAD = "never called", "test-only", "workload"

#: Installed in every process of a population.  A code object is written
#: out the moment it is first seen (one unbuffered append per function), so a
#: worker that is terminated rather than exiting loses nothing.
SITECUSTOMIZE = textwrap.dedent(
    """\
    import os, sys, threading

    def _install(root, out):
        seen = set()
        fd = os.open(os.path.join(out, f"{os.getpid()}.rec"),
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                if code not in seen:
                    seen.add(code)
                    if code.co_filename.startswith(root):
                        os.write(fd, f"{code.co_filename}\\t{code.co_firstlineno}\\n".encode())

        sys.setprofile(hook)
        threading.setprofile(hook)

    if os.environ.get("REACHABILITY_OUT"):
        _install(os.environ["REACHABILITY_ROOT"], os.environ["REACHABILITY_OUT"])
    """
)


@dataclass(frozen=True)
class Population:
    name: str
    kind: str  # "test" or "workload"
    commands: tuple[tuple[str, ...], ...]
    cwd: Path | None = None  # None: a fresh scratch directory


@dataclass(frozen=True)
class Function:
    path: str  # relative to the package's parent directory
    qualname: str
    line: int  # co_firstlineno: the first decorator's line, else the def's
    lines: int

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"


@dataclass
class Census:
    functions: list[Function]
    classes: dict[str, str]  # Function.key -> class
    callers: dict[str, list[str]] = field(default_factory=dict)  # key -> populations
    failures: list[str] = field(default_factory=list)

    def of(self, cls: str) -> list[Function]:
        return [f for f in self.functions if self.classes[f.key] == cls]

    def counts(self) -> dict[str, tuple[int, int]]:
        return {
            cls: (len(members), sum(f.lines for f in members))
            for cls in (NEVER, TEST_ONLY, WORKLOAD)
            for members in [self.of(cls)]
        }


# ---------------------------------------------------------------- functions


def enumerate_functions(package: Path) -> list[Function]:
    """Every ``def`` (methods and nested functions included) under *package*."""
    functions: list[Function] = []
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package.parent).as_posix()
        tree = ast.parse(path.read_text(), str(path))

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{child.name}"
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    functions.append(Function(rel, qualname, first, child.end_lineno - first + 1))
                    visit(child, f"{qualname}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return functions


def source_digests(package: Path) -> dict[str, str]:
    """Every ``.py`` file under *package*, keyed as :class:`Function` paths, to its SHA-256."""
    return {
        path.relative_to(package.parent).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(package.rglob("*.py"))
    }


class SourceChanged(Exception):
    """A source file changed while the populations ran: no classification."""


# --------------------------------------------------------------- populations


def run_population(population: Population, package: Path, out: Path, hook_dir: Path) -> list[str]:
    """Run every command of *population* under the hook, records into *out*.
    Returns one line per command that exited nonzero."""
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(hook_dir), str(package.parent), os.environ.get("PYTHONPATH")])
    )
    env["REACHABILITY_ROOT"] = str(package) + os.sep
    env["REACHABILITY_OUT"] = str(out)
    failures = []
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        env.setdefault("BENCH_RESULTS_DIR", str(Path(scratch) / "benchmarks" / "results"))
        for argv in population.commands:
            started = time.perf_counter()
            done = subprocess.run(
                argv, cwd=population.cwd or scratch, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            took = time.perf_counter() - started
            print(f"  [{population.name}] {took:6.1f} s  exit {done.returncode}  {shlex.join(argv)}",
                  file=sys.stderr)
            if done.returncode != 0:
                tail = done.stderr.strip().splitlines()[-1:] or [""]
                failures.append(f"{population.name}: exit {done.returncode}: {shlex.join(argv)}: {tail[0]}")
    return failures


def read_records(out: Path) -> set[tuple[str, int]]:
    called = set()
    for record in out.glob("*.rec"):
        for line in record.read_text().splitlines():
            filename, _, lineno = line.rpartition("\t")
            if filename:
                called.add((filename, int(lineno)))
    return called


def census(package: Path, populations: list[Population]) -> Census:
    """Run every population and classify every ``def`` under *package*."""
    package = package.resolve()
    digests = source_digests(package)
    functions = enumerate_functions(package)
    failures: list[str] = []
    callers: dict[str, list[str]] = {}
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        hook_dir = Path(scratch) / "hook"
        hook_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(SITECUSTOMIZE)
        for population in populations:
            out = Path(scratch) / "records" / population.name
            failures += run_population(population, package, out, hook_dir)
            now = source_digests(package)
            changed = sorted(k for k in digests.keys() | now.keys() if digests.get(k) != now.get(k))
            if changed:
                raise SourceChanged(
                    f"{population.name}: source changed during the census: {', '.join(changed)}"
                )
            called = read_records(out)
            for f in functions:
                if (str(package.parent / f.path), f.line) in called:
                    callers.setdefault(f.key, []).append(population.name)
    kinds = {p.name: p.kind for p in populations}
    classes = {}
    for f in functions:
        reached_by = {kinds[name] for name in callers.get(f.key, [])}
        classes[f.key] = WORKLOAD if "workload" in reached_by else TEST_ONLY if reached_by else NEVER
    return Census(functions, classes, callers, failures)


def ci_commands(ci_file: Path = CI_FILE) -> list[tuple[str, ...]]:
    """Every ``python -m repro...`` command line in the CI workflow, in
    order, continuation lines joined, pipes dropped, client counts capped."""
    text = re.sub(r"\\\n\s*", " ", ci_file.read_text())
    commands = []
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("python -m repro."):
            continue
        argv = shlex.split(line.split("|")[0])
        argv[0] = sys.executable
        commands.append(tuple(_cap(argv)))
    return commands


def _cap(argv: list[str]) -> list[str]:
    caps = {"--num-clients": CLIENT_CAP, "--friend-pairs": FRIEND_PAIR_CAP}
    for i, arg in enumerate(argv[:-1]):
        if arg in caps:
            values = dict.fromkeys(min(int(v), caps[arg]) for v in argv[i + 1].split(","))
            argv[i + 1] = ",".join(map(str, values))
    if argv[3:4] == ["run"] and "--num-clients" not in argv:
        argv += ["--num-clients", str(CLIENT_CAP)]
    return argv


def repo_populations() -> list[Population]:
    python = sys.executable
    return [
        Population("tier-1", "test", ((python, "-m", "pytest", "-q", "-p", "no:cacheprovider"),), ROOT),
        Population("paper", "workload", ((python, "-m", "repro.sim", "sweep", "paper"),)),
        Population("ladder", "workload", ((python, str(ROOT / "benchmarks/ladder/run.py"), "--smoke"),), ROOT),
        Population("examples", "workload",
                   tuple((python, str(path)) for path in sorted((ROOT / "examples").glob("*.py")))),
        Population("ci", "workload", tuple(ci_commands())),
    ]


# ------------------------------------------------------------------ reasons

SAFETY = "safety"
ORACLE = "test oracle"
ABSTRACT = "abstract declaration"
DOCUMENTED = "documented feature"

#: Unreached functions that stay, each with one reason (see the module
#: docstring): ``(kind, reason, [path::qualname, ...])`` as the report prints
#: the keys.
_KEEP_GROUPS: list[tuple[str, str, list[str]]] = [
    (SAFETY, "a lost or aborted round puts requests back, erases keys or fails the handle", [
        "repro/api/session.py::ClientSession._round_aborted",
        "repro/api/session.py::ClientSession._try_redial",
        "repro/core/addfriend.py::AddFriendEngine.requeue",
        "repro/core/dialing.py::DialingEngine.requeue",
        "repro/core/roundengine.py::AddFriendDriver.submit_failed",
        "repro/core/roundengine.py::AddFriendDriver.scan_missed",
        "repro/core/roundengine.py::DialingDriver.submit_failed",
        "repro/core/roundengine.py::DialingDriver.scan_missed",
        "repro/cluster/shard.py::IngressProxy.abort_round",
    ]),
    (SAFETY, "forward secrecy: is a closed round's PKG master secret gone (over the wire too)", [
        "repro/pkg/server.py::PkgServer.has_master_secret",
        "repro/net/rpc.py::PkgStub.has_master_secret",
    ]),
    (SAFETY, "fail closed: a remote handler's error reply, a dead connection, non-JSON numbers", [
        "repro/runtime/wire.py::encode_error",
        "repro/runtime/wire.py::decode_error",
        "repro/runtime/transport.py::AsyncioTransport._discard",
        "repro/obs/record.py::read_json_report.<locals>.reject",
    ]),
    (SAFETY, "a registered but unavailable crypto backend fails naming the usable ones (get_backend's error)", [
        "repro/crypto/engine.py::available_backends",
    ]),
    (SAFETY, "the dataclass repr would print the signing key", [
        "repro/core/identity.py::UserIdentity.__repr__",
    ]),
    (ORACLE, "the erasure and expiry checks: is a round's key or buffer still held", [
        "repro/core/addfriend.py::AddFriendEngine.has_round_keys",
        "repro/mixnet/server.py::MixServer.has_round_key",
        "repro/cluster/shard.py::IngressProxy.buffered",
    ]),
    (ORACLE, "the wiring and worker-lifecycle checks: which endpoints and workers exist", [
        "repro/net/transport.py::Transport.endpoints",
        "repro/runtime/mp.py::MultiprocessTransport.worker_count",
        "repro/runtime/mp.py::MultiprocessTransport.remote_endpoints",
    ]),
    (ORACLE, "the fault injector the abort/requeue tests cut one link with", [
        "repro/net/links.py::NetworkTopology.partition",
        "repro/net/links.py::NetworkTopology.heal",
    ]),
    (ORACLE, "the looped batch default both backends override: the batch-equals-single-ops tests' reference", [
        "repro/crypto/engine.py::CryptoBackend.shared_secret_many",
    ]),
    (ORACLE, "value equality the round-trip and group-law tests compare with", [
        "repro/primitives/bloom.py::BloomFilter.__eq__",
        "repro/crypto/bn254/curve.py::G1Point.__eq__",
    ]),
    (ORACLE, "plain square-and-multiply: the final exponentiation's chain and bilinearity are checked against it", [
        "repro/crypto/bn254/field.py::fq12_pow",
    ]),
    (ABSTRACT, "ProtocolDriver: AddFriendDriver and DialingDriver", [
        f"repro/core/roundengine.py::ProtocolDriver.{name}" for name in (
            "allocate_round", "mailbox_count", "body_length", "round_duration", "submit_many",
            "submit_failed", "scan_many", "scan_missed")
    ]),
    (ABSTRACT, "AttestationScheme: bls and simulated", [
        f"repro/crypto/attestation.py::AttestationScheme.{name}" for name in (
            "attest", "to_bytes", "from_bytes", "aggregate", "aggregate_publics", "verify")
    ]),
    (ABSTRACT, "CryptoBackend: pure and accelerated", [
        f"repro/crypto/engine.py::CryptoBackend.{name}" for name in (
            "shared_secret", "public_key", "seal", "open_sealed",
            "ed25519_sign", "ed25519_verify", "ed25519_public_key")
    ]),
    (ABSTRACT, "IbeScheme: Boneh-Franklin and simulated (the ladder's IBE probe calls ciphertext_overhead)", [
        *(f"repro/crypto/ibe/interface.py::IbeScheme.{name}" for name in (
            "generate_master_keypair", "extract", "encrypt", "decrypt", "combine_master_publics",
            "combine_private_keys", "master_public_to_bytes", "master_public_from_bytes",
            "private_key_to_bytes", "private_key_from_bytes", "ciphertext_overhead")),
        "repro/crypto/ibe/simulated.py::SimulatedIbe.ciphertext_overhead",
    ]),
    (ABSTRACT, "Transport: direct, simulated, asyncio and mp", [
        f"repro/net/transport.py::Transport.{name}" for name in ("call", "now", "advance", "snapshot")
    ]),
    (ABSTRACT, "Field: every layout field type", ["repro/utils/serialization.py::Field.size"]),
    (DOCUMENTED, "run --dashboard (README, Live dashboard)", [
        *(f"repro/obs/dashboard.py::DashboardServer.{name}" for name in (
            "__init__", "start", "url", "stop", "publish", "_apply_to_state", "state", "subscribe",
            "unsubscribe", "request", "closed", "gate", "view")),
        *(f"repro/obs/dashboard.py::_DashboardHandler.{name}" for name in (
            "log_message", "_send_json", "do_GET", "do_POST", "_control", "_serve_events", "_write_event")),
    ]),
    (DOCUMENTED, "run --privacy-budget (README, Privacy observability)", [
        "repro/obs/privacy.py::budget_consistency",
    ]),
    (DOCUMENTED, "a bad flag exits 2 with one line on stderr", ["repro/sim/__main__.py::_Parser.error"]),
    (DOCUMENTED, "sweep shards --cdn-egress-mbps (README, Experiments)", [
        "repro/sim/experiments.py::post_submit",
        "repro/sim/experiments.py::_cdn_seed",
    ]),
]
KEEP: dict[str, tuple[str, str]] = {
    key: (kind, reason) for kind, reason, keys in _KEEP_GROUPS for key in keys
}


# ------------------------------------------------------------------- report


def report(result: Census) -> str:
    lines = ["class            functions   lines"]
    for cls, (count, nlines) in result.counts().items():
        lines.append(f"{cls:15s} {count:10d} {nlines:7d}")
    unreached = [f for f in result.functions if result.classes[f.key] != WORKLOAD]
    unexplained = [f for f in unreached if f.key not in KEEP]
    kept: dict[str, int] = {}
    for f in unreached:
        if f.key in KEEP:
            kept[KEEP[f.key][0]] = kept.get(KEEP[f.key][0], 0) + 1
    lines.append(f"kept with a reason: {sum(kept.values())} ("
                 + ", ".join(f"{n} {reason}" for reason, n in sorted(kept.items())) + ")")
    lines.append(f"unexplained: {len(unexplained)}")
    stale = sorted(set(KEEP) - {f.key for f in unreached})
    if stale:
        lines.append(f"reasons for functions that are reached or gone: {len(stale)}")
        lines += [f"  {key}" for key in stale]
    for f in unexplained:
        lines.append(f"  {result.classes[f.key]:12s} {f.lines:4d}  {f.key}")
    lines += [f"FAILED {line}" for line in result.failures]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", type=Path, help="write the classification here")
    args = parser.parse_args(argv)
    try:
        result = census(SOURCE, repo_populations())
    except SourceChanged as exc:
        print(f"FAILED {exc}")
        return 1
    print(report(result))
    if args.json:
        args.json.write_text(json.dumps({
            "counts": {cls: {"functions": n, "lines": lines} for cls, (n, lines) in result.counts().items()},
            "functions": {f.key: {"class": result.classes[f.key], "lines": f.lines,
                                  "populations": result.callers.get(f.key, [])}
                          for f in result.functions},
            "failures": result.failures,
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
