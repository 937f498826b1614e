"""What stays deleted: one table of the names consolidations removed.

    python tools/gone.py

Each row of :data:`ROWS` is one ``git grep`` over the tracked files: a POSIX
pattern (extended, or basic where ``ere`` is false), the pathspecs it scans
(``':!path'`` excludes), an optional ``allow`` pattern for hit lines that
stay legal, the CHANGES.md entry that deleted the name, what replaced it, and
one example ``(path, line)`` that the pattern must match.  The command prints
every hit under its row's message and exits 1 on any hit, else 0.
``tests/test_gone.py`` (tier-1) runs it on this checkout and runs every row
on its own example in a scratch repository, so a row that can no longer fire
fails there.

To add a row, append a ``Row`` with a ``(path, line)`` example of what
it forbids, at a path the row scans; for each ``':!'`` exclusion, the example
placed under the excluded path must not fire.  This file sits under no
pathspec a row scans, so a pattern needs no trick to keep from matching
itself (the bracketed last letters of the older rows are kept verbatim).
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Row(NamedTuple):
    pattern: str
    paths: tuple[str, ...]
    pr: str  # the CHANGES.md entry (or entries) that deleted the name
    replaced: str  # printed with every hit: what is back, and what to do instead
    example: tuple[str, str]  # (path, line) the pattern must match
    allow: str | None = None  # a hit line (path:number:text) this matches is allowed
    ere: bool = True


# benchmarks/ladder lists some deleted names as "explicitly not used", and only
# a change to the benchmark itself may edit it.
NOT_LADDER = ("src", "tests", "benchmarks", "examples", ":!benchmarks/ladder")
DOCS = ("src", "tests", "examples", "README.md")
BRING_UP = "a per-client registration leg is back: call register_clients (see README, Embedding the client)"
SECRETS = ("a second owner of round secrets is back: EntryServer alone opens, closes and aborts every "
           "server's round (see README, Round engine)")
WORKERS = ("a second worker start path, a worker handler thread pool or the clock-offset estimate is back: "
           "workers fork from the forkserver in repro.runtime.mp and serve inline on their own loop "
           "(see README, Real-runtime deployment)")
UNREACHED = ("a function no workload reached is back: run python3 tools/reachability.py and call what "
             "exists (see README, Reachability census)")

ROWS = (
    Row(r"batched_rounds|participate_(addfriend|dialing)_round|acquire_round_keys|wrap_for_mixnet|\.befriend\(|\.place_call\(",
        NOT_LADDER, "16", "a deleted round-path name is back",
        ("src/repro/core/coordinator.py", "    def participate_addfriend_round(self, round_number):")),
    Row(r"pickle|size_hint|SIZE_HINT|LocalObjectChannel|OBJ_(NONE|TOKEN|PICKLE)|\.obj\b|\bobj=",
        NOT_LADDER, "17", "the object channel is back (see docs/wire.md)",
        ("src/repro/net/transport.py", "        frame.size_hint = len(payload)")),
    Row(r"Packe[r]\(\)|Unpacke[r]\(", ("src",), "21",
        "a field-at-a-time codec is back in src/: declare a Message instead (see docs/wire.md)",
        ("src/repro/core/client.py", "        out = Packer()")),
    Row(r"(^|[^.[:alnum:]_])(exe[c]|compil[e])\(", ("src", ":!src/repro/utils/serialization.py"), "49",
        "generated code outside the wire table: only src/repro/utils/serialization.py may exec or compile",
        ("src/repro/core/roundengine.py", "    exec(source, namespace)")),
    Row(r"def (rea[d]|writ[e]|_tak[e])\(", ("src/repro/utils/serialization.py",), "49",
        "the field-by-field codec walk is back beside the compiled codec: a field emits source "
        "(emit_encode/emit_decode)",
        ("src/repro/utils/serialization.py", "    def read(self, data, offset):")),
    Row(r"def (en|de)cod[e]_", ("src", ":!src/repro/crypto", ":!src/repro/primitives"), "21",
        "a hand-written encode_/decode_ function is back: declare a Message and call MSG.encode/MSG.decode",
        ("src/repro/net/rpc.py", "def decode_submit(data: bytes):"),
        # wrappers that add a check on top of a declared layout, the stream length prefix
        allow=r"def (decode_(reply|mailbox|wire_length|envelope_batch|message|error)|"
              r"encode_(wire_message|envelope_batch|message|error))\("),
    Row(r"MetricsRegistr[y]|CryptoOpStat[s]|_collect_metric[s]|write_trace_output[s]|worker_metric[s]",
        NOT_LADDER, "22", "a second home for a run's facts is back: extend the record instead",
        ("src/repro/obs/record.py", "from repro.obs.metrics import MetricsRegistry")),
    Row(r"concurrent_call[s]|shared_transpor[t]|schedule_slotte[d]|FrameBatc[h]|_call_untime[d]|slotted_item[s]",
        ("src", "benchmarks", "examples", "README.md", ":!benchmarks/ladder"), "23",
        "a second delivery path or fan-out idiom is back: issue a call_batch wave",
        ("src/repro/net/simulated.py", "    def concurrent_calls(self, calls):")),
    Row(r"emit_tabl[e]|benchmark\.pedanti[c]|pytest_benchmar[k]|pkg_fanou[t]|_drive_roun[d]",
        ("src", "tests", "benchmarks", "examples", "README.md", ".github", ":!benchmarks/ladder"), "24",
        "a deleted harness, knob or driver is back: add a Section to the paper declaration, or a ladder probe",
        ("src/repro/sim/paper.py", "from repro.sim.reporting import emit_table")),
    Row(r"ShardRoute[r]|cluster/route[r]|deployment\.cluste[r]|_build_shard_tie[r]|bloom_false_positive_rat[e]|"
        r"require_rate_token[s]|rate_tokens_per_da[y]|rate_limit_verifie[r]|RateLimitErro[r]|TokenVerifie[r]|"
        r"RateToke[n]|SUBMIT_RATE_LIMITE[D]|crypto import blin[d]",
        DOCS + (".github",), "25, 42",
        "a second round control plane, a dead config knob or the deleted rate-token extension is back: "
        "extend EntryServer or its front (see README, Sharded entry/CDN tier)",
        ("src/repro/core/config.py", "    rate_tokens_per_day: int = 10")),
    Row(r"EntryStu[b]|entry_stu[b]|ANNOUNCE_REQUES[T]|ANNOUNCE_RESPONS[E]|ROUND_COUNT[S]|COUNT_REPL[Y]|"
        r"control_sr[c]|driver_sr[c]|round_summarie[s]|events_by_clien[t]|drop_all_nois[e]",
        DOCS, "44",
        "a second way to reach the entry server or a write-only round record is back: call Deployment.entry "
        "directly (see README, Sharded entry/CDN tier)",
        ("src/repro/core/coordinator.py", "        self.entry_stub = EntryStub(self.transport)")),
    Row(r"CallbackBridg[e]|core\.callback[s]|callbacks\.ta[p]|new_friend=|incoming_call=|SessionRegistr[y]|"
        r"add_ta[p]|friend_requests_see[n]|repro\.benc[h]",
        DOCS, "26",
        "a second client API surface is back: extend ClientSession instead (see README, Embedding the client)",
        ("src/repro/api/session.py", "class SessionRegistry:")),
    Row(r"_registration_le[g]|startswith\(pkg\.nam[e]", DOCS, "27", BRING_UP,
        ("src/repro/core/client.py", "    def _registration_leg(self, pkg):")),
    Row("registration_call(", ("src", ":!src/repro/core/client.py", ":!src/repro/net/rpc.py"), "27", BRING_UP,
        ("src/repro/core/coordinator.py", "        reply = registration_call(stub, email)"), ere=False),
    Row("create_client(", ("src/repro/sim",), "27",
        "a create_client loop is back in src/repro/sim: bring clients up with Deployment.create_clients",
        ("src/repro/sim/scenario.py", "            deployment.create_client(email)"), ere=False),
    Row(r'ParallelBacken[d]|_parallel_worker_ini[t]|register_backend\("paralle[l]"|crypto_le[g]|max_retrie[s]|'
        r"retry_backoff_[s]|_retry_wai[t]",
        DOCS + (".github",), "28",
        "a third crypto backend or the call retry layer is back: use runtime=mp for multi-core mix work "
        "(see README, Choosing a crypto backend)",
        ("src/repro/crypto/engine.py", "class ParallelBackend(CryptoBackend):")),
    Row(r"BaselineScenari[o]|ShardedEntryScenari[o]|PassiveObserver(Idle)?Scenari[o]|MegacityScenari[o]|"
        r"MetropolisScenari[o]|PipelinedRoundsScenari[o]|ClientChurnScenari[o]|StragglerMixScenari[o]|"
        r"PkgFailureScenari[o]|FlashCrowdScenari[o]|GeoDistributedScenari[o]|requires_simulated_networ[k]|"
        r"class \w+\(Scenari[o]\)|def after_roun[d]|--mp-worker[s]|spec\.redial_attempt[s]|spec\.server_lin[k]",
        DOCS + (".github",), "30, 34",
        "a Scenario subclass, its runtime flag, the after_round hook or a deleted ScenarioSpec field is back: "
        "state it as a SCENARIOS row, faults as ScenarioSpec.faults (see src/repro/sim/scenarios.py)",
        ("src/repro/sim/scenarios.py", "class ChurnScenario(Scenario):")),
    Row(r"\.monitor[s]\b|_notif[y]\(|def on_star[t]|def before_roun[d]|DashboardMonito[r]|EventLogMonito[r]|"
        r"PassiveObserver\(",
        DOCS, "41",
        "a monitor hook is back: a live view is a view(kind, item) callable in Scenario.views "
        "(see src/repro/sim/scenario.py)",
        ("src/repro/sim/scenario.py", "        for monitor in self.monitors:")),
    Row(r"confirm_sen[t]|requeue_las[t]|revoke_submissio[n]|submit_revoke[d]|_submission_revoke[d]|"
        r"def round_aborte[d]|driver\.round_aborte[d]|_last_sen[t]|request_requeue[d]|call_requeue[d]",
        DOCS, "43",
        "a second submission outcome or undo is back: decide the client in RoundEngine.submit and undo with "
        "the engine's requeue (see README, Round engine)",
        ("src/repro/core/roundengine.py", "    def round_aborted(self, round_number):")),
    Row(r"PkgCoordinato[r]|RoundMasterKey[s]|commit_to_public_ke[y]|pkg_coordinato[r]|after_sca[n]\b",
        DOCS, "45", SECRETS,
        ("src/repro/core/coordinator.py", "        self.pkg_coordinator = PkgCoordinator(self.pkgs)")),
    Row(r"abort_roun[d]", ("src/repro/core/roundengine.py",), "45", SECRETS,
        ("src/repro/core/roundengine.py", "        self.entry.abort_round(protocol, round_number)")),
    Row(r'get_context\("(spaw[n]|for[k])"\)|estimate_clock_offse[t]|_PING_SAMPLE[S]|clock_offset_[s]',
        ("src",), "46", WORKERS,
        ("src/repro/runtime/mp.py", '    context = multiprocessing.get_context("spawn")')),
    Row(r"ThreadPoolExecuto[r]", ("src/repro/runtime/mp.py",), "48", WORKERS,
        ("src/repro/runtime/mp.py", "from concurrent.futures import ThreadPoolExecutor")),
    Row(r"def (measured_pytho[n]|this_implementatio[n]|current_announcemen[t]|round_public_key[s]|shard_coun[t]|"
        r"shard_load[s]|shard_o[f]|constant_time_equa[l]|int_to_byte[s]|bytes_to_in[t]|verify_stric[t]|"
        r"public_(to|from)_byte[s]|chacha20_(en|de)cryp[t]|poly1305_verif[y]|adversary_read_inbo[x]|"
        r"onion_overhea[d]|unwrap_laye[r]|fq2_sqr[t]|fill_rati[o]|bits_per_elemen[t]|wire_vie[w]|"
        r"is_registere[d]|pending_coun[t])\(|^chacha20_decryp[t] =|^class LaplaceNois[e]\b",
        ("src",), "32", UNREACHED,
        ("src/repro/utils/bytes.py", "def constant_time_equal(a: bytes, b: bytes) -> bool:")),
    # Names common enough to be reused elsewhere are matched in their old file only.
    Row(r"def (scale[d]|choic[e]|hexlif[y]|wire_siz[e]|las[t]|stag[e]|generate_keypai[r]|_point_equa[l])\(",
        ("src/repro/mixnet/noise.py", "src/repro/utils/rng.py", "src/repro/utils/bytes.py",
         "src/repro/core/friendrequest.py", "src/repro/api/events.py", "src/repro/obs/trace.py",
         "src/repro/crypto/ed25519.py", "src/repro/crypto/x25519.py"),
        "32, 37", UNREACHED,
        ("src/repro/utils/rng.py", "    def choice(self, items):")),
    Row(r"def submi[t]\(|def round_public_ke[y]\(self, round_number", ("src/repro/net/rpc.py",), "32",
        "EntryStub.submit or PkgStub.round_public_key is back: submit_many is the one submit path, "
        "open_round returns the PKG key",
        ("src/repro/net/rpc.py", "    def submit(self, client, envelope):")),
    Row(r"addfriend_retry_horizo[n]|addfriend_round_duratio[n]|dialing_round_duratio[n]|self\.target_per_mailbo[x]",
        DOCS, "33",
        "a deployment knob is copied or pinned outside AlpenhornConfig again: set it on ScenarioSpec.config "
        "(see README, Scenario harness)",
        ("src/repro/core/config.py", "    addfriend_round_duration: float = 60.0")),
    Row(r"active_trace[r]|repro\.obs\.trac[e]",
        ("src/repro/core", "src/repro/net", "src/repro/mixnet", "src/repro/entry", "src/repro/cluster"), "35",
        "a protocol tier calls the tracer again: wrap its public seam in src/repro/obs/instrument.py instead",
        ("src/repro/core/roundengine.py", "from repro.obs.trace import active_tracer")),
    Row(r"NullTrace[r]|NULL_SPA[N]|_NullSpa[n]", ("src", "tests", "examples"), "35",
        "the null tracer is back: with tracing off, active_tracer() returns None",
        ("src/repro/obs/trace.py", "class NullTracer:")),
    Row(r"--swee[p]-|run_(shard|fidelity|runtime|crypto|privacy)_swee[p]|emit_[a-z]+_repor[t]|append_histor[y]|"
        r"repro\.bench\.histor[y]",
        ("src", "tests", "benchmarks", "examples", "README.md", ".github", ".claude"), "20",
        "a deleted sweep-family name is back: declare an experiment in src/repro/sim/experiments.py",
        ("src/repro/sim/__main__.py", '    parser.add_argument("--sweep-clients", default="100")')),
    Row("ignored with", ("src/repro/sim/__main__.py",), "20",
        "a flag that another flag overrides is back: a flag lives on the one subcommand that reads it",
        ("src/repro/sim/__main__.py", '        print("--trace ignored with sweep", file=sys.stderr)')),
    Row(r"^class Fq6\b", ("src",), "18",
        "a second field tower is back under src/ (the object tower lives in tests/textbook_crypto.py only)",
        ("src/repro/crypto/bn254/field.py", "class Fq6:")),
    Row("_P - 2", ("src/repro/crypto/bn254",), "18", "a Fermat inversion is back in crypto/bn254 (use fq_inv)",
        ("src/repro/crypto/bn254/field.py", "    return pow(value, _P - 2, _P)"), ere=False),
    Row("bin(scala[r])", ("src/repro/crypto/bn254",), "38",
        "a one-bit scalar chain is back in crypto/bn254 (use _signed_digits)",
        ("src/repro/crypto/bn254/curve.py", "    for bit in bin(scalar)[3:]:"), ere=False),
)


def hits(row: Row, root: Path = ROOT) -> list[str]:
    """The ``path:number:text`` lines of ``root``'s tracked files that ``row`` forbids."""
    done = subprocess.run(
        ["git", "grep", "-nE" if row.ere else "-nG", "-e", row.pattern, "--", *row.paths],
        cwd=root, capture_output=True, encoding="utf-8", errors="replace",
    )
    if done.returncode > 1:  # 1 is "no match"; anything above is a broken pattern or no repository
        raise RuntimeError(f"git grep {row.pattern!r} failed: {done.stderr.strip()}")
    return [line for line in done.stdout.splitlines() if not (row.allow and re.search(row.allow, line))]


def main() -> int:
    found = 0
    for row in ROWS:
        for line in hits(row):
            print(f"{line}\n    {row.replaced} (deleted in PR {row.pr}, see CHANGES.md)")
            found += 1
    print(f"{len(ROWS)} rows, {found} hits")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
