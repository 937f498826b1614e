"""The experiment engine, its seven declarations, and the CLI derived from
``ScenarioSpec``.

``experiment_vectors.json`` holds the deterministic values the six
hand-rolled sweep families produced at the last commit that had them, and
``paper_vectors.json`` those of the eleven ``benchmarks/bench_*.py`` files the
``paper`` declaration replaced; every declaration is held to them exactly
(wall-clock columns and real-runtime stage times are not pinned).
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
import shutil
from pathlib import Path

import pytest

from repro.core.config import AlpenhornConfig
from repro.errors import ConfigurationError
from repro.obs.record import SCHEMA, read_json_report, validate_record
from repro.sim.__main__ import build_parser, flag_parsers, main
from repro.sim.experiment import Axis, Column, Experiment, Section, emit_record, run_experiment
from repro.sim.experiments import EXPERIMENTS
from repro.sim.paper import NEAR_PAPER, PAPER
from repro.sim.scenario import SPEC_FIELDS, ScenarioSpec, with_overrides
from repro.sim.scenarios import run_scenario

REPO = Path(__file__).resolve().parents[1]
VECTORS = json.loads((Path(__file__).parent / "experiment_vectors.json").read_text())
PAPER_VECTORS = json.loads((Path(__file__).parent / "paper_vectors.json").read_text())


@pytest.fixture
def results(tmp_path, monkeypatch):
    """Where BENCH_*.json lands for this test."""
    monkeypatch.setenv("BENCH_RESULTS_DIR", str(tmp_path))
    return tmp_path


def with_workload(experiment: Experiment, key: str, **workload) -> Experiment:
    """``experiment`` with one section's fixed workload shrunk to test size."""
    sections = tuple(
        dataclasses.replace(s, workload={**s.workload, **workload}) if s.key == key else s
        for s in experiment.sections
    )
    return dataclasses.replace(experiment, sections=sections)


def assert_pinned(points: list[dict], pinned: list[dict]) -> None:
    assert len(points) == len(pinned)
    for point, expected in zip(points, pinned):
        for key, value in expected.items():
            if key == "total_bytes" and key not in point:
                assert point["result"]["total_bytes_sent"] == value, (key, expected)
            else:
                assert point[key] == value, (key, expected)


def read_record(results: Path, name: str) -> dict:
    record = read_json_report(results / f"BENCH_{name}.json")
    assert record["name"] == name and record["schema"] == SCHEMA
    assert set(record["environment"]) == {"git_sha", "python", "cryptography", "platform", "nproc"}
    assert set(record["axes"]) == set(record["data"])
    return record


# --------------------------------------------------------------------------- #
# The six declarations reproduce the parent commit's numbers
# --------------------------------------------------------------------------- #
class TestPinnedNumbers:
    def test_pipelining(self, results):
        pinned = VECTORS["pipelining"]
        experiment = with_workload(
            EXPERIMENTS["pipelining"], "retry", num_clients=10, friend_pairs=3, addfriend_rounds=4
        )
        record = run_experiment(
            experiment,
            dict(num_clients=[8], latency_ms=[20.0, 60.0], retry_horizon=[None, 1],
                 addfriend_rounds=1, dialing_rounds=2, friend_pairs=2, seed="t-sweep"),
        )
        data = record["data"]
        for key in ("grid", "retry"):
            assert_pinned(data[key]["points"], pinned[key])
        # the fixed workloads won over --addfriend-rounds 1 / --friend-pairs 2
        assert [p["requests"] for p in data["retry"]["points"]] == [3, 3]
        pipelined = [p for p in data["grid"]["points"] if p["pipelined"]]
        assert len(pipelined) == 2 and all(p["dialing_speedup"] > 1.2 for p in pipelined)
        assert record["axes"]["retry"] == {"retry_horizon": [None, 1]}
        assert record["failed_checks"] == []
        for section in data.values():
            assert all(len(row) == len(section["headers"]) for row in section["rows"])

    def test_shards(self, results):
        pinned = VECTORS["shards"]
        record = run_experiment(
            EXPERIMENTS["shards"],
            dict(entry_shards=[1, 2], zipf_alpha=[0.0, 1.2], ingress_batch_size=[1, 16],
                 cdn_egress_mbps=[0.0, 1.0], num_clients=8, friend_pairs=2,
                 addfriend_rounds=1, dialing_rounds=0, seed="t-shards"),
        )
        data = record["data"]
        for key in ("grid", "batching", "cdn_egress"):
            assert_pinned(data[key]["points"], pinned[key])
        # 1 shard x skew is skipped; batching runs at the largest shard count only
        assert [(p["entry_shards"], p["zipf_alpha"]) for p in data["grid"]["points"]] == [
            (1, 0.0), (2, 0.0), (2, 1.2),
        ]
        assert {p["entry_shards"] for p in data["batching"]["points"]} == {2}
        assert (
            data["grid"]["submit_stage_speedup_at_max_shards"]
            == pinned["submit_stage_speedup_at_max_shards"]
        )
        # the column says what it holds: latency - submit is mix *and* scan
        assert "af mix+scan s" in data["cdn_egress"]["headers"]

    def test_shards_cdn_section_is_off_by_default(self):
        section = next(s for s in EXPERIMENTS["shards"].sections if s.key == "cdn_egress")
        assert section.axes[0].values == ()

    def test_fidelity_through_the_cli(self, results, capsys):
        pinned = VECTORS["fidelity"]
        status = main(["sweep", "fidelity", "--num-clients", "12", "--friend-pairs", "3",
                       "--addfriend-rounds", "1", "--dialing-rounds", "2", "--seed", "t-fsweep"])
        assert status == 0
        record = read_record(results, "fidelity")
        assert record["seed"] == "t-fsweep"
        assert record["axes"]["grid"] == {"num_clients": [12], "fidelity": ["slotted", "fluid"]}
        grid = record["data"]["grid"]
        assert_pinned(grid["points"], pinned["grid"])
        slotted, fluid = grid["points"]
        assert (slotted["latency_divergence"], slotted["delivery_divergence"]) == (None, None)
        assert fluid["delivery_divergence"] == 0
        assert 0.0 < grid["max_fluid_latency_divergence"] < 0.5
        assert grid["max_fluid_latency_divergence"] == pinned["max_fluid_latency_divergence"]
        assert set(grid["wall_seconds_by_fidelity"]) == {"slotted", "fluid"}
        out = capsys.readouterr().out
        assert "simulator-core fidelity" in out and "BENCH_fidelity.json" in out

    def test_crypto(self, results, monkeypatch):
        import repro.sim.experiments as declarations

        monkeypatch.setattr(
            declarations, "backend_available", lambda name: name != "accelerated"
        )
        record = run_experiment(
            EXPERIMENTS["crypto"],
            dict(crypto_backend=["pure", "accelerated"], num_clients=[8],
                 friend_pairs=2, seed="t-crypto"),
        )
        data = record["data"]
        assert_pinned(data["grid"]["points"], VECTORS["crypto"]["grid"])
        # registered but unavailable: skipped and recorded, in every section
        assert data["per_op"]["skipped"] == {"crypto_backend": ["accelerated"]}
        assert data["grid"]["skipped"] == {"crypto_backend": ["accelerated"]}
        assert record["axes"]["grid"]["crypto_backend"] == ["pure"]
        per_op = data["per_op"]["points"][0]
        assert per_op["crypto_backend"] == "pure" and per_op["seal_us"] > 0
        assert per_op["shared_secret_many_us_per_op"] > 0
        assert data["per_op"]["aead_seal_speedup_accelerated_vs_pure"] == 0.0
        assert data["grid"]["max_completed_clients"] == 8

    def test_unregistered_backend_is_an_error_in_every_backend_axis(self):
        # ... and before anything runs; ``crypto`` is the one backend axis
        with pytest.raises(ConfigurationError, match="unknown crypto backend 'rot13'"):
            run_experiment(EXPERIMENTS["crypto"], dict(crypto_backend=["pure", "rot13"]))

    def test_runtime_through_the_cli(self, results, capsys):
        pinned = VECTORS["runtime"]
        status = main(["sweep", "runtime", "--runtime", "sim,asyncio", "--num-clients", "8",
                       "--crypto-backend", "pure", "--seed", "t-rsweep", "--friend-pairs", "2",
                       "--addfriend-rounds", "2", "--dialing-rounds", "1"])
        assert status == 0
        record = read_record(results, "runtime")
        assert record["failed_checks"] == []
        grid = record["data"]["grid"]
        assert [p["runtime"] for p in grid["points"]] == ["sim", "asyncio"]
        assert_pinned(grid["points"], pinned["grid"])
        assert grid["parity_ok"] is True and grid["points"][1]["parity"] is True
        assert grid["points"][0]["friendships"] > 0
        assert "deployment runtimes" in capsys.readouterr().out

    def test_unknown_runtime_rejected(self, results, capsys):
        status = main(["sweep", "runtime", "--runtime", "smoke-signals", "--num-clients", "8"])
        assert status == 2
        assert "unknown runtime" in capsys.readouterr().err

    def test_privacy_record_validates(self, results):
        experiment = with_workload(EXPERIMENTS["privacy"], "audit", num_clients=8)
        record = run_experiment(
            experiment,
            dict(noise_b=[0.05], privacy_trials=[4], num_clients=8,
                 addfriend_rounds=2, dialing_rounds=0),
        )
        audit = record["data"]["audit"]
        assert_pinned(audit["points"], VECTORS["privacy"]["audit"])
        assert audit["all_within_bound"] is VECTORS["privacy"]["all_within_bound"] is True
        # eps = 2/0.05 = 40: the bound visibly degrades to ~1.
        assert audit["points"][0]["advantage_bound"] > 0.99
        assert audit["points"][0]["trials_per_arm"] == 4
        assert audit["rows"][0][0] == "0.05" and audit["rows"][0][-1] == "yes"
        assert record["data"]["ledger"]["protocols"]["add-friend"]["rounds"] == 2

        emit_record(record)
        assert validate_record(read_record(results, "privacy")) == []

    def test_privacy_audit_needs_four_trials(self, results, capsys):
        assert main(["sweep", "privacy", "--privacy-trials", "3"]) == 2
        assert "at least 4 paired trials" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# Section 8 of the paper: the seventh declaration
# --------------------------------------------------------------------------- #
def only(experiment: Experiment, *keys: str) -> Experiment:
    """``experiment`` cut down to the named sections (the same Section objects)."""
    return dataclasses.replace(
        experiment, sections=tuple(s for s in experiment.sections if s.key in keys)
    )


MODELLED = ("fig6", "fig7", "fig8", "fig9", "fig10", "skew_sizes", "mailboxes", "dp",
            "ibe_strength", "bloom", "mailbox_policy")


class TestPaperDeclaration:
    @pytest.fixture(scope="class")
    def record(self):
        return run_experiment(EXPERIMENTS["paper"])

    def test_every_number_of_the_deleted_benchmark_files(self, record):
        checked = 0
        for key, pinned in PAPER_VECTORS.items():
            if key == "_about":
                continue
            section, axes = record["data"][key], pinned["axes"]
            assert section["headers"][: len(axes)] == axes
            rows = {
                tuple(row[: len(axes)]): dict(zip(section["headers"], row))
                for row in section["rows"]
            }
            assert len(rows) == len(pinned["rows"]), key  # the deleted file's grid is the default
            for expected in pinned["rows"]:
                row = rows[tuple(expected[name] for name in axes)]
                for header in expected.keys() - set(axes):
                    assert row[header] == expected[header], (key, expected, header)
                    checked += 1
        assert checked == 379 and f"{checked} values" in PAPER_VECTORS["_about"]
        assert record["failed_checks"] == []

    def test_the_paper_column_is_the_one_table(self, record):
        quoted = {}
        for key, section in record["data"].items():
            for point in section["points"]:
                if point.get("paper") is not None:
                    quoted[(key, *(point[name] for name in record["axes"][key]))] = point["paper"]
        assert quoted == {
            at: ", ".join(quote for _, quote, _, _ in quotes) for at, quotes in PAPER.items()
        }
        fig8 = record["data"]["fig8"]
        assert fig8["headers"][-1] == "paper"
        assert [row[-1] for row in fig8["rows"]].count("-") == len(fig8["rows"]) - 1

    def test_measured_sections_report_and_pin_only_the_exact_part(self, record):
        anytrust, extraction = record["data"]["anytrust"], record["data"]["extraction"]
        assert all(p["anytrust_ms"] > 0 and p["onion_ms"] > 0 for p in anytrust["points"])
        assert [p["pkgs"] for p in extraction["points"]] == [3, 10]
        assert all(p["median_ms"] > 0 for p in extraction["points"])
        # reported beside the paper's 4.9 / 5.2 ms, held to no window
        assert not any(message == NEAR_PAPER for message, _ in
                       next(s for s in EXPERIMENTS["paper"].sections if s.key == "extraction").checks)

    def test_the_record_is_one_schema_3_envelope(self, record, results):
        emit_record(record)
        assert [p.name for p in results.iterdir()] == ["BENCH_paper.json"]
        assert validate_record(read_record(results, "paper")) == []

    def test_a_check_can_fail(self, results, monkeypatch, capsys):
        """The model's 130.6 s outside a narrowed window around the paper's 152 s."""
        monkeypatch.setitem(EXPERIMENTS, "paper", only(EXPERIMENTS["paper"], "fig8"))
        assert main(["sweep", "paper"]) == 0
        monkeypatch.setitem(PAPER, ("fig8", 3, 10_000_000), (("total_s", "152 s", 140, 160),))
        assert main(["sweep", "paper"]) == 1
        assert f"check FAILED -- fig8: {NEAR_PAPER}" in capsys.readouterr().err
        assert read_record(results, "paper")["failed_checks"] == [f"fig8: {NEAR_PAPER}"]

    def test_an_override_that_drops_a_checked_point_holds_vacuously(self, results, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "paper", only(EXPERIMENTS["paper"], *MODELLED))
        status = main(["sweep", "paper", "--users", "1000000", "--servers", "3,5", "--zipf-s", "1",
                       "--ibe-factor", "2,4", "--mailboxes", "8,2", "--protocol", "dialing"])
        assert status == 0
        record = read_record(results, "paper")
        assert record["axes"]["fig8"] == {"servers": [3, 5], "users": [1000000]}
        assert record["axes"]["fig6"]["users"] == [1000000]
        assert all(p["paper"] is None for p in record["data"]["fig8"]["points"])
        assert record["data"]["mailboxes"]["points"][0]["paper"] == "7.4 MB"


# --------------------------------------------------------------------------- #
# The engine, on a throw-away declaration (no scenario runs)
# --------------------------------------------------------------------------- #
def toy_experiment(check=lambda points, axes: True) -> Experiment:
    """Two sections over a fake runner that echoes the overrides it was given."""
    echo = Column("doubled", "2x", lambda r, ref: 2 * r["num_clients"])
    against = Column("vs", "vs ref", lambda r, ref: ref and r["num_clients"] / ref["num_clients"], "{:.1f}x")
    return Experiment(
        name="toy",
        description="a throw-away declaration",
        scenario="baseline",
        seed="toy-seed",
        defaults=dict(addfriend_rounds=7, dialing_rounds=7),
        sections=(
            Section(
                key="grid",
                title="toy grid",
                axes=(
                    Axis("num_clients", (2, 4)),
                    Axis("scale", (1,), apply=lambda n: {"friend_pairs": n}, parse=int),
                ),
                workload=dict(dialing_rounds=0),
                seed="{seed}/c{num_clients}",
                reference={"num_clients": 2},
                run=lambda scenario, **spec: dict(spec, scenario=scenario),
                columns=(echo, against),
                summary=lambda points: {"largest": max(p["num_clients"] for p in points)},
                checks=(("the toy invariant", check),),
            ),
            Section(
                key="backends",
                title="toy backends",
                axes=(Axis("crypto_backend", ("pure", "broken"), admit=lambda v: v != "broken"),),
                run=lambda scenario, **spec: dict(spec),
                columns=(Column("backend", "engine", lambda r, ref: r["crypto_backend"]),),
            ),
        ),
    )


class TestEngine:
    def test_a_seventh_experiment_is_one_declaration(self, results, monkeypatch, capsys):
        monkeypatch.setitem(EXPERIMENTS, "toy", toy_experiment())
        status = main(["sweep", "toy", "--num-clients", "3,6", "--scale", "5",
                       "--addfriend-rounds", "1", "--dialing-rounds", "9"])
        assert status == 0
        record = read_record(results, "toy")
        grid = record["data"]["grid"]
        assert record["axes"]["grid"] == {"num_clients": [3, 6], "scale": [5]}
        assert [p["doubled"] for p in grid["points"]] == [6, 12]
        # derived axis applied; caller beats defaults; the fixed workload beats the caller
        assert all(p["friend_pairs"] == 5 for p in grid["points"])
        assert all(p["addfriend_rounds"] == 1 and p["dialing_rounds"] == 0 for p in grid["points"])
        assert [p["seed"] for p in grid["points"]] == ["toy-seed/c3", "toy-seed/c6"]
        assert grid["largest"] == 6 and grid["headers"] == ["num_clients", "scale", "2x", "vs ref"]
        # reference {"num_clients": 2} is not on this grid
        assert [p["vs"] for p in grid["points"]] == [None, None]
        assert record["data"]["backends"]["skipped"] == {"crypto_backend": ["broken"]}
        assert "toy grid" in capsys.readouterr().out

    def test_reference_and_seed(self):
        record = run_experiment(toy_experiment(), dict(seed="mine"))
        first, second = record["data"]["grid"]["points"]
        assert (first["vs"], second["vs"]) == (None, 2.0)  # None marks the reference itself
        assert record["data"]["grid"]["rows"][0][-1] == "-"
        assert (first["seed"], second["seed"]) == ("mine/c2", "mine/c4")
        assert record["seed"] == "mine"
        # a section without a template hands the caller's seed through
        assert record["data"]["backends"]["points"][0]["seed"] == "mine"
        assert "seed" not in run_experiment(toy_experiment())["data"]["backends"]["points"][0]

    def test_failed_check_exits_one_and_still_writes_the_record(self, results, monkeypatch, capsys):
        monkeypatch.setitem(EXPERIMENTS, "toy", toy_experiment(check=lambda points, axes: False))
        assert main(["sweep", "toy"]) == 1
        assert read_record(results, "toy")["failed_checks"] == ["grid: the toy invariant"]
        assert "check FAILED -- grid: the toy invariant" in capsys.readouterr().err

    def test_an_empty_axis_switches_its_section_off(self):
        record = run_experiment(toy_experiment(), dict(num_clients=[]))
        assert record["data"]["grid"]["points"] == [] and "largest" not in record["data"]["grid"]
        assert len(record["data"]["backends"]["points"]) == 1

    def test_unknown_override_is_rejected(self):
        with pytest.raises(ConfigurationError, match="no axis or ScenarioSpec field named bogus"):
            run_experiment(toy_experiment(), dict(bogus=1))
        # another experiment's derived axis is not this one's
        with pytest.raises(ConfigurationError, match="latency_ms"):
            run_experiment(toy_experiment(), dict(latency_ms=[40.0]))


# --------------------------------------------------------------------------- #
# The CLI
# --------------------------------------------------------------------------- #
class TestCli:
    KW = dict(num_clients=8, addfriend_rounds=1, dialing_rounds=1, seed="t-cli")

    def test_list_names_every_scenario_and_declaration(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for line in ("baseline", "sharded_entry", "run NAME", "sweep NAME"):
            assert line in out
        for experiment in EXPERIMENTS.values():
            for line in experiment.describe():
                assert line in out

    def test_run_writes_the_scenario_result(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        status = main(["run", "baseline", "--num-clients", "8", "--addfriend-rounds", "1",
                       "--dialing-rounds", "1", "--seed", "t-cli", "--json", str(path)])
        assert status == 0
        written = read_json_report(path)
        assert written["schema"] == SCHEMA and written["seed"] == "t-cli"
        assert written["spec"]["num_clients"] == 8 and "git_sha" in written["environment"]
        expected = json.loads(json.dumps(run_scenario("baseline", **self.KW).to_dict()))
        for report in (written["data"], expected):
            report.pop("wall_seconds")
        assert written["data"] == expected
        out = capsys.readouterr().out
        assert "scenario baseline: 8 clients" in out and "privacy spend" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "no_such_scenario"], "unknown scenario 'no_such_scenario'"),
            (["sweep", "no_such_experiment"], "unknown experiment 'no_such_experiment'"),
            (["run", "baseline", "--no-such-field", "3"], "unrecognized arguments: --no-such-field"),
            (["sweep", "fidelity", "--latency-ms", "40"], "no axis or ScenarioSpec field named latency_ms"),
            (["sweep", "fidelity", "--num-clients", "8,many"], "--num-clients: expected int, got 'many'"),
            (["sweep", "fidelity", "--friend-pairs", "2,3"], "--friend-pairs: expected int or none"),
            (["run", "baseline", "--pipelined", "maybe"], "--pipelined: expected bool"),
            (["run", "baseline", "--latency-ms", "40"], "unrecognized arguments"),
            (["run", "baseline", "--retry-horizon", "0"], "retry_horizon must be >= 1"),
            (["run", "straggler_mix", "--runtime", "asyncio", "--num-clients", "8"], "cannot run with runtime"),
            (["frobnicate"], "invalid choice"),
            (["run", "sharded_entry", "--zipf-alpha", "1", "--fixed-mailbox-count", "none"],
             "zipf_alpha > 0 needs fixed_mailbox_count"),
            (["run", "pkg_failure", "--num-pkg-servers", "1"], "partition fault names pkg1"),
        ],
    )
    def test_bad_command_lines_exit_two_with_one_line(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_the_papers_variance_free_setting_runs_and_is_recorded_unprotected(
        self, tmp_path, results, capsys
    ):
        """Section 8: "b = 0 to reduce variance".  The ledger used to die on it."""
        argv = ["run", "baseline", "--num-clients", "8", "--addfriend-rounds", "1",
                "--dialing-rounds", "1", "--seed", "t-cli", "--noise-b"]
        assert main([*argv, "0", "--trace", str(tmp_path / "trace.json")]) == 0
        out = capsys.readouterr().out
        assert "eps=inf" in out and "UNPROTECTED" in out
        # a traced run without --json: its one record is BENCH_run.json
        assert sorted(p.name for p in results.iterdir()) == ["BENCH_run.json", "trace.json", "trace.jsonl"]
        report = read_json_report(results / "BENCH_run.json")
        assert validate_record(report) == []
        rounds = report["data"]["privacy"]["rounds"]
        assert rounds and all(
            row["epsilon_round"] == math.inf and "unprotected" in row for row in rounds
        )
        # The validator takes an infinite epsilon only from a record that says b = 0 ...
        for row in rounds:
            row["laplace_scale"] = 1.0
        assert len(validate_record(report)) >= len(rounds)
        # ... and a negative scale never runs.
        assert main([*argv, "-1"]) == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_optional_int_takes_none(self):
        args = build_parser().parse_args(
            ["run", "client_churn", "--retry-horizon", "none", "--pipelined", "on"]
        )
        parsers = flag_parsers()
        assert parsers["retry_horizon"](args.retry_horizon) is None
        assert parsers["pipelined"](args.pipelined) is True

    def test_every_scalar_spec_field_has_a_flag_that_round_trips(self):
        """A new ScenarioSpec or AlpenhornConfig field can never again need a
        hand-written flag."""
        samples = {"int": ("7", 7), "float": ("0.25", 0.25), "str": ("x-y", "x-y"),
                   "bool": ("on", True)}
        # a config backend is validated on override: sample a registered one
        samples.update({name: (value, value) for name, value in (
            ("ibe_backend", "bn254"), ("crypto_backend", "accelerated"),
            ("attestation_backend", "bls"))})
        parsers = flag_parsers()
        checked = 0
        every_field = dataclasses.fields(ScenarioSpec) + dataclasses.fields(AlpenhornConfig)
        for f in every_field:
            name, (kind, _, rest) = f.name, f.type.partition(" | ")
            if kind in ("LinkSpec", "NoiseConfig", "AlpenhornConfig", "tuple[Fault, ...]"):
                continue  # links, noise, the config itself and the faults stay flagless
            text, value = samples.get(name, samples[kind])
            flag = "--" + name.replace("_", "-")
            for command in (["run", "baseline"], ["sweep", "fidelity"]):
                args = build_parser().parse_args(command + [flag, text])
                spec = with_overrides(ScenarioSpec(), **{name: parsers[name](getattr(args, name))})
                assert getattr(spec if name in SPEC_FIELDS else spec.config, name) == value
            if rest == "None":
                assert parsers[name]("none") is None
            checked += 1
        assert checked == len(every_field) - 4 == 29  # client_link, config, noise, faults

    def test_hand_written_arguments_stay_few(self):
        source = (REPO / "src/repro/sim/__main__.py").read_text()
        assert source.count("add_argument(") <= 10
        assert "--" + "sweep-" not in source and "ignored with" not in source


# --------------------------------------------------------------------------- #
# reporting.results_dir, README
# --------------------------------------------------------------------------- #
def load_copy(path: Path):
    spec = importlib.util.spec_from_file_location("record_copy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestResultsDir:
    SOURCE = REPO / "src/repro/obs/record.py"

    def test_an_installed_copy_writes_under_the_cwd(self, tmp_path, monkeypatch):
        installed = tmp_path / "prefix/lib/python3.11/site-packages/repro/obs"
        installed.mkdir(parents=True)
        shutil.copy(self.SOURCE, installed / "record.py")
        monkeypatch.delenv("BENCH_RESULTS_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        module = load_copy(installed / "record.py")
        assert module.results_dir() == tmp_path / "benchmarks" / "results"
        path = module.write_json_report("probe", {"x": 1})
        assert path == tmp_path / "benchmarks/results/BENCH_probe.json"
        assert not (tmp_path / "prefix/lib/python3.11/benchmarks").exists()

    def test_a_checkout_copy_anchors_on_the_checkout(self, tmp_path, monkeypatch):
        checkout = tmp_path / "checkout"
        package = checkout / "src/repro/obs"
        package.mkdir(parents=True)
        (checkout / "pyproject.toml").write_text("")
        shutil.copy(self.SOURCE, package / "record.py")
        monkeypatch.delenv("BENCH_RESULTS_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        module = load_copy(package / "record.py")
        assert module.results_dir() == checkout / "benchmarks" / "results"
        monkeypatch.setenv("BENCH_RESULTS_DIR", str(tmp_path / "elsewhere"))
        assert module.results_dir() == tmp_path / "elsewhere"


class TestReadme:
    def test_experiments_table_matches_the_declarations(self):
        readme = (REPO / "README.md").read_text()
        start = readme.index("## Experiments")
        section = readme[start:readme.index("\n## ", start + 1)]
        for experiment in EXPERIMENTS.values():
            assert f"| `{experiment.name}` |" in section
            assert f"`BENCH_{experiment.name}.json`" in section
            for part in experiment.sections:
                assert f"`{part.key}`" in section
                for axis in part.axes:
                    values = ",".join(f"{v:g}" if isinstance(v, float) else str(v) for v in axis.values)
                    assert f"`{axis.name}={values}`" in section, (experiment.name, axis.name)
                for message, _ in part.checks:
                    assert message.split(" (")[0] in section, message
