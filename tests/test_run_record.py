"""The run record: one self-describing JSON per scenario run, and its views.

* the log stream and the dashboard are *pure* views -- replaying a finished
  run's spec, ``RoundStats`` and ``ScenarioResult`` through the same view
  callables reproduces what the live run logged and published (no view is
  ever handed a deployment or a transport);
* every name of the metrics catalogue the registry used to publish maps to
  the record path that now holds the fact, value for value;
* ``python -m repro.obs explain RUN.json`` prints what the run printed;
* ``validate`` rejects a tampered record; every JSON written is RFC 8259.
"""

from __future__ import annotations

import copy
import functools
import json
import logging
import math
import urllib.request

import pytest

from repro.api.events import SessionEvent
from repro.obs.__main__ import main as obs_main
from repro.obs.dashboard import DashboardServer
from repro.obs.logging import log_view
from repro.obs.record import SCHEMA, dumps, read_json_report, validate_record
from repro.obs.trace import Tracer, active_tracer, set_active_tracer
from repro.sim.__main__ import main as sim_main
from repro.sim.scenario import RoundStats, ScenarioResult, ScenarioSpec
from repro.sim.scenarios import make_scenario

SMALL = dict(num_clients=16, friend_pairs=4, addfriend_rounds=2, dialing_rounds=2)


def strict_loads(text: str):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


# --------------------------------------------------------------------------- #
# (a) views are pure
# --------------------------------------------------------------------------- #
class _Lines(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def _views(tag: str):
    logger = logging.getLogger(f"test-run-record.{tag}")
    logger.setLevel(logging.DEBUG)
    logger.propagate = False
    logger.handlers = [_Lines()]
    server = DashboardServer()
    return logger.handlers[0], server, [functools.partial(log_view, log=logger), server.view]


def _published(server) -> list[tuple[str, dict]]:
    # round_starting comes from the "round_start" kind at the pause/step gate, not from the record
    return [(e["type"], e["data"]) for e in server._history if e["type"] != "round_starting"]


def _record_lines(handler) -> list[str]:
    # per-event and gate lines are live-only; everything else is a view of the record
    return [
        line for line in handler.lines
        if not line.startswith(("event ", "round starting "))
    ]


class TestViewsArePure:
    @pytest.mark.parametrize("name", ["baseline", "sharded_entry"])
    def test_replaying_the_record_reproduces_the_live_views(self, name):
        live_log, live_server, views = _views(f"live.{name}")
        scenario = make_scenario(name, seed="t-replay", **SMALL)
        scenario.views += views
        result = scenario.run()

        replay_log, replay_server, views = _views(f"replay.{name}")
        for view in views:
            view("start", result.spec)
            for stats in result.rounds:
                view("round", stats)
            view("finish", result)

        assert _record_lines(replay_log) == _record_lines(live_log)
        assert _published(replay_server) == _published(live_server)

        kinds = {kind for kind, _ in _published(live_server)}
        expected = {"scenario_started", "round", "events", "net", "privacy", "scenario_finished"}
        assert kinds == expected | ({"shards"} if name == "sharded_entry" else set())
        assert any(line.startswith("net ") for line in live_log.lines)
        assert any(line.startswith("event ") for line in live_log.lines)  # the "event" kind

        # ... and what the views published is what the JSON record holds.
        record = strict_loads(dumps(result.to_dict()))
        rounds = [data for kind, data in _published(live_server) if kind == "round"]
        assert rounds == [
            {"clock": gauges["clock"], **row}
            for row, gauges in zip(record["rounds"], record["round_gauges"])
        ]
        nets = [data for kind, data in _published(live_server) if kind == "net"]
        assert nets == [gauges["net"] for gauges in record["round_gauges"]]
        assert nets[-1] == record["net"]
        events = [data for kind, data in _published(live_server) if kind == "events"]
        assert events[-1] == record["sessions"]["events"]
        privacy = [data for kind, data in _published(live_server) if kind == "privacy"]
        assert [p["epsilon"] for p in privacy] == [
            row["epsilon_cumulative"] for row in record["privacy"]["rounds"]
        ]
        assert {p["delta"] for p in privacy} == {record["privacy"]["delta"]}

    def test_a_view_is_handed_record_fragments_only(self):
        handed = []
        scenario = make_scenario("baseline", seed="t-kinds", **SMALL)
        scenario.views.append(lambda kind, item: handed.append((kind, item)))
        result = scenario.run()
        types = {"start": ScenarioSpec, "round_start": tuple, "round": RoundStats,
                 "event": SessionEvent, "finish": ScenarioResult}
        assert {kind for kind, _ in handed} == set(types)
        assert all(type(item) is types[kind] for kind, item in handed)
        assert [item for kind, item in handed if kind == "round"] == result.rounds
        assert handed[-1] == ("finish", result)
        starts = [item for kind, item in handed if kind == "round_start"]
        assert [(p, i) for p, i, _ in starts] == [
            ("add-friend", 0), ("add-friend", 1), ("dialing", 0), ("dialing", 1)
        ]
        assert [clock for *_, clock in starts] == sorted(clock for *_, clock in starts)

    def test_aborted_rounds_reach_the_views_without_a_ledger_row(self):
        _, server, views = _views("aborted")
        scenario = make_scenario("pkg_failure", num_clients=12, seed="t-abort")
        scenario.views += views
        result = scenario.run()
        aborted = [stats for stats in result.rounds if stats.aborted]
        assert aborted and all(stats.privacy == {} and stats.net for stats in aborted)
        live = sum(1 for stats in result.rounds if not stats.aborted)
        assert sum(1 for kind, _ in _published(server) if kind == "privacy") == live
        assert len(result.privacy["rounds"]) == live


# --------------------------------------------------------------------------- #
# (b) each fact once: the old metrics catalogue -> record paths
# --------------------------------------------------------------------------- #
class _Capture:
    """Keeps the live deployment and transport, for the oracle below: the
    scenario's ``populate`` is wrapped, since no view is handed either."""

    def __init__(self, scenario):
        populate = scenario.populate

        def keep(deployment):
            populate(deployment)
            self.deployment, self.net = deployment, deployment.transport

        scenario.populate = keep


def _histogram(values) -> dict:
    values = list(values)
    return {"count": len(values), "sum": sum(values), "min": min(values), "max": max(values)}


def parent_catalogue(deployment, net, result, tracer=None) -> dict:
    """The flat ``metrics`` catalogue as the parent commit computed it, from
    the live objects it scraped (the oracle this table is held to)."""
    stats = net.stats
    sessions = [client.session for client in deployment.clients.values()]
    names = {
        "transport.messages_sent": stats.messages_sent,
        "transport.bytes_sent": stats.bytes_sent,
        "scheduler.events_processed": net.scheduler.events_processed,
        "net.frames_in_flight": net.frames_in_flight_peak,
        "sessions.count": len(sessions),
        "sessions.outbox_depth": sum(len(s.pending_requests()) for s in sessions),
        "mix.noise.share_of_bytes": result.privacy["noise_traffic"]["noise_share_of_bytes"],
    }
    names.update({f"transport.bytes.{m}": v for m, v in stats.bytes_by_method.items()})
    names.update({f"transport.calls.{m}": v for m, v in stats.calls_by_method.items()})
    per_server: dict[int, int] = {}
    for protocol in {r.protocol for r in result.rounds}:
        rows = [r for r in result.rounds_for(protocol) if not r.aborted]
        aborted = len(result.rounds_for(protocol)) - len(rows)
        if aborted:
            names[f"rounds.aborted.{protocol}"] = aborted
        if not rows:
            continue
        for stage in ("latency_s", "submit_stage_s", "mix_stage_s", "scan_stage_s"):
            names[f"round.{stage}.{protocol}"] = _histogram(getattr(r, stage) for r in rows)
        names[f"round.failures.{protocol}"] = sum(r.failures for r in rows)
        names[f"mix.noise.count.{protocol}"] = sum(r.noise_added for r in rows)
        for row in rows:
            for index, drawn in enumerate(row.per_server_noise):
                per_server[index] = per_server.get(index, 0) + drawn
        spend = deployment_ledger_spend(result, protocol)
        names[f"privacy.epsilon.{protocol}"] = spend["epsilon"]
        names[f"privacy.delta.{protocol}"] = spend["delta"]
        names[f"privacy.rounds.{protocol}"] = len(rows)
    names.update({f"mix.noise.per_server.{i}": total for i, total in per_server.items()})
    if deployment.entry.front is None:  # a sharded front
        loads = deployment.entry.load_report()
        names.update(
            {f"cluster.shard_load.{i}": load for i, load in enumerate(loads["submissions_by_shard"])}
        )
        names["cluster.imbalance"] = loads["imbalance"]
    if tracer is not None:  # the kept (batch) crypto spans are the independent count
        for span in tracer.spans:
            if span.category == "crypto":
                names[f"crypto.calls.{span.name}"] = names.get(f"crypto.calls.{span.name}", 0) + 1
                names[f"crypto.items.{span.name}"] = (
                    names.get(f"crypto.items.{span.name}", 0) + span.args["count"]
                )
    return names


def deployment_ledger_spend(result, protocol) -> dict:
    from repro.analysis.dp import privacy_cost

    rounds = sum(1 for r in result.rounds_for(protocol) if not r.aborted)
    cost = privacy_cost(rounds, result.spec.resolved_noise()[1])
    return {"epsilon": cost.epsilon, "delta": cost.delta}


def _rounds(record, protocol):
    return [r for r in record["rounds"] if r["protocol"] == protocol and not r["aborted"]]


#: Old metric name (``<x>`` = a method, protocol, index or op) -> where the
#: record holds that fact now.
RECORD_PATHS = {
    "transport.messages_sent": lambda r: r["total_messages_sent"],
    "transport.bytes_sent": lambda r: r["total_bytes_sent"],
    "transport.bytes.<x>": lambda r, x: r["bytes_by_method"][x],
    "transport.calls.<x>": lambda r, x: r["calls_by_method"][x],
    "scheduler.events_processed": lambda r: r["net"]["events_processed"],
    "net.frames_in_flight": lambda r: r["net"]["frames_in_flight_peak"],
    "sessions.count": lambda r: r["sessions"]["count"],
    "sessions.outbox_depth": lambda r: r["sessions"]["outbox_depth"],
    "rounds.aborted.<x>": lambda r, x: sum(
        1 for row in r["rounds"] if row["protocol"] == x and row["aborted"]
    ),
    "round.latency_s.<x>": lambda r, x: _histogram(row["latency_s"] for row in _rounds(r, x)),
    "round.submit_stage_s.<x>": lambda r, x: _histogram(
        row["submit_stage_s"] for row in _rounds(r, x)
    ),
    "round.mix_stage_s.<x>": lambda r, x: _histogram(row["mix_stage_s"] for row in _rounds(r, x)),
    "round.scan_stage_s.<x>": lambda r, x: _histogram(row["scan_stage_s"] for row in _rounds(r, x)),
    "round.failures.<x>": lambda r, x: sum(row["failures"] for row in _rounds(r, x)),
    "mix.noise.count.<x>": lambda r, x: r["privacy"]["protocols"][x]["noise_total"],
    "mix.noise.per_server.<x>": lambda r, x: sum(
        summary["per_server_noise"][int(x)] for summary in r["privacy"]["protocols"].values()
    ),
    "mix.noise.share_of_bytes": lambda r: r["privacy"]["noise_traffic"]["noise_share_of_bytes"],
    "privacy.epsilon.<x>": lambda r, x: r["privacy"]["protocols"][x]["epsilon"],
    "privacy.delta.<x>": lambda r, x: r["privacy"]["protocols"][x]["delta"],
    "privacy.rounds.<x>": lambda r, x: r["privacy"]["protocols"][x]["rounds"],
    "cluster.shard_load.<x>": lambda r, x: r["shard_loads"]["submissions_by_shard"][int(x)],
    "cluster.imbalance": lambda r: r["shard_loads"]["imbalance"],
    "crypto.calls.<x>": lambda r, x: r["trace"]["crypto_ops"][x]["calls"],
    "crypto.items.<x>": lambda r, x: r["trace"]["crypto_ops"][x]["items"],
    # crypto.wall_s.<op> -> trace.crypto_ops.<op>.wall_s (host time: asserted positive below);
    # endpoint.<name>.{rpcs,queue_s,handler_s} -> trace.runtime.<name>.* (mp only:
    # tests/test_obs_distributed.py::TestWorkerTelemetry holds rpcs to the worker's spans).
}

_PREFIXES = sorted((k[:-3] for k in RECORD_PATHS if k.endswith("<x>")), key=len, reverse=True)


def record_value(record: dict, name: str):
    if name in RECORD_PATHS:
        return RECORD_PATHS[name](record)
    prefix = next(p for p in _PREFIXES if name.startswith(p))
    return RECORD_PATHS[prefix + "<x>"](record, name[len(prefix):])


class TestEachFactOnce:
    @pytest.mark.parametrize("name, traced", [("baseline", True), ("sharded_entry", False),
                                              ("pkg_failure", False)])
    def test_every_catalogue_name_has_a_record_path_holding_its_value(self, name, traced):
        scenario = make_scenario(name, seed="t-once", **{**SMALL, "dialing_rounds": 1})
        capture = _Capture(scenario)
        tracer = Tracer() if traced else None
        previous = set_active_tracer(tracer)
        try:
            result = scenario.run()
        finally:
            set_active_tracer(previous)
        record = strict_loads(dumps(result.to_dict()))
        catalogue = parent_catalogue(capture.deployment, capture.net, result, tracer)
        assert len(catalogue) >= 45
        for metric, expected in catalogue.items():
            found = record_value(record, metric)  # KeyError: a fact with no home
            if isinstance(expected, dict):
                assert found == pytest.approx(expected, abs=1e-5), metric
            else:
                assert found == pytest.approx(expected, abs=1e-9), metric
        assert "metrics" not in record
        if traced:
            ops = record["trace"]["crypto_ops"]
            assert all(row["wall_s"] > 0 for row in ops.values())
            assert ops["seal"]["calls"] == ops["seal"]["items"] > 0  # single ops: folded by the tracer
        else:
            assert "trace" not in record


# --------------------------------------------------------------------------- #
# (c) explain RUN.json == what the run printed
# --------------------------------------------------------------------------- #
def _summary(out: str) -> str:
    """A run's stdout minus the lines that name the files it wrote."""
    return "\n".join(line for line in out.splitlines() if not line.startswith("wrote "))


class TestExplain:
    ARGV = ["run", "baseline", "--num-clients", "12", "--addfriend-rounds", "1",
            "--dialing-rounds", "1", "--seed", "t-explain"]

    def explain_equals_run(self, tmp_path, capsys, monkeypatch, *extra, traced=False):
        monkeypatch.setenv("BENCH_RESULTS_DIR", str(tmp_path / "results"))
        record = tmp_path / "r.json"
        trace = ["--trace", str(tmp_path / "t.json")] if traced else []
        assert sim_main([*self.ARGV, *extra, *trace, "--json", str(record)]) == 0
        printed = capsys.readouterr().out
        expected_files = ["r.json", "t.json", "t.jsonl"] if traced else ["r.json"]
        assert sorted(p.name for p in tmp_path.iterdir()) == expected_files
        assert obs_main(["explain", str(record)]) == 0
        assert capsys.readouterr().out.rstrip("\n") == _summary(printed)
        paths = [str(record)] + ([str(tmp_path / "t.json")] if traced else [])
        assert obs_main(["validate", *paths, "--min-propagation", "0.95"]) == 0
        capsys.readouterr()
        return printed, read_json_report(record)

    def test_sim_untraced(self, tmp_path, capsys, monkeypatch):
        printed, envelope = self.explain_equals_run(tmp_path, capsys, monkeypatch)
        assert "privacy spend" in printed and "trace:" not in printed
        assert envelope["schema"] == SCHEMA and envelope["seed"] == "t-explain"
        assert envelope["spec"]["client_link"]["latency_s"] > 0
        assert {"git_sha", "python", "platform"} <= set(envelope["environment"])

    def test_sim_traced(self, tmp_path, capsys, monkeypatch):
        printed, envelope = self.explain_equals_run(tmp_path, capsys, monkeypatch, traced=True)
        assert "stage coverage 100.0%" in printed and "wall self time: crypto" in printed
        assert envelope["data"]["trace"]["span_count"] > 0
        assert active_tracer() is None

    def test_asyncio_traced(self, tmp_path, capsys, monkeypatch):
        printed, envelope = self.explain_equals_run(
            tmp_path, capsys, monkeypatch, "--runtime", "asyncio", traced=True
        )
        assert "rpc.serve spans linked" in printed
        runtime = envelope["data"]["trace"]["runtime"]
        assert runtime["mix0"]["rpcs"] > 0 and runtime["mix0"]["handler_s"] > 0
        assert set(envelope["data"]["net"]["mix0"]) == {"queue_depth", "in_flight", "connections"}

    @pytest.mark.slow
    def test_mp_traced(self, tmp_path, capsys, monkeypatch):
        printed, envelope = self.explain_equals_run(
            tmp_path, capsys, monkeypatch, "--runtime", "mp", traced=True
        )
        assert "rpc.serve spans linked" in printed
        data = envelope["data"]
        assert data["trace"]["runtime"]["mix0"]["rpcs"] > 0  # from the spans the workers shipped
        assert data["net"]["worker:worker-0"]["rss_mib"] > 0  # ... and the RSS beside them


# --------------------------------------------------------------------------- #
# (d) validate, and strict JSON
# --------------------------------------------------------------------------- #
class TestValidate:
    @pytest.fixture(scope="class")
    def envelope(self):
        previous = set_active_tracer(Tracer())
        try:
            result = make_scenario("baseline", seed="t-validate", **SMALL).run()
        finally:
            set_active_tracer(previous)
        return {"schema": SCHEMA, "data": strict_loads(dumps(result.to_dict()))}

    def test_a_clean_record_validates(self, envelope):
        assert validate_record(envelope) == []

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda e: e["data"]["privacy"]["protocols"]["dialing"].update(epsilon=1.0),
             "does not match"),
            (lambda e: e["data"]["privacy"]["rounds"][0].update(noise_added=-1), "negative noise"),
            (lambda e: e["data"]["trace"]["coverage"].update(fraction=0.9), "trace coverage"),
            (lambda e: e["data"]["trace"]["coverage"].update(fraction=1.051), "trace coverage"),
            (lambda e: e.update(schema=SCHEMA + 1), "unknown schema"),
            (lambda e: e["data"]["round_gauges"].pop(), "round_gauges"),
        ],
    )
    def test_a_tampered_record_is_rejected(self, envelope, tamper, message, tmp_path, capsys):
        tampered = copy.deepcopy(envelope)
        tamper(tampered)
        assert any(message in problem for problem in validate_record(tampered))
        path = tmp_path / "r.json"
        path.write_text(dumps(tampered))
        assert obs_main(["validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out


class TestStrictJson:
    ARGV = ["run", "baseline", "--num-clients", "12", "--addfriend-rounds", "1",
            "--dialing-rounds", "1", "--noise-b", "0"]

    def test_the_variance_free_run_writes_rfc8259_json(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert sim_main([*self.ARGV, "--json", str(path)]) == 0
        capsys.readouterr()
        text = path.read_text()
        assert "Infinity" not in text and "NaN" not in text
        written = strict_loads(text)  # the parent wrote twelve bare Infinity tokens
        dialing = written["data"]["privacy"]["protocols"]["dialing"]
        assert dialing["epsilon"] == "inf" and "unprotected" in dialing
        assert obs_main(["validate", str(path)]) == 0
        assert read_json_report(path)["data"]["privacy"]["rounds"][0]["epsilon_round"] == math.inf
        assert obs_main(["explain", str(path)]) == 0
        out = capsys.readouterr().out
        assert "eps=inf" in out and "UNPROTECTED" in out

    def test_non_finite_numbers_other_than_an_infinite_epsilon_do_not_get_written(self):
        assert strict_loads(dumps({"epsilon": math.inf, "series": [1.0, math.inf]})) == {
            "epsilon": "inf", "series": [1.0, "inf"],
        }
        for bad in (math.nan, -math.inf):
            with pytest.raises(ValueError):
                dumps({"x": bad})

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_the_reader_rejects_non_finite_tokens(self, tmp_path, token):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"epsilon": {token}}}')
        with pytest.raises(ValueError, match="not JSON"):
            read_json_report(path)

    def test_the_dashboard_stream_is_strict_json_too(self):
        server = DashboardServer()
        server.start()
        try:
            scenario = make_scenario(
                "baseline", num_clients=8, friend_pairs=2, addfriend_rounds=1,
                dialing_rounds=0, noise_b=0.0,
            )
            scenario.views.append(server.view)
            scenario.run()
            with urllib.request.urlopen(server.url + "state", timeout=5.0) as response:
                state = strict_loads(response.read().decode("utf-8"))
            with urllib.request.urlopen(server.url, timeout=5.0) as response:
                assert "=== 'inf'" in response.read().decode("utf-8")  # the page renders it as ∞
        finally:
            server.stop()
        assert state["privacy"]["add-friend"]["epsilon"] == "inf"
        assert state["privacy"]["add-friend"]["advantage_bound"] == 1.0
