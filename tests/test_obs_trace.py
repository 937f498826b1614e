"""Tests for repro.obs.trace: spans, attribution, exports, the validator."""

from __future__ import annotations

import json

import pytest

from repro.obs.__main__ import validate_file
from repro.obs.trace import (
    CATEGORY_CRYPTO,
    CATEGORY_STAGE,
    CATEGORY_TRANSPORT,
    Tracer,
    UNSTAGED,
    active_tracer,
    set_active_tracer,
    validate_trace_events,
)


def stage(tracer, name: str, protocol: str, round_number: int, **args):
    """A kept stage span on the protocol's track, as the round engine opens one."""
    return tracer.span(
        name, category=CATEGORY_STAGE, track=protocol, protocol=protocol, round=round_number, **args
    )


class FakeClock:
    """A manually advanced simulated clock."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def tracer(clock: FakeClock) -> Tracer:
    return Tracer(clock)


class TestSpanLifecycle:
    def test_sim_duration_tracks_the_injected_clock(self, tracer, clock):
        span = tracer.start("submit", category=CATEGORY_STAGE, track="add-friend")
        clock.advance(1.5)
        tracer.end(span)
        assert span.sim_duration == pytest.approx(1.5)
        assert span.wall_duration >= 0.0

    def test_nesting_assigns_depth_and_child_wall(self, tracer):
        outer = tracer.start("outer")
        inner = tracer.start("inner")
        assert outer.depth == 0
        assert inner.depth == 1
        tracer.end(inner)
        tracer.end(outer)
        assert outer.child_wall == pytest.approx(inner.wall_duration)
        assert outer.self_wall == pytest.approx(outer.wall_duration - inner.wall_duration)

    def test_only_kept_spans_land_in_the_trace(self, tracer):
        with tracer.span("kept"):
            with tracer.span("dropped", keep=False):
                pass
        assert [s.name for s in tracer.spans] == ["kept"]

    def test_end_tolerates_leaked_children(self, tracer):
        outer = tracer.start("outer")
        tracer.start("leaked")  # never ended by its owner
        tracer.end(outer)
        assert tracer._stack == []

    def test_set_and_end_args_merge(self, tracer):
        with tracer.span("op", bytes=10) as span:
            span.set(extra="x")
        assert span.args == {"bytes": 10, "extra": "x"}


class TestAttribution:
    def test_non_stage_spans_bucket_under_the_enclosing_stage(self, tracer, clock):
        with stage(tracer, "submit", "add-friend", 1, bytes=100):
            clock.advance(0.2)
            with tracer.span("seal", category=CATEGORY_CRYPTO, keep=False):
                pass
            with tracer.span("rpc", category=CATEGORY_TRANSPORT, keep=False):
                pass
        report = tracer.report()
        bucket = report["attribution"]["add-friend/submit"]
        assert set(bucket) == {"crypto", "transport", "other"}
        assert report["stages"]["add-friend/submit"]["bytes"] == 100
        assert report["stages"]["add-friend/submit"]["sim_s"] == pytest.approx(0.2)

    def test_stage_self_time_is_categorised_as_other(self, tracer):
        with stage(tracer, "scan", "dialing", 3):
            pass
        bucket = tracer.report()["attribution"]["dialing/scan"]
        assert set(bucket) == {"other"}

    def test_spans_outside_any_stage_attribute_to_unstaged(self, tracer):
        with tracer.span("seal", category=CATEGORY_CRYPTO, keep=False):
            pass
        assert UNSTAGED in tracer.report()["attribution"]

    def test_stage_totals_accumulate_across_rounds(self, tracer, clock):
        for round_number in (1, 2):
            with stage(tracer, "mix", "add-friend", round_number, bytes=50):
                clock.advance(0.1)
        totals = tracer.report()["stages"]["add-friend/mix"]
        assert totals["count"] == 2
        assert totals["bytes"] == 100
        assert totals["sim_s"] == pytest.approx(0.2)

    def test_attribution_self_wall_sums_to_stage_wall(self, tracer):
        with stage(tracer, "submit", "add-friend", 1) as submit:
            with tracer.span("seal", category=CATEGORY_CRYPTO, keep=False):
                pass
        bucket = tracer.report()["attribution"]["add-friend/submit"]
        assert sum(bucket.values()) == pytest.approx(submit.wall_duration, abs=1e-4)


class TestChromeExport:
    def build(self, tracer, clock):
        with stage(tracer, "submit", "add-friend", 1, bytes=7):
            clock.advance(0.3)
            with tracer.span("seal_many", category=CATEGORY_CRYPTO, track="crypto"):
                clock.advance(0.0)
        with stage(tracer, "mix", "add-friend", 1):
            clock.advance(0.1)

    def test_export_passes_the_validator(self, tracer, clock):
        self.build(tracer, clock)
        assert validate_trace_events(tracer.to_trace_events()) == []

    def test_sim_timeline_holds_stage_spans_as_complete_events(self, tracer, clock):
        self.build(tracer, clock)
        xs = [e for e in tracer.to_trace_events() if e["ph"] == "X"]
        assert [e["name"] for e in xs] == ["submit", "mix"]
        assert all(e["pid"] == 1 for e in xs)
        assert xs[0]["dur"] == pytest.approx(0.3e6)

    def test_wall_chart_holds_balanced_pairs_for_every_kept_span(self, tracer, clock):
        self.build(tracer, clock)
        events = tracer.to_trace_events()
        begins = [e for e in events if e["ph"] == "B"]
        ends = [e for e in events if e["ph"] == "E"]
        assert len(begins) == len(ends) == len(tracer.spans)
        assert all(e["pid"] == 2 for e in begins + ends)

    def test_trace_file_roundtrip(self, tracer, clock, tmp_path):
        self.build(tracer, clock)
        path = tracer.write_chrome_trace(tmp_path / "trace.json")
        assert validate_file(path, None) == []
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"

    def test_jsonl_dump_has_one_span_per_line(self, tracer, clock, tmp_path):
        self.build(tracer, clock)
        path = tracer.write_jsonl(tmp_path / "spans.jsonl")
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == len(tracer.spans)
        assert {"name", "cat", "sim_dur", "wall_dur", "self_wall"} <= set(lines[0])


class TestValidator:
    def test_rejects_unbalanced_begin(self):
        events = [{"ph": "B", "pid": 1, "tid": 1, "ts": 0, "name": "a"}]
        assert validate_trace_events(events)

    def test_rejects_mismatched_end_name(self):
        events = [
            {"ph": "B", "pid": 1, "tid": 1, "ts": 0, "name": "a"},
            {"ph": "E", "pid": 1, "tid": 1, "ts": 1, "name": "b"},
        ]
        assert any("mismatch" in p or "b" in p for p in validate_trace_events(events))

    def test_rejects_non_monotonic_timestamps(self):
        events = [
            {"ph": "X", "pid": 1, "tid": 1, "ts": 5, "dur": 1, "name": "a"},
            {"ph": "X", "pid": 1, "tid": 1, "ts": 2, "dur": 1, "name": "b"},
        ]
        assert validate_trace_events(events)

    def test_rejects_unknown_phase(self):
        assert validate_trace_events([{"ph": "Z", "pid": 1, "tid": 1, "ts": 0, "name": "a"}])

    def test_rejects_negative_duration(self):
        assert validate_trace_events(
            [{"ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": -1, "name": "a"}]
        )

    def test_accepts_a_clean_stream(self):
        events = [
            {"ph": "M", "pid": 1, "tid": 0, "ts": 0, "name": "process_name", "args": {}},
            {"ph": "B", "pid": 1, "tid": 1, "ts": 0, "name": "a"},
            {"ph": "E", "pid": 1, "tid": 1, "ts": 3, "name": "a"},
        ]
        assert validate_trace_events(events) == []

    def test_validate_file_flags_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert validate_file(path, None)


class TestActiveTracer:
    def test_default_is_none(self):
        assert active_tracer() is None

    def test_set_and_restore(self):
        previous = active_tracer()
        tracer = Tracer()
        set_active_tracer(tracer)
        try:
            assert active_tracer() is tracer
        finally:
            set_active_tracer(previous)
        assert active_tracer() is previous

    def test_untraced_deployment_is_not_instrumented(self):
        from repro.core.config import AlpenhornConfig
        from repro.core.coordinator import Deployment
        from repro.obs.instrument import InstrumentedCryptoBackend

        previous = set_active_tracer(None)
        try:
            plain = Deployment(AlpenhornConfig.for_tests(backend="simulated"))
        finally:
            set_active_tracer(previous)
        assert not isinstance(plain.crypto, InstrumentedCryptoBackend)
        for seam in ("call", "call_batch"):
            assert seam not in vars(plain.transport)
        for stage_name in ("announce", "submit", "mix", "scan"):
            assert stage_name not in vars(plain.round_engine("dialing"))


class TestScenarioIntegration:
    @pytest.fixture(scope="class")
    def traced_result(self):
        from repro.sim.scenarios import make_scenario

        previous = active_tracer()
        tracer = Tracer()
        set_active_tracer(tracer)
        try:
            result = make_scenario(
                "baseline",
                num_clients=16,
                addfriend_rounds=2,
                dialing_rounds=1,
                friend_pairs=4,
            ).run()
        finally:
            set_active_tracer(previous)
        return tracer, result

    def test_stage_sim_durations_tile_round_latency(self, traced_result):
        tracer, result = traced_result
        stage_sim = sum(s["sim_s"] for s in tracer.report()["stages"].values())
        total_latency = sum(r.latency_s for r in result.rounds)
        assert stage_sim == pytest.approx(total_latency, rel=0.05)

    @pytest.mark.parametrize("scenario", ["baseline", "pkg_failure"])
    def test_coverage_counts_the_same_rounds_on_both_sides(self, scenario):
        """Sequential rounds on ``sim`` tile exactly -- also when a round
        aborts after its announce span was recorded (``pkg_failure``)."""
        from repro.sim.scenarios import make_scenario

        previous = set_active_tracer(Tracer())
        try:
            result = make_scenario(scenario, num_clients=16).run()
        finally:
            set_active_tracer(previous)
        assert any(r.aborted for r in result.rounds) == (scenario == "pkg_failure")
        coverage = result.trace["coverage"]
        # the aborted row carries the abort's own measured latency; coverage
        # counts the completed rounds on both sides
        assert coverage["round_latency_s"] == sum(
            r.latency_s for r in result.rounds if not r.aborted
        )
        assert abs(coverage["fraction"] - 1.0) <= 1e-4

    def test_emitted_trace_is_schema_valid(self, traced_result):
        tracer, _ = traced_result
        assert validate_trace_events(tracer.to_trace_events()) == []

    def test_all_four_stages_appear_per_protocol(self, traced_result):
        tracer, _ = traced_result
        stages = set(tracer.report()["stages"])
        for protocol in ("add-friend", "dialing"):
            for stage in ("announce", "submit", "mix", "scan"):
                assert f"{protocol}/{stage}" in stages

    def test_crypto_and_transport_attribution_present(self, traced_result):
        tracer, _ = traced_result
        totals = tracer.report()["category_totals"]
        assert totals.get("crypto", 0.0) > 0.0
        assert totals.get("transport", 0.0) > 0.0

    def test_round_stats_carry_the_stage_split(self, traced_result):
        _, result = traced_result
        for stats in result.rounds:
            if stats.aborted:
                continue
            tiles = stats.submit_stage_s + stats.mix_stage_s + stats.scan_stage_s
            assert tiles == pytest.approx(stats.latency_s, rel=1e-6)

    def test_scenario_result_records_trace_and_bytes_by_method(self, traced_result):
        tracer, result = traced_result
        assert result.bytes_by_method
        assert sum(result.bytes_by_method.values()) == result.total_bytes_sent
        assert sum(result.calls_by_method.values()) == result.total_messages_sent
        # The traced run's record carries the tracer's own report, crypto ops folded in.
        assert result.trace["stages"] == tracer.report()["stages"]
        assert result.trace["crypto_ops"]["open_many"]["items"] > 0
        assert abs(result.trace["coverage"]["fraction"] - 1.0) <= 0.05
        assert len(result.rounds_for("add-friend")) == 2


def traced_run(name: str, **overrides):
    """``run_scenario(name, ...)`` under a fresh tracer; returns both."""
    from repro.sim.scenarios import run_scenario

    tracer = Tracer()
    previous = set_active_tracer(tracer)
    try:
        result = run_scenario(name, **overrides)
    finally:
        set_active_tracer(previous)
    return tracer, result


#: Small, seeded runs: enough for every span of the README's table to show.
SPAN_TABLE_RUN = dict(
    num_clients=8, friend_pairs=2, addfriend_rounds=2, dialing_rounds=1, seed="span-table"
)


class TestSpanTable:
    """The README's "Per-stage round tracing" table, span by span, on a
    one-shard and a sharded deployment."""

    @pytest.fixture(scope="class", params=["baseline", "sharded_entry"])
    def traced(self, request):
        tracer, result = traced_run(request.param, **SPAN_TABLE_RUN)
        return request.param, tracer, result

    @staticmethod
    def spans(tracer, name, protocol, round_number):
        return [
            span
            for span in tracer.spans
            if span.name == name
            and span.args.get("protocol") == protocol
            and span.args.get("round") == round_number
        ]

    def test_four_stage_spans_per_protocol_per_completed_round(self, traced):
        _, tracer, result = traced
        completed = [r for r in result.rounds if not r.aborted]
        assert {r.protocol for r in completed} == {"add-friend", "dialing"}
        for row in completed:
            for stage_name in ("announce", "submit", "mix", "scan"):
                (span,) = self.spans(tracer, stage_name, row.protocol, row.round_number)
                assert span.category == CATEGORY_STAGE and span.track == row.protocol
                assert "bytes" in span.args
        stage_spans = [s for s in tracer.spans if s.category == CATEGORY_STAGE]
        assert len(stage_spans) == 4 * len(completed)

    def test_one_mix_process_batch_per_mix_server_per_round(self, traced):
        _, tracer, result = traced
        for row in result.rounds:
            spans = self.spans(tracer, "mix.process_batch", row.protocol, row.round_number)
            assert sorted(span.track for span in spans) == ["mix0", "mix1"]
            for span in spans:
                assert span.category == "mix" and span.args["server"] == span.track
                assert {"received", "dropped", "noise"} <= set(span.args)

    def test_shard_and_ingress_spans_on_the_sharded_front(self, traced):
        name, tracer, result = traced
        cluster = [s for s in tracer.spans if s.category == "cluster"]
        if name == "baseline":
            assert cluster == []
            return
        for row in result.rounds:
            for span_name in ("shard.open_broadcast", "shard.flush_drain", "shard.collect"):
                (span,) = self.spans(tracer, span_name, row.protocol, row.round_number)
                assert span.category == "cluster" and span.track == "coordinator"
                assert span.args["shards"] == 4
            (drain,) = self.spans(tracer, "shard.flush_drain", row.protocol, row.round_number)
            assert "rejected" in drain.args
            (collect,) = self.spans(tracer, "shard.collect", row.protocol, row.round_number)
            assert collect.args["envelopes"] > 0
        flushes = [s for s in cluster if s.name == "ingress.flush_batch"]
        assert flushes
        for span in flushes:
            assert span.track.startswith("ingress") and span.args["proxy"] == span.track
            assert span.args["envelopes"] > 0 and "rejected" in span.args

    def test_crypto_batch_spans_are_kept(self, traced):
        _, tracer, _ = traced
        batches = [s for s in tracer.spans if s.category == CATEGORY_CRYPTO]
        assert {"open_many", "seal_many"} <= {s.name for s in batches}
        assert all(s.track == "crypto" and s.args["count"] >= 0 for s in batches)

    def test_transport_and_crypto_attribution_buckets(self, traced):
        _, tracer, _ = traced
        report = tracer.report()
        for protocol in ("add-friend", "dialing"):
            bucket = report["attribution"][f"{protocol}/mix"]
            assert bucket.get(CATEGORY_TRANSPORT, 0.0) > 0.0
            assert bucket.get(CATEGORY_CRYPTO, 0.0) > 0.0
        assert {CATEGORY_TRANSPORT, CATEGORY_CRYPTO} <= set(report["category_totals"])


class TestTracingOnlyObserves:
    """A traced run's record is the untraced one plus its ``trace`` section."""

    @pytest.mark.parametrize("pipelined", [False, True])
    @pytest.mark.parametrize("name", ["baseline", "sharded_entry"])
    def test_traced_record_equals_untraced(self, name, pipelined):
        from repro.sim.scenarios import run_scenario

        run = dict(SPAN_TABLE_RUN, seed="observes", pipelined=pipelined)
        plain = run_scenario(name, **run).to_dict()
        _, result = traced_run(name, **run)
        traced = result.to_dict()
        assert "trace" in traced and "trace" not in plain
        for record in (plain, traced):
            record.pop("wall_seconds")
            record.pop("trace", None)
        assert traced == plain
