"""Tests for repro.obs.trace: spans, attribution, exports, the validator."""

from __future__ import annotations

import json

import pytest

from repro.obs.__main__ import validate_file
from repro.obs.trace import (
    CATEGORY_CRYPTO,
    CATEGORY_STAGE,
    CATEGORY_TRANSPORT,
    NULL_SPAN,
    NullTracer,
    Tracer,
    UNSTAGED,
    active_tracer,
    set_active_tracer,
    validate_trace_events,
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
        with tracer.stage("submit", "add-friend", 1, bytes=100):
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
        with tracer.stage("scan", "dialing", 3):
            pass
        bucket = tracer.report()["attribution"]["dialing/scan"]
        assert set(bucket) == {"other"}

    def test_spans_outside_any_stage_attribute_to_unstaged(self, tracer):
        with tracer.span("seal", category=CATEGORY_CRYPTO, keep=False):
            pass
        assert UNSTAGED in tracer.report()["attribution"]

    def test_stage_totals_accumulate_across_rounds(self, tracer, clock):
        for round_number in (1, 2):
            with tracer.stage("mix", "add-friend", round_number, bytes=50):
                clock.advance(0.1)
        totals = tracer.report()["stages"]["add-friend/mix"]
        assert totals["count"] == 2
        assert totals["bytes"] == 100
        assert totals["sim_s"] == pytest.approx(0.2)

    def test_attribution_self_wall_sums_to_stage_wall(self, tracer):
        with tracer.stage("submit", "add-friend", 1) as stage:
            with tracer.span("seal", category=CATEGORY_CRYPTO, keep=False):
                pass
        bucket = tracer.report()["attribution"]["add-friend/submit"]
        assert sum(bucket.values()) == pytest.approx(stage.wall_duration, abs=1e-4)


class TestChromeExport:
    def build(self, tracer, clock):
        with tracer.stage("submit", "add-friend", 1, bytes=7):
            clock.advance(0.3)
            with tracer.span("seal_many", category=CATEGORY_CRYPTO, track="crypto"):
                clock.advance(0.0)
        with tracer.stage("mix", "add-friend", 1):
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
    def test_default_is_a_disabled_null_tracer(self):
        assert active_tracer().enabled is False

    def test_set_and_restore(self):
        previous = active_tracer()
        tracer = Tracer()
        set_active_tracer(tracer)
        try:
            assert active_tracer() is tracer
        finally:
            set_active_tracer(previous)
        assert active_tracer() is previous

    def test_null_tracer_is_a_no_op(self):
        null = NullTracer()
        span = null.start("x", category=CATEGORY_CRYPTO)
        assert span is NULL_SPAN
        null.end(span, bytes=1)
        with null.span("y"):
            pass
        with null.stage("submit", "add-friend", 1):
            pass
        assert null.report()["span_count"] == 0


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

    def test_round_summaries_carry_the_stage_split(self, traced_result):
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
