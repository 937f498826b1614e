"""Distributed observability: trace propagation, telemetry, attribution.

Covers the cross-process pieces of :mod:`repro.obs.distributed` end to end:
the wire trailer round-trip (hypothesis), client/server span linkage over a
real :class:`AsyncioTransport`, the worker telemetry harvest through
:class:`MultiprocessTransport`, per-endpoint runtime attribution, and the
multi-process extensions to the trace validator.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RemoteCallError, RoundError
from repro.net.frames import Frame, KIND_REQUEST
from repro.net.transport import BatchCall, RpcResult
from repro.obs.distributed import (
    TRACE_CONTEXT,
    TraceContext,
    rss_bytes,
    runtime_attribution,
)
from repro.obs.trace import (
    Tracer,
    propagation_coverage,
    set_active_tracer,
    validate_trace_events,
)
from repro.runtime import AsyncioTransport, MultiprocessTransport, mix_endpoint_spec, wire
from wire_oracle import Packer


@pytest.fixture
def tracer():
    tracer = Tracer()
    previous = set_active_tracer(tracer)
    yield tracer
    set_active_tracer(previous)


def make_frame(method="echo"):
    return Frame(kind=KIND_REQUEST, msg_id=7, src="client", dst="server",
                 method=method, payload=b"\x01\x02")


class TestTraceContextWire:
    @given(
        trace=st.text(max_size=40),
        span_id=st.integers(min_value=0, max_value=2**64 - 1),
        origin=st.text(max_size=40),
        pid=st.integers(min_value=0, max_value=2**22),
    )
    @settings(max_examples=50)
    def test_trailer_roundtrip(self, trace, span_id, origin, pid):
        context = TraceContext(trace=trace, span_id=span_id, origin=origin, pid=pid)
        packed = TRACE_CONTEXT.encode(*context)
        assert packed == Packer().str(trace).u64(span_id).str(origin).u64(pid).pack()
        assert TraceContext(*TRACE_CONTEXT.decode(packed)) == context

    def test_absent_trailer_reads_as_none(self):
        frame_only = Packer().bytes(make_frame().to_bytes())
        assert wire.decode_message(frame_only.pack()).trace is None
        assert wire.decode_message(frame_only.u8(0).pack()).trace is None

    @given(
        span_id=st.integers(min_value=0, max_value=2**64 - 1),
        origin=st.text(max_size=20),
    )
    @settings(max_examples=25)
    def test_message_roundtrip_with_context(self, span_id, origin):
        context = TraceContext(trace="t-1", span_id=span_id, origin=origin, pid=123)
        body = wire.encode_message(make_frame(), trace=context)
        message = wire.decode_message(body)
        assert message.trace == context
        assert message.frame.payload == b"\x01\x02"

    def test_message_without_context(self):
        message = wire.decode_message(wire.encode_message(make_frame()))
        assert message.trace is None

    def test_trailer_does_not_change_untraced_encoding_length_much(self):
        # The no-context trailer is exactly one flag byte.
        plain_legacy_like = wire.encode_message(make_frame())
        with_ctx = wire.encode_message(
            make_frame(), trace=TraceContext("t", 1, "client", 1)
        )
        assert len(with_ctx) > len(plain_legacy_like)


class TestErrorEndpoint:
    def test_known_error_carries_endpoint(self):
        payload = wire.encode_error(RoundError("round closed"), endpoint="mix3")
        exc = wire.decode_error(payload)
        assert isinstance(exc, RoundError)
        assert str(exc) == "round closed"
        assert exc.remote_endpoint == "mix3"

    def test_foreign_error_names_endpoint_in_message(self):
        payload = wire.encode_error(ValueError("boom"), endpoint="entry")
        exc = wire.decode_error(payload)
        assert isinstance(exc, RemoteCallError)
        assert "entry" in str(exc)
        assert exc.remote_endpoint == "entry"

    def test_endpointless_payload_still_decodes(self):
        # An error payload without the endpoint field (older sender).
        payload = Packer().str("RoundError").str("closed").pack()
        exc = wire.decode_error(payload)
        assert isinstance(exc, RoundError)
        assert exc.remote_endpoint == ""

    def test_runtime_error_reply_names_raising_server(self):
        with AsyncioTransport() as transport:
            def handler(request):
                raise ValueError("handler exploded")

            transport.register("pkg0", handler)
            with pytest.raises(RemoteCallError) as info:
                transport.call("client", "pkg0", "extract")
            assert info.value.remote_endpoint == "pkg0"
            assert "pkg0" in str(info.value)


class TestRssBytes:
    def test_rss_is_nonnegative(self):
        assert rss_bytes() >= 0


class TestSpanLinkage:
    def test_call_and_serve_spans_link_over_tcp(self, tracer):
        with AsyncioTransport() as transport:
            def handler(request):
                return RpcResult(payload=request.payload)

            transport.register("server", handler)
            transport.call("client", "server", "echo", b"hi")

        spans = [s.to_dict() for s in tracer.spans]
        calls = [s for s in spans if s["name"] == "rpc.call"]
        serves = [s for s in spans if s["name"] == "rpc.serve"]
        assert len(calls) == 1 and len(serves) == 1
        assert serves[0]["args"]["parent_span"] == calls[0]["span_id"]
        assert serves[0]["track"] == "server"
        assert serves[0]["args"]["queue_s"] >= 0.0
        assert calls[0]["wall_dur"] >= serves[0]["wall_dur"]

    def test_batch_calls_record_linked_spans(self, tracer):
        with AsyncioTransport() as transport:
            def handler(request):
                return RpcResult(payload=request.payload)

            # Two destinations: the wave pipelines one group per endpoint,
            # and each message of a group still carries its own context.
            transport.register("server", handler)
            transport.register("other", handler)
            outcomes = transport.call_batch(
                [
                    BatchCall("c", ("server", "other")[i % 2], "echo", payload=bytes([i]))
                    for i in range(8)
                ]
            )
            assert all(o.error is None for o in outcomes)

        spans = [s.to_dict() for s in tracer.spans]
        call_ids = {s["span_id"] for s in spans if s["name"] == "rpc.call"}
        parents = [s["args"]["parent_span"] for s in spans if s["name"] == "rpc.serve"]
        assert len(call_ids) == 8
        assert sorted(parents) == sorted(call_ids)

    def test_exported_trace_validates_with_propagation(self, tracer):
        with AsyncioTransport() as transport:
            def handler(request):
                return RpcResult(payload=b"")

            transport.register("server", handler)
            for _ in range(3):
                transport.call("client", "server", "ping")
        events = tracer.to_trace_events()
        assert validate_trace_events(events, min_propagation=0.95) == []
        coverage = propagation_coverage(events)
        assert coverage == {"serve": 3, "resolved": 3, "fraction": 1.0}


class TestRuntimeAttribution:
    def test_buckets_split_network_queue_handler_crypto(self):
        tracer = Tracer()
        sid = tracer.next_span_id()
        tracer.record_span(
            "rpc.call", category="rpc", track="client",
            wall_start=0.0, wall_end=1.0, span_id=sid, dst="mix0", method="mix",
        )
        tracer.add_remote_spans(4242, [{
            "name": "rpc.serve", "cat": "rpc", "track": "mix0",
            "wall_start": 0.3, "wall_dur": 0.5, "depth": 0,
            "args": {"parent_span": sid, "queue_s": 0.1, "crypto_s": 0.2},
        }])
        buckets = runtime_attribution(tracer)
        assert set(buckets) == {"mix0"}
        entry = buckets["mix0"]
        assert entry["calls"] == 1 and entry["rpcs"] == 1
        assert entry["crypto_s"] == pytest.approx(0.2)
        assert entry["handler_s"] == pytest.approx(0.3)  # 0.5 wall - 0.2 crypto
        assert entry["queue_s"] == pytest.approx(0.1)
        assert entry["network_s"] == pytest.approx(0.4)  # 1.0 - 0.5 - 0.1

    def test_unmatched_call_attributes_to_network(self):
        tracer = Tracer()
        tracer.record_span(
            "rpc.call", category="rpc", track="client",
            wall_start=0.0, wall_end=0.25, dst="pkg0", method="extract",
        )
        buckets = runtime_attribution(tracer)
        assert buckets["pkg0"]["network_s"] == pytest.approx(0.25)
        assert buckets["pkg0"]["rpcs"] == 0


class TestValidatorExtensions:
    def test_negative_ts_is_a_problem(self):
        events = [
            {"ph": "B", "pid": 3, "tid": 1, "ts": -5.0, "name": "x"},
            {"ph": "E", "pid": 3, "tid": 1, "ts": 1.0, "name": "x"},
        ]
        problems = validate_trace_events(events)
        assert any("negative ts" in p for p in problems)

    def test_per_pid_balance_is_enforced(self):
        events = [
            {"ph": "B", "pid": 3, "tid": 1, "ts": 0.0, "name": "x"},
            {"ph": "E", "pid": 4, "tid": 1, "ts": 1.0, "name": "x"},
        ]
        problems = validate_trace_events(events)
        assert any("no open B" in p for p in problems)
        assert any("unclosed B" in p for p in problems)

    def test_propagation_threshold(self):
        events = [
            {"ph": "B", "pid": 2, "tid": 1, "ts": 0.0, "name": "rpc.call",
             "args": {"span_id": 11}},
            {"ph": "E", "pid": 2, "tid": 1, "ts": 1.0, "name": "rpc.call"},
            {"ph": "B", "pid": 9, "tid": 1, "ts": 0.5, "name": "rpc.serve",
             "args": {"parent_span": 11}},
            {"ph": "E", "pid": 9, "tid": 1, "ts": 0.9, "name": "rpc.serve"},
            {"ph": "B", "pid": 9, "tid": 1, "ts": 2.0, "name": "rpc.serve",
             "args": {"parent_span": 999}},
            {"ph": "E", "pid": 9, "tid": 1, "ts": 2.1, "name": "rpc.serve"},
        ]
        assert validate_trace_events(events) == []
        assert validate_trace_events(events, min_propagation=0.5) == []
        problems = validate_trace_events(events, min_propagation=0.95)
        assert any("propagation coverage" in p for p in problems)

    def test_empty_trace_has_full_coverage(self):
        assert propagation_coverage([]) == {"serve": 0, "resolved": 0, "fraction": 1.0}


class TestWorkerTelemetry:
    def test_mp_worker_spans_merged_after_close(self, tracer):
        from repro.net.rpc import MixStub

        specs = [[mix_endpoint_spec("mix0", "seed/mix/0")]]
        transport = MultiprocessTransport(specs)
        try:
            MixStub(transport, "mix0", src="entry").open_round("dialing", 1)
            harvested = transport.harvest_telemetry()
            assert len(harvested) == 1
            assert harvested[0].label == "worker-0"
            assert harvested[0].pid > 2
        finally:
            transport.close()
        # Worker spans landed in the coordinator tracer under the worker pid.
        assert any(s["name"] == "rpc.serve" for s in tracer.remote_spans)
        assert all(s["pid"] == harvested[0].pid for s in tracer.remote_spans)
        # The worker process is declared for the merged export.
        assert tracer.remote_processes[harvested[0].pid]["endpoints"] == ["mix0"]
        # The per-endpoint numbers are runtime_attribution's, from those spans
        # (a run record's trace.runtime.<endpoint>.rpcs).
        assert runtime_attribution(tracer)["mix0"]["rpcs"] >= 1
        # Export validates, one process per OS pid.
        events = tracer.to_trace_events()
        assert validate_trace_events(events, min_propagation=0.95) == []
        assert any(e["pid"] == harvested[0].pid for e in events if e["ph"] == "B")

    def test_worker_serve_span_lies_inside_its_call_span(self, tracer):
        """Worker spans go into the merged trace unshifted: every process on
        the host reads one ``perf_counter`` clock, so a worker's ``rpc.serve``
        lies inside the parent's ``rpc.call`` that caused it."""
        from repro.net.rpc import MixStub

        with MultiprocessTransport([[mix_endpoint_spec("mix0", "seed/mix/0")]]) as transport:
            stub = MixStub(transport, "mix0", src="entry")
            pk = stub.open_round("dialing", 1)
            assert stub.round_public_key("dialing", 1) == pk
        calls = {
            span["span_id"]: span
            for span in (s.to_dict() for s in tracer.spans)
            if span["name"] == "rpc.call"
        }
        serves = [s for s in tracer.remote_spans if s["name"] == "rpc.serve"]
        assert len(serves) == 2
        for serve in serves:
            call = calls[serve["args"]["parent_span"]]
            assert call["wall_start"] <= serve["wall_start"]
            assert serve["wall_start"] + serve["wall_dur"] <= call["wall_start"] + call["wall_dur"]

    def test_worker_serve_spans_wait_in_no_queue(self, tracer):
        """A worker serves each group inline on its own loop, with no hop to
        a handler thread, so on a traced mp run every ``rpc.serve`` span it
        ships carries a ``queue_s`` of about zero."""
        from repro.sim.scenarios import make_scenario

        make_scenario(
            "baseline", runtime="mp", num_clients=8, addfriend_rounds=1, dialing_rounds=1,
            seed="inline-serve",
        ).run()
        queued = [s["args"]["queue_s"] for s in tracer.remote_spans if s["name"] == "rpc.serve"]
        assert len(queued) == 12  # open, process_batch and close on two mixes, two rounds
        assert max(queued) < 0.005

    def test_untraced_mp_run_ships_no_telemetry(self):
        from repro.net.rpc import MixStub

        specs = [[mix_endpoint_spec("mix0", "seed/mix/0")]]
        transport = MultiprocessTransport(specs)
        try:
            MixStub(transport, "mix0", src="entry").open_round("dialing", 1)
            assert transport.harvest_telemetry() == []
        finally:
            transport.close()
