"""Distributed observability: trace context, telemetry, attribution.

The simulator's tracer (:mod:`repro.obs.trace`) is process-local; the real
runtimes (:mod:`repro.runtime`) span OS processes.  This module holds the
pieces that bridge them, in the spirit of Dapper-style context propagation:

* :class:`TraceContext` — the trailer every runtime RPC carries on the wire
  (trace id, parent span id, origin endpoint, origin pid), so the server
  side can record an ``rpc.serve`` span linked to the client's ``rpc.call``
  span.  :data:`TRACE_CONTEXT` is its layout; :mod:`repro.runtime.wire`
  declares it an optional trailer, and absent bytes decode as "no context".
* :data:`PING_REPLY` — the one ping a worker answers at the port-map
  handshake: its pid and RSS.  A worker's span timestamps need no shift:
  ``time.perf_counter`` is ``CLOCK_MONOTONIC``, one clock for every
  process on the host.
* :class:`WorkerTelemetry` — the payload a worker's ``collect_telemetry``
  control RPC ships back: drained spans and process vitals (RSS).
* :func:`runtime_attribution` — per-endpoint wall buckets
  (network / queue-wait / handler / crypto) computed from the merged
  ``rpc.call`` / ``rpc.serve`` span pairs; :func:`trace_section` puts it,
  with the tracer's own report and the stage coverage, in a traced run
  record's ``trace`` section.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, NamedTuple

from ..utils.serialization import F64, U64, Message, Str
from .trace import CATEGORY_STAGE, Tracer, propagation_coverage

__all__ = [
    "PING_REPLY",
    "TRACE_CONTEXT",
    "TraceContext",
    "WorkerTelemetry",
    "ping_reply",
    "rss_bytes",
    "runtime_attribution",
    "trace_section",
]


class TraceContext(NamedTuple):
    """The trace-context trailer carried by runtime wire messages: the value
    of :data:`TRACE_CONTEXT`."""

    trace: str
    span_id: int
    origin: str
    pid: int


TRACE_CONTEXT = Message(
    "trace_context", Str("trace"), U64("span_id"), Str("origin"), U64("pid"),
    note="sent only when the sender traces; never charged to bandwidth",
)


# ----------------------------------------------------------------------
# the handshake ping

#: A worker's ping reply: its clock, RSS, and pid.  The clock stays in the
#: layout, but the parent reads only the RSS and the pid.
PING_REPLY = Message("ping_reply", F64("clock"), U64("rss"), U64("pid"))


def ping_reply() -> bytes:
    return PING_REPLY.encode(time.perf_counter(), rss_bytes(), os.getpid())


def rss_bytes() -> int:
    """Resident set size of this process in bytes (0 where unsupported)."""
    try:
        with open("/proc/self/status", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return 0


# ----------------------------------------------------------------------
# worker telemetry


@dataclass
class WorkerTelemetry:
    """One harvest from one worker process's ``collect_telemetry`` RPC."""

    pid: int
    label: str
    endpoints: list[str]
    spans: list[dict[str, Any]]
    rss: int = 0

    def to_payload(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "label": self.label,
            "endpoints": self.endpoints,
            "spans": self.spans,
            "rss": self.rss,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "WorkerTelemetry":
        return cls(
            pid=int(payload.get("pid", 0)),
            label=str(payload.get("label", "")),
            endpoints=list(payload.get("endpoints", [])),
            spans=list(payload.get("spans", [])),
            rss=int(payload.get("rss", 0)),
        )


# ----------------------------------------------------------------------
# per-endpoint runtime attribution


def runtime_attribution(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per-endpoint wall buckets from merged ``rpc.call``/``rpc.serve`` pairs.

    For every server endpoint: ``network_s`` (client call wall minus the
    matched serve span's queue + handler time — wire, kernel, and event-loop
    scheduling), ``queue_s`` (arrival to handler start: an in-parent
    endpoint's executor hop, and the requests ahead in its group), ``handler_s``
    (handler execution excluding crypto), ``crypto_s`` (engine calls inside
    the handler), plus ``calls`` (client-side) and ``rpcs`` (server-side)
    counts.  Unmatched calls attribute their full wall to ``network_s``.
    """
    local = (span.to_dict() for span in tracer.spans)
    spans = [s for s in local if s.get("cat") == "rpc"]
    spans.extend(s for s in tracer.remote_spans if s.get("cat") == "rpc")

    buckets: dict[str, dict[str, float]] = {}

    def bucket(endpoint: str) -> dict[str, float]:
        entry = buckets.get(endpoint)
        if entry is None:
            entry = buckets[endpoint] = {
                "network_s": 0.0,
                "queue_s": 0.0,
                "handler_s": 0.0,
                "crypto_s": 0.0,
                "calls": 0,
                "rpcs": 0,
            }
        return entry

    # parent span id -> (serve wall, queue wait) for network_s matching.
    serve_by_parent: dict[int, tuple[float, float]] = {}
    calls: list[dict[str, Any]] = []
    for span in spans:
        args = span.get("args") or {}
        if span.get("name") == "rpc.serve":
            endpoint = str(span.get("track") or args.get("endpoint") or "?")
            entry = bucket(endpoint)
            wall = float(span.get("wall_dur", 0.0))
            queue_s = float(args.get("queue_s", 0.0) or 0.0)
            crypto_s = float(args.get("crypto_s", 0.0) or 0.0)
            entry["queue_s"] += queue_s
            entry["crypto_s"] += crypto_s
            entry["handler_s"] += max(0.0, wall - crypto_s)
            entry["rpcs"] += 1
            parent = args.get("parent_span")
            if isinstance(parent, int):
                serve_by_parent[parent] = (wall, queue_s)
        elif span.get("name") == "rpc.call":
            calls.append(span)
    for span in calls:
        args = span.get("args") or {}
        endpoint = str(args.get("dst") or "?")
        entry = bucket(endpoint)
        entry["calls"] += 1
        wall = float(span.get("wall_dur", 0.0))
        matched = serve_by_parent.get(int(span.get("span_id", 0) or 0))
        if matched is not None:
            serve_wall, queue_s = matched
            entry["network_s"] += max(0.0, wall - serve_wall - queue_s)
        else:
            entry["network_s"] += wall
    for entry in buckets.values():
        for key in ("network_s", "queue_s", "handler_s", "crypto_s"):
            entry[key] = round(entry[key], 6)
    return dict(sorted(buckets.items()))


def trace_section(tracer: Tracer, rounds) -> dict[str, Any]:
    """A traced run record's ``trace`` section.

    The tracer's report (stage totals, stage x category self time, per-op
    crypto cost), ``coverage`` (the stage spans' simulated durations against
    the measured round latency, both over the run's completed ``rounds``;
    1.0 when they tile it) and, on the real runtimes, the per-endpoint
    ``runtime`` attribution plus ``propagation`` (how many ``rpc.serve``
    spans resolved a remote parent).
    """
    section = tracer.report()
    # An aborted round records no latency, so the stage spans it got through
    # before failing must not count either.
    latency = {(r.protocol, r.round_number): r.latency_s for r in rounds if not r.aborted}
    stage_sim = sum(
        span.sim_duration
        for span in tracer.spans
        if span.category == CATEGORY_STAGE
        and (span.args.get("protocol"), span.args.get("round")) in latency
    )
    round_latency_s = sum(latency.values())
    section["coverage"] = {
        "stage_sim_s": stage_sim,
        "round_latency_s": round_latency_s,
        "fraction": (stage_sim / round_latency_s) if round_latency_s else 1.0,
    }
    runtime = runtime_attribution(tracer)
    if runtime:
        section["runtime"] = runtime
        section["propagation"] = propagation_coverage(tracer.to_trace_events())
    return section
