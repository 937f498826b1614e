"""Distributed observability: trace context, clock alignment, telemetry.

The simulator's tracer (:mod:`repro.obs.trace`) is process-local; the real
runtimes (:mod:`repro.runtime`) span OS processes.  This module holds the
pieces that bridge them, in the spirit of Dapper-style context propagation:

* :class:`TraceContext` — the trailer every runtime RPC carries on the wire
  (trace id, parent span id, origin endpoint, origin pid), so the server
  side can record an ``rpc.serve`` span linked to the client's ``rpc.call``
  span.  :data:`TRACE_CONTEXT` is its layout; :mod:`repro.runtime.wire`
  declares it an optional trailer, and absent bytes decode as "no context".
* :func:`estimate_clock_offset` — workers and the coordinator each run
  their own ``time.perf_counter`` (arbitrary epoch per process), so worker
  span timestamps are meaningless until shifted.  The mp transport pings
  each worker a few times at the port-map handshake; the minimum-RTT sample
  gives the least-skewed midpoint estimate (classic NTP-style reasoning).
* :class:`WorkerTelemetry` — the payload a worker's ``collect_telemetry``
  control RPC ships back: drained spans, a metrics snapshot, and process
  vitals (RSS).  :func:`merge_worker_metrics` folds the snapshot into the
  coordinator registry under the ``endpoint.<name>.`` prefix.
* :func:`runtime_attribution` — per-endpoint wall buckets
  (network / queue-wait / handler / crypto) computed from the merged
  ``rpc.call`` / ``rpc.serve`` span pairs; lands in ``BENCH_trace.json``
  for real-runtime traced runs.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, NamedTuple

from ..utils.serialization import F64, U64, Message, Str
from .metrics import MetricsRegistry
from .trace import Tracer

__all__ = [
    "PING_REPLY",
    "TRACE_CONTEXT",
    "TraceContext",
    "WorkerTelemetry",
    "estimate_clock_offset",
    "merge_worker_metrics",
    "ping_reply",
    "rss_bytes",
    "runtime_attribution",
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
# clock alignment


def estimate_clock_offset(samples: list[tuple[float, float, float]]) -> float:
    """Estimate a worker's ``perf_counter`` offset from ping samples.

    Each sample is ``(t0, t1, worker_t)``: coordinator clock just before the
    ping, just after the reply, and the worker clock read while serving it.
    Assuming symmetric network delay, the worker read maps to the midpoint
    ``(t0 + t1) / 2`` on the coordinator clock, so the offset is
    ``worker_t - midpoint``.  The sample with the smallest round-trip bounds
    the asymmetry error tightest, so it wins.  Returns ``0.0`` for no
    samples; ``worker_t - offset`` lands on the coordinator timeline.
    """
    best_rtt = float("inf")
    offset = 0.0
    for t0, t1, worker_t in samples:
        rtt = t1 - t0
        if 0 <= rtt < best_rtt:
            best_rtt = rtt
            offset = worker_t - (t0 + t1) / 2
    return offset


#: A worker's clock-ping reply: its clock, RSS, and pid.
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
    metrics: dict[str, Any]
    rss: int = 0

    def to_payload(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "label": self.label,
            "endpoints": self.endpoints,
            "spans": self.spans,
            "metrics": self.metrics,
            "rss": self.rss,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "WorkerTelemetry":
        return cls(
            pid=int(payload.get("pid", 0)),
            label=str(payload.get("label", "")),
            endpoints=list(payload.get("endpoints", [])),
            spans=list(payload.get("spans", [])),
            metrics=dict(payload.get("metrics", {})),
            rss=int(payload.get("rss", 0)),
        )


def merge_worker_metrics(registry: MetricsRegistry, telemetry: WorkerTelemetry) -> None:
    """Fold a worker snapshot into the coordinator registry.

    Worker metric names already lead with the endpoint name
    (``mix0.rpcs``, ...), so the fixed ``endpoint.`` prefix yields the
    documented ``endpoint.<name>.<metric>`` namespace.
    """
    registry.merge_snapshot(telemetry.metrics, prefix="endpoint.")


# ----------------------------------------------------------------------
# per-endpoint runtime attribution


def runtime_attribution(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per-endpoint wall buckets from merged ``rpc.call``/``rpc.serve`` pairs.

    For every server endpoint: ``network_s`` (client call wall minus the
    matched serve span's queue + handler time — wire, kernel, and event-loop
    scheduling), ``queue_s`` (handler-executor queue wait), ``handler_s``
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
