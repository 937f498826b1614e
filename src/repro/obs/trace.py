"""Per-stage round tracing over two clocks, exportable to Perfetto.

A :class:`Span` measures one operation on both the deployment's *simulated*
clock (what the simulated network's clock says the operation took) and the
host's *wall* clock (what it actually cost to execute).  The two disagree
on purpose: under :class:`~repro.net.simulated.SimulatedNetwork` a server
handler runs at a single simulated instant yet burns real CPU, and
concurrent phase tasks share one simulated interval while executing
sequentially in wall time.  That sequential execution is what makes the
wall-clock side of the trace a proper *stack*: spans nest, so each span's
self time (wall minus children) attributes cleanly to a category —
``transport`` (frame codec + RPC bookkeeping), ``crypto`` (engine calls),
``mix`` / ``cluster`` (server-side batch work), or ``other`` (Python object
churn in the stage body itself).

Span categories (every in-process span but ``rpc`` is opened by a wrapper
:mod:`repro.obs.instrument` puts on a deployment's public seams):

* ``stage`` -- the four round stages, ``RoundEngine.announce`` /
  ``submit`` / ``mix`` / ``scan``, one track per protocol.
  Their simulated durations tile ``RoundSummary.latency_s`` exactly in
  sequential mode.
* ``transport`` -- one (unkept) span per RPC or per ``call_batch`` wave;
  feeds attribution only.
* ``crypto`` -- engine ops via ``InstrumentedCryptoBackend``; batch calls
  are kept as real spans, single ops feed attribution only.
* ``mix`` / ``cluster`` -- ``MixServer.process_batch``, the entry
  server's shard broadcasts/collects, and ``IngressProxy`` flushes.

Exports: :meth:`Tracer.write_jsonl` (one span dict per line),
:meth:`Tracer.write_chrome_trace` (Chrome/Perfetto ``trace_event`` JSON
with a simulated-time timeline and a wall-clock flame chart as two
processes), and :meth:`Tracer.report` (the attribution summary that lands
in a run record's ``trace`` section).  :func:`validate_trace_events` checks an emitted
trace for schema problems; CI runs it via ``python -m repro.obs validate``.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = [
    "CATEGORY_CRYPTO",
    "CATEGORY_RPC",
    "CATEGORY_STAGE",
    "CATEGORY_TRANSPORT",
    "Span",
    "Tracer",
    "active_tracer",
    "propagation_coverage",
    "set_active_tracer",
    "validate_trace_events",
]

CATEGORY_STAGE = "stage"
CATEGORY_TRANSPORT = "transport"
CATEGORY_CRYPTO = "crypto"
CATEGORY_MIX = "mix"
CATEGORY_CLUSTER = "cluster"
#: Real-runtime RPC spans: client-side ``rpc.call`` and server-side
#: ``rpc.serve`` pairs linked by the wire's trace-context trailer (see
#: :mod:`repro.obs.distributed`).
CATEGORY_RPC = "rpc"
CATEGORY_OTHER = "other"

#: Trace-event process ids: simulated-time timeline vs wall-clock flame chart.
#: Distributed runs add one further process per worker OS pid (real pids are
#: always > 2 on any POSIX host, so they cannot collide with these).
SIM_PID = 1
WALL_PID = 2

#: Key used when a non-stage span ends with no enclosing stage span.
UNSTAGED = "unstaged"


class Span:
    """One traced operation, measured on the simulated and wall clocks."""

    __slots__ = (
        "name",
        "category",
        "track",
        "sim_start",
        "sim_end",
        "wall_start",
        "wall_end",
        "args",
        "keep",
        "depth",
        "child_wall",
        "crypto_wall",
        "span_id",
        "thread",
    )

    def __init__(
        self,
        name: str,
        category: str,
        track: str,
        sim_start: float,
        wall_start: float,
        args: dict[str, Any],
        keep: bool,
        depth: int,
        span_id: int = 0,
        thread: str = "",
    ) -> None:
        self.name = name
        self.category = category
        self.track = track
        self.sim_start = sim_start
        self.sim_end = sim_start
        self.wall_start = wall_start
        self.wall_end = wall_start
        self.args = args
        self.keep = keep
        self.depth = depth
        self.child_wall = 0.0
        #: Wall seconds spent in enclosed crypto-category spans (rolled up
        #: through non-crypto children), so an ``rpc.serve`` span can split
        #: its handler time into crypto vs the rest.
        self.crypto_wall = 0.0
        self.span_id = span_id
        self.thread = thread

    @property
    def sim_duration(self) -> float:
        return max(0.0, self.sim_end - self.sim_start)

    @property
    def wall_duration(self) -> float:
        return max(0.0, self.wall_end - self.wall_start)

    @property
    def self_wall(self) -> float:
        """Wall time spent in this span excluding enclosed child spans."""
        return max(0.0, self.wall_duration - self.child_wall)

    def set(self, **args: Any) -> "Span":
        """Attach extra attributes; chainable inside a ``with`` block."""
        self.args.update(args)
        return self

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "cat": self.category,
            "track": self.track,
            "sim_start": self.sim_start,
            "sim_dur": self.sim_duration,
            "wall_start": self.wall_start,
            "wall_dur": self.wall_duration,
            "self_wall": self.self_wall,
            "depth": self.depth,
            "span_id": self.span_id,
            "thread": self.thread,
            "args": _json_safe(self.args),
        }


class Tracer:
    """Records spans; one instance per traced run.

    The simulated clock is injected as a zero-arg callable so the tracer can
    be constructed before the deployment exists; instrumenting a deployment
    (:func:`repro.obs.instrument.instrument`) calls :meth:`bind_clock` with
    its ``transport.now``.
    """

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self.clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self.spans: list[Span] = []
        self.wall_epoch = time.perf_counter()
        #: Identifies this traced run; propagated to peers over the wire so
        #: server-side spans can tie back to the originating run.
        self.trace_id = f"{os.getpid():x}-{os.urandom(6).hex()}"
        # Real-runtime handlers end spans on executor threads, so the open
        # stack is per-thread; sim runs only ever see the main thread's.
        self._tls = threading.local()
        # Serializes span recording and attribution across those threads.
        self._lock = threading.Lock()
        # Span ids are unique across cooperating processes: high bits are
        # the OS pid, low bits a per-tracer counter.
        self._id_base = os.getpid() << 32
        self._ids = itertools.count(1)
        # (protocol/stage) key -> category -> self-wall seconds.
        self._attribution: dict[str, dict[str, float]] = {}
        # (protocol/stage) key -> aggregate sim/wall/bytes/count totals.
        self._stage_totals: dict[str, dict[str, float]] = {}
        # crypto op name -> [calls, items, wall seconds], from crypto spans.
        self._crypto_ops: dict[str, list] = {}
        #: Spans harvested from worker processes (plain ``Span.to_dict``
        #: dicts, wall clocks already aligned to this process's
        #: ``time.perf_counter`` timeline) plus per-pid process labels.
        self.remote_spans: list[dict[str, Any]] = []
        self.remote_processes: dict[int, dict[str, Any]] = {}

    @property
    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self.clock = clock

    def next_span_id(self) -> int:
        return self._id_base | next(self._ids)

    # ------------------------------------------------------------------
    # span lifecycle

    def start(
        self,
        name: str,
        category: str = CATEGORY_OTHER,
        track: str | None = None,
        keep: bool = True,
        **args: Any,
    ) -> Span:
        stack = self._stack
        span = Span(
            name,
            category,
            track if track is not None else name,
            self.clock(),
            time.perf_counter(),
            args,
            keep,
            len(stack),
            self.next_span_id(),
            threading.current_thread().name,
        )
        stack.append(span)
        return span

    def end(self, span: Span, **args: Any) -> Span:
        if args:
            span.args.update(args)
        span.sim_end = self.clock()
        span.wall_end = time.perf_counter()
        # Pop down to the span being ended; tolerates children that leaked
        # past their own end() (an instrumentation bug, not a crash).
        stack = self._stack
        while stack:
            if stack.pop() is span:
                break
        if stack:
            parent = stack[-1]
            parent.child_wall += span.wall_duration
            # Roll crypto time up so any enclosing span (an rpc.serve, a
            # stage) can split its wall into crypto vs everything else.
            if span.category == CATEGORY_CRYPTO:
                parent.crypto_wall += span.wall_duration
            else:
                parent.crypto_wall += span.crypto_wall
        with self._lock:
            self._account(span)
            if span.keep:
                self.spans.append(span)
        return span

    def record_span(
        self,
        name: str,
        category: str = CATEGORY_OTHER,
        track: str | None = None,
        wall_start: float = 0.0,
        wall_end: float = 0.0,
        span_id: int | None = None,
        keep: bool = True,
        **args: Any,
    ) -> Span:
        """Record an already-measured span without stack participation.

        For operations whose concurrency breaks the stack discipline -- a
        batch wave of RPCs is N overlapping calls on one thread -- the
        caller measures ``wall_start``/``wall_end`` itself (same
        ``time.perf_counter`` timescale) and records the finished span here.
        """
        stack = self._stack
        span = Span(
            name,
            category,
            track if track is not None else name,
            self.clock(),
            wall_start,
            args,
            keep,
            len(stack),
            span_id if span_id is not None else self.next_span_id(),
            threading.current_thread().name,
        )
        span.sim_end = span.sim_start
        span.wall_end = wall_end
        with self._lock:
            self._account(span)
            if span.keep:
                self.spans.append(span)
        return span

    @contextmanager
    def span(
        self,
        name: str,
        category: str = CATEGORY_OTHER,
        track: str | None = None,
        keep: bool = True,
        **args: Any,
    ) -> Iterator[Span]:
        sp = self.start(name, category=category, track=track, keep=keep, **args)
        try:
            yield sp
        finally:
            self.end(sp)

    # ------------------------------------------------------------------
    # distributed runs: spans harvested from worker processes

    def drain_spans(self) -> list[dict[str, Any]]:
        """Atomically take every recorded span as plain dicts (worker side).

        A worker's telemetry RPC drains incrementally, so repeated harvests
        ship each span exactly once.
        """
        with self._lock:
            spans, self.spans = self.spans, []
        return [span.to_dict() for span in spans]

    def add_remote_process(self, pid: int, label: str, endpoints: list[str]) -> None:
        """Declare one worker OS process for the merged Perfetto export."""
        with self._lock:
            self.remote_processes[pid] = {"label": label, "endpoints": list(endpoints)}

    def add_remote_spans(
        self, pid: int, spans: list[dict[str, Any]], clock_offset_s: float = 0.0
    ) -> None:
        """Merge harvested worker spans, aligning their wall clocks.

        ``clock_offset_s`` is the ping-estimated offset such that
        ``worker_perf_counter - clock_offset_s`` lands on this process's
        ``time.perf_counter`` timeline (see
        :func:`repro.obs.distributed.estimate_clock_offset`).
        """
        adjusted = []
        for span in spans:
            span = dict(span)
            span["pid"] = pid
            span["wall_start"] = span.get("wall_start", 0.0) - clock_offset_s
            adjusted.append(span)
        with self._lock:
            self.remote_spans.extend(adjusted)

    # ------------------------------------------------------------------
    # attribution

    @staticmethod
    def _stage_key(span: Span) -> str:
        protocol = span.args.get("protocol", span.track)
        return f"{protocol}/{span.name}"

    def _enclosing_stage(self) -> str:
        for frame in reversed(self._stack):
            if frame.category == CATEGORY_STAGE:
                return self._stage_key(frame)
        return UNSTAGED

    def _account(self, span: Span) -> None:
        if span.category == CATEGORY_STAGE:
            key = self._stage_key(span)
            totals = self._stage_totals.setdefault(
                key, {"sim_s": 0.0, "wall_s": 0.0, "bytes": 0, "count": 0}
            )
            totals["sim_s"] += span.sim_duration
            totals["wall_s"] += span.wall_duration
            totals["bytes"] += int(span.args.get("bytes", 0) or 0)
            totals["count"] += 1
            # A stage's own self time is the Python churn its body performs
            # outside any instrumented call.
            bucket_key, category = key, CATEGORY_OTHER
        else:
            bucket_key, category = self._enclosing_stage(), span.category
            if category == CATEGORY_CRYPTO:
                op = self._crypto_ops.setdefault(span.name, [0, 0, 0.0])
                op[0] += 1
                op[1] += span.args.get("count", 1)
                op[2] += span.wall_duration
        bucket = self._attribution.setdefault(bucket_key, {})
        bucket[category] = bucket.get(category, 0.0) + span.self_wall

    # ------------------------------------------------------------------
    # export

    def to_trace_events(self) -> list[dict[str, Any]]:
        """Chrome/Perfetto ``trace_event`` list.

        Process layout: pid ``SIM_PID`` holds the simulated-time timeline
        (stage spans as complete ``X`` events, one track per protocol), pid
        ``WALL_PID`` holds this process's wall-clock flame chart (every kept
        span as a balanced ``B``/``E`` pair, one track per recording
        thread), and -- for distributed runs -- every harvested worker
        process appears under its real OS pid with one named track per
        endpoint.  Timestamps are microseconds, as the format requires.
        """
        main_thread = threading.main_thread().name
        events: list[dict[str, Any]] = [
            _meta(SIM_PID, 0, "process_name", name="simulated time"),
            _meta(
                WALL_PID, 0, "process_name",
                name=f"wall clock (coordinator pid {os.getpid()})",
            ),
            _meta(WALL_PID, 1, "thread_name", name="run"),
        ]
        tids: dict[str, int] = {}
        wall_tids: dict[str, int] = {main_thread: 1}
        sim_events: list[dict[str, Any]] = []
        wall_events: list[tuple[int, float, int, dict[str, Any]]] = []
        for span in self.spans:
            if span.category == CATEGORY_STAGE:
                if span.track not in tids:
                    tids[span.track] = len(tids) + 1
                    events.append(
                        _meta(SIM_PID, tids[span.track], "thread_name", name=span.track)
                    )
                sim_events.append(
                    {
                        "name": span.name,
                        "cat": span.category,
                        "ph": "X",
                        "pid": SIM_PID,
                        "tid": tids[span.track],
                        "ts": round(span.sim_start * 1e6, 3),
                        "dur": round(span.sim_duration * 1e6, 3),
                        "args": _json_safe(span.args),
                    }
                )
            thread = span.thread or main_thread
            tid = wall_tids.get(thread)
            if tid is None:
                tid = wall_tids[thread] = len(wall_tids) + 1
                events.append(_meta(WALL_PID, tid, "thread_name", name=thread))
            begin_ts = round((span.wall_start - self.wall_epoch) * 1e6, 3)
            end_ts = round((span.wall_end - self.wall_epoch) * 1e6, 3)
            common = {"name": span.name, "cat": span.category, "pid": WALL_PID, "tid": tid}
            wall_events.append(
                (tid, begin_ts, span.depth, {**common, "ph": "B", "ts": begin_ts, "args": _json_safe(span.args)})
            )
            # At equal timestamps a deeper span's E must precede its
            # parent's E, and any E must precede an adjacent span's B;
            # sorting by (ts, key) with E keyed below B achieves both.
            wall_events.append((tid, end_ts, -span.depth - 1, {**common, "ph": "E", "ts": end_ts}))
        sim_events.sort(key=lambda ev: (ev["tid"], ev["ts"]))
        wall_events.sort(key=lambda item: (item[0], item[1], item[2]))
        events.extend(sim_events)
        events.extend(ev for _tid, _ts, _order, ev in wall_events)
        events.extend(self._remote_trace_events())
        return events

    def _remote_trace_events(self) -> list[dict[str, Any]]:
        """One Perfetto process per worker OS pid, tracks named by endpoint."""
        if not self.remote_spans and not self.remote_processes:
            return []
        events: list[dict[str, Any]] = []
        spans_by_pid: dict[int, list[dict[str, Any]]] = {}
        for span in self.remote_spans:
            spans_by_pid.setdefault(int(span.get("pid", 0)), []).append(span)
        for pid in sorted(set(self.remote_processes) | set(spans_by_pid)):
            info = self.remote_processes.get(pid, {})
            label = info.get("label") or f"worker pid {pid}"
            events.append(_meta(pid, 0, "process_name", name=f"{label} (pid {pid})"))
            track_tids: dict[str, int] = {}
            for endpoint in info.get("endpoints", []):
                track_tids[endpoint] = len(track_tids) + 1
                events.append(_meta(pid, track_tids[endpoint], "thread_name", name=endpoint))
            pid_events: list[tuple[int, float, int, dict[str, Any]]] = []
            for span in spans_by_pid.get(pid, []):
                track = str(span.get("track") or span.get("name") or "worker")
                tid = track_tids.get(track)
                if tid is None:
                    tid = track_tids[track] = len(track_tids) + 1
                    events.append(_meta(pid, tid, "thread_name", name=track))
                # Clamp at the coordinator epoch: a worker span can map
                # fractionally before it only through offset-estimate error.
                begin_ts = max(
                    0.0, round((span.get("wall_start", 0.0) - self.wall_epoch) * 1e6, 3)
                )
                end_ts = round(begin_ts + max(0.0, span.get("wall_dur", 0.0)) * 1e6, 3)
                depth = int(span.get("depth", 0))
                common = {
                    "name": span.get("name", "?"),
                    "cat": span.get("cat", CATEGORY_OTHER),
                    "pid": pid,
                    "tid": tid,
                }
                pid_events.append(
                    (tid, begin_ts, depth,
                     {**common, "ph": "B", "ts": begin_ts, "args": _json_safe(span.get("args", {}))})
                )
                pid_events.append((tid, end_ts, -depth - 1, {**common, "ph": "E", "ts": end_ts}))
            pid_events.sort(key=lambda item: (item[0], item[1], item[2]))
            events.extend(ev for _tid, _ts, _order, ev in pid_events)
        return events

    def write_chrome_trace(self, path: str | Path) -> Path:
        path = Path(path)
        payload = {
            "traceEvents": self.to_trace_events(),
            "displayTimeUnit": "ms",
            "otherData": {"clockDomains": {str(SIM_PID): "simulated", str(WALL_PID): "wall"}},
        }
        path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
        return path

    def write_jsonl(self, path: str | Path) -> Path:
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
        return path

    def report(self) -> dict[str, Any]:
        """Stage totals, per-stage wall-clock attribution, per-op crypto cost.

        The core of a run record's ``trace`` section: for every
        ``protocol/stage`` key the simulated and wall durations, bytes moved
        and the breakdown of wall self time by category; for every crypto
        engine op its calls, items and wall seconds.
        """
        stages = {
            key: {
                "sim_s": round(totals["sim_s"], 6),
                "wall_s": round(totals["wall_s"], 6),
                "bytes": int(totals["bytes"]),
                "count": int(totals["count"]),
            }
            for key, totals in sorted(self._stage_totals.items())
        }
        attribution: dict[str, dict[str, float]] = {}
        category_totals: dict[str, float] = {}
        for key, bucket in sorted(self._attribution.items()):
            attribution[key] = {cat: round(wall, 6) for cat, wall in sorted(bucket.items())}
            for cat, wall in bucket.items():
                category_totals[cat] = category_totals.get(cat, 0.0) + wall
        return {
            "stages": stages,
            "attribution": attribution,
            "category_totals": {c: round(w, 6) for c, w in sorted(category_totals.items())},
            "crypto_ops": {
                op: {"calls": calls, "items": items, "wall_s": round(wall, 6)}
                for op, (calls, items, wall) in sorted(self._crypto_ops.items())
            },
            "span_count": len(self.spans),
        }


_active_tracer: Tracer | None = None


def active_tracer() -> Tracer | None:
    """The process-wide tracer, or ``None`` when no run is traced.

    Read where a deployment is built (:func:`repro.obs.instrument.instrument`
    wraps its seams for this tracer), by the real runtimes' RPC code (the
    span id rides the wire) and by the scenario driver (the record's
    ``trace`` section).
    """
    return _active_tracer


def set_active_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` (``None``: tracing off); returns the previous one
    so callers can restore it."""
    global _active_tracer
    previous = _active_tracer
    _active_tracer = tracer
    return previous


# ----------------------------------------------------------------------
# trace-event validation (used by CI via ``python -m repro.obs validate``)

_KNOWN_PHASES = {"B", "E", "X", "M", "I", "i", "C"}


def validate_trace_events(events: Any, min_propagation: float | None = None) -> list[str]:
    """Return a list of schema problems (empty means the trace is valid).

    Checks: the payload is a list of dicts, phases are known, ``B``/``E``
    events balance per ``(pid, tid)`` with matching names, timestamps are
    numeric, non-negative, and non-decreasing per ``(pid, tid)``, and ``X``
    durations are non-negative.  These checks are applied per pid, so a
    merged multi-process trace (one pid per worker) gets per-pid track
    balance and monotonic aligned timestamps for free.

    With ``min_propagation`` set, additionally requires that at least that
    fraction of ``rpc.serve`` spans carry a ``parent_span`` resolving to an
    ``rpc.call`` span present in the same trace (see
    :func:`propagation_coverage`).
    """
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    problems: list[str] = []
    stacks: dict[tuple[Any, Any], list[str]] = {}
    last_ts: dict[tuple[Any, Any], float] = {}
    for index, event in enumerate(events):
        where = f"event[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
            continue
        if phase == "M":
            continue
        key = (event.get("pid"), event.get("tid"))
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"{where}: non-numeric ts {ts!r}")
            continue
        if ts < 0:
            problems.append(f"{where}: negative ts {ts} (clock alignment bug)")
        if ts < last_ts.get(key, float("-inf")):
            problems.append(
                f"{where}: ts {ts} goes backwards on pid/tid {key} "
                f"(previous {last_ts[key]})"
            )
        last_ts[key] = ts
        if phase == "B":
            name = event.get("name")
            if not isinstance(name, str) or not name:
                problems.append(f"{where}: B event without a name")
                name = "?"
            stacks.setdefault(key, []).append(name)
        elif phase == "E":
            stack = stacks.get(key)
            if not stack:
                problems.append(f"{where}: E event with no open B on pid/tid {key}")
                continue
            opened = stack.pop()
            name = event.get("name")
            if name is not None and name != opened:
                problems.append(
                    f"{where}: E event name {name!r} does not match open span {opened!r}"
                )
        elif phase == "X":
            duration = event.get("dur", 0)
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append(f"{where}: X event with bad dur {duration!r}")
    for key, stack in stacks.items():
        if stack:
            problems.append(f"pid/tid {key}: {len(stack)} unclosed B event(s): {stack[-3:]}")
    if min_propagation is not None:
        coverage = propagation_coverage(events)
        if coverage["serve"] and coverage["fraction"] < min_propagation:
            problems.append(
                f"propagation coverage {coverage['fraction']:.3f} below "
                f"{min_propagation:.3f} ({coverage['resolved']}/{coverage['serve']} "
                "rpc.serve spans resolve a remote parent)"
            )
    return problems


def propagation_coverage(events: Any) -> dict[str, Any]:
    """Fraction of ``rpc.serve`` spans whose ``parent_span`` arg resolves to
    an ``rpc.call`` span in the same merged trace.

    Returns ``{"serve": n, "resolved": k, "fraction": f}``; ``fraction`` is
    1.0 when the trace has no serve spans at all (nothing to propagate to).
    """
    call_ids: set[int] = set()
    serve = resolved = 0
    if not isinstance(events, list):
        return {"serve": 0, "resolved": 0, "fraction": 1.0}
    parents: list[Any] = []
    for event in events:
        if not isinstance(event, dict) or event.get("ph") != "B":
            continue
        args = event.get("args") or {}
        if event.get("name") == "rpc.call":
            span_id = args.get("span_id")
            if isinstance(span_id, int):
                call_ids.add(span_id)
        elif event.get("name") == "rpc.serve":
            serve += 1
            parents.append(args.get("parent_span"))
    for parent in parents:
        if isinstance(parent, int) and parent in call_ids:
            resolved += 1
    return {
        "serve": serve,
        "resolved": resolved,
        "fraction": (resolved / serve) if serve else 1.0,
    }


# ----------------------------------------------------------------------
# helpers


def _meta(pid: int, tid: int, event: str, **args: Any) -> dict[str, Any]:
    return {"ph": "M", "pid": pid, "tid": tid, "ts": 0, "name": event, "args": args}


def _json_safe(args: dict[str, Any]) -> dict[str, Any]:
    return {
        key: value if isinstance(value, (str, int, float, bool)) or value is None else str(value)
        for key, value in args.items()
    }
