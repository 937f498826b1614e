"""The live scenario dashboard: stdlib ``http.server`` + Server-Sent Events.

``python -m repro.sim run SCENARIO --dashboard PORT`` starts a
:class:`DashboardServer` in a background thread and adds its
:meth:`~DashboardServer.view` to the scenario's views.  The server exposes:

* ``/`` -- a single-file web UI (no external assets) that connects an
  ``EventSource`` to ``/events`` and renders live round/stage/shard stats,
  EventBus activity counts, and run/pause/step controls;
* ``/events`` -- the SSE stream.  New subscribers first receive the replay
  of the event history (so a mid-run connection -- or an integration test
  scraping the endpoint -- sees everything so far, race-free), then live
  events as they are published.  The replay always opens with the current
  run's ``scenario_started``, however much history a long run evicted;
* ``/state`` -- the current aggregate state as one JSON object;
* ``/control?action=run|pause|step`` -- the round gate.  :meth:`~DashboardServer.view`
  calls :meth:`~DashboardServer.gate` as each round starts; ``pause``
  blocks the scenario there, ``step`` releases exactly one round
  (``--dashboard-paused`` requests ``pause`` before the run starts).

Everything is stdlib: ``ThreadingHTTPServer`` with daemon threads, a
condition variable for the gate, per-subscriber queues for fan-out.
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlparse

from repro.analysis.dp import distinguishing_advantage
from repro.obs.record import dumps
from repro.obs.logging import get_logger

__all__ = ["DashboardServer"]

#: How many recent rounds the aggregate state retains for late joiners.
MAX_STATE_ROUNDS = 200


class DashboardServer:
    """The background HTTP/SSE server; owns state, history, and the gate."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, history: int = 512) -> None:
        self.host = host
        self.port = port
        self.log = get_logger("dashboard")
        self._history: deque[dict] = deque(maxlen=history)
        self._subscribers: list[queue.SimpleQueue] = []
        self._lock = threading.Lock()
        self._seq = 0
        self._state: dict[str, Any] = {"status": "idle", "scenario": None, "rounds": []}
        #: The current run's ``scenario_started`` event, which opens every replay.
        self._started: dict | None = None
        #: The run's ``spec.runtime``: a real runtime's gauges feed the Runtime panel.
        self._runtime = "sim"
        self._gate = threading.Condition()
        self._mode = "run"
        self._steps = 0
        self._closed = False
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> int:
        """Bind and serve in a daemon thread; returns the bound port."""
        server = self

        class Handler(_DashboardHandler):
            dashboard = server

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-dashboard", daemon=True
        )
        self._thread.start()
        return self.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/"

    def stop(self) -> None:
        """Shut the server down and release anything blocked on the gate."""
        with self._gate:
            self._closed = True
            self._gate.notify_all()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    # -- event publication -------------------------------------------------
    def publish(self, event_type: str, **data: Any) -> None:
        """Record one event and fan it out to every SSE subscriber."""
        with self._lock:
            self._seq += 1
            event = {"seq": self._seq, "type": event_type, "data": data}
            self._history.append(event)
            if event_type == "scenario_started":
                self._started = event
            self._apply_to_state(event_type, data)
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            subscriber.put(event)

    def _apply_to_state(self, event_type: str, data: dict) -> None:
        if event_type == "scenario_started":
            self._state["status"] = "running"
            self._state["scenario"] = data
            self._state["rounds"] = []
        elif event_type == "round":
            rounds = self._state.setdefault("rounds", [])
            rounds.append(data)
            del rounds[:-MAX_STATE_ROUNDS]
        elif event_type == "events":
            self._state["events_by_type"] = data
        elif event_type == "shards":
            self._state["shards"] = data
        elif event_type == "net":
            self._state["net"] = data
        elif event_type == "runtime":
            self._state["runtime"] = data
        elif event_type == "privacy":
            # Keyed by protocol: the latest cumulative spend wins.
            privacy = self._state.setdefault("privacy", {})
            privacy[data.get("protocol", "?")] = data
        elif event_type == "scenario_finished":
            self._state["status"] = "finished"
            self._state["summary"] = data

    def state(self) -> dict:
        with self._lock, self._gate:
            return {**self._state, "mode": self._mode, "pending_steps": self._steps}

    def subscribe(self) -> tuple[list[dict], queue.SimpleQueue]:
        """(history replay, live queue) for one new SSE subscriber."""
        with self._lock:
            subscriber: queue.SimpleQueue = queue.SimpleQueue()
            replay = list(self._history)
            started = self._started
            if started is not None and replay[0]["seq"] > started["seq"]:
                replay.insert(0, started)  # evicted by a long run: still open with it
            self._subscribers.append(subscriber)
        return replay, subscriber

    def unsubscribe(self, subscriber: queue.SimpleQueue) -> None:
        with self._lock:
            try:
                self._subscribers.remove(subscriber)
            except ValueError:
                pass

    # -- run/pause/step gate ------------------------------------------------
    def request(self, action: str) -> str:
        """Apply a control action; returns the resulting mode."""
        with self._gate:
            if action == "run":
                self._mode = "run"
                self._steps = 0
            elif action == "pause":
                self._mode = "pause"
            elif action == "step":
                self._mode = "pause"
                self._steps += 1
            else:
                raise ValueError(f"unknown control action {action!r}")
            self._gate.notify_all()
            return self._mode

    @property
    def closed(self) -> bool:
        return self._closed

    def gate(self) -> None:
        """Block while paused; consume one step credit if stepping.

        Called by :meth:`view` before each round.  Returns
        immediately in ``run`` mode, when a ``step`` credit is available,
        or once the server shuts down (so a stopped dashboard can never
        wedge a scenario).
        """
        with self._gate:
            while not self._closed and self._mode == "pause" and self._steps == 0:
                self._gate.wait(0.25)
            if self._steps > 0:
                self._steps -= 1

    # -- the scenario view --------------------------------------------------
    def view(self, kind: str, item: Any) -> None:
        """A scenario view (``Scenario.views``) of the run record.

        Publishes the spec, each round's
        :class:`~repro.sim.scenario.RoundStats` (the stage split,
        session-event counts, shard loads, transport gauges, the privacy
        ledger row) and the finished result, reading nothing but what it is
        handed, and holds each round at the run/pause/step :meth:`gate`.
        """
        if kind == "start":
            self._runtime = item.runtime
            self.publish(
                "scenario_started",
                name=item.name,
                clients=item.num_clients,
                addfriend_rounds=item.addfriend_rounds,
                dialing_rounds=item.dialing_rounds,
                mix_servers=item.config.num_mix_servers,
                entry_shards=item.config.entry_shards,
                crypto_backend=item.config.crypto_backend,
                pipelined=item.pipelined,
                fidelity=item.fidelity,
            )
        elif kind == "round_start":
            protocol, index, clock = item
            self.gate()
            self.publish("round_starting", protocol=protocol, index=index, clock=clock)
        elif kind == "round":
            self.publish("round", clock=item.clock, **item.to_dict())
            if item.events:
                self.publish("events", **item.events)
            if item.shards:
                self.publish("shards", **item.shards)
            if item.net:
                # The simulated network's wave gauges, or a real runtime's
                # per-endpoint executor/connection/in-flight gauges (and worker
                # RSS under mp) for the Runtime panel.
                if self._runtime == "sim":
                    self.publish("net", **item.net)
                else:
                    self.publish("runtime", endpoints=item.net)
            row = item.privacy
            if row:
                observed = row["observed_messages"]
                self.publish(
                    "privacy",
                    protocol=item.protocol,
                    round=item.round_number,
                    epsilon=row["epsilon_cumulative"],
                    delta=row["delta"],
                    epsilon_round=row["epsilon_round"],
                    noise_added=row["noise_added"],
                    per_server_noise=row["per_server_noise"],
                    noise_fraction=round(row["noise_added"] / observed, 4) if observed else 0.0,
                    advantage_bound=distinguishing_advantage(row["epsilon_cumulative"]),
                    per_shard_noise=row["per_shard_noise"],
                )
        elif kind == "finish":
            self.publish(
                "scenario_finished",
                name=item.name,
                rounds=len(item.rounds),
                aborted=sum(1 for r in item.rounds if r.aborted),
                friendships_confirmed=item.friendships_confirmed,
                calls_delivered=item.calls_delivered,
                total_bytes_sent=item.total_bytes_sent,
                wall_seconds=round(item.wall_seconds, 3),
            )


class _DashboardHandler(BaseHTTPRequestHandler):
    """Routes the four endpoints; bound to a server via the class attribute."""

    dashboard: DashboardServer
    server_version = "repro-obs/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:
        self.dashboard.log.debug("http %s", format % args)

    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:
        parsed = urlparse(self.path)
        if parsed.path == "/":
            body = _PAGE.encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "text/html; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif parsed.path == "/state":
            self._send_json(self.dashboard.state())
        elif parsed.path == "/control":
            self._control(parse_qs(parsed.query))
        elif parsed.path == "/events":
            self._serve_events()
        else:
            self._send_json({"error": "not found"}, status=404)

    def do_POST(self) -> None:
        parsed = urlparse(self.path)
        if parsed.path == "/control":
            self._control(parse_qs(parsed.query))
        else:
            self._send_json({"error": "not found"}, status=404)

    def _control(self, query: dict) -> None:
        action = (query.get("action") or ["?"])[0]
        try:
            mode = self.dashboard.request(action)
        except ValueError as exc:
            self._send_json({"error": str(exc)}, status=400)
            return
        self._send_json({"mode": mode})

    def _serve_events(self) -> None:
        replay, subscriber = self.dashboard.subscribe()
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            for event in replay:
                self._write_event(event)
            while not self.dashboard.closed:
                try:
                    event = subscriber.get(timeout=0.5)
                except queue.Empty:
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
                    continue
                self._write_event(event)
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away; normal for a live stream
        finally:
            self.dashboard.unsubscribe(subscriber)

    def _write_event(self, event: dict) -> None:
        payload = dumps(event)
        self.wfile.write(
            f"id: {event['seq']}\nevent: {event['type']}\ndata: {payload}\n\n".encode("utf-8")
        )
        self.wfile.flush()


_PAGE = """<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro scenario dashboard</title>
<style>
  body { font: 13px/1.5 system-ui, sans-serif; margin: 1.5em auto; max-width: 72em;
         color: #1a1a2e; padding: 0 1em; }
  h1 { font-size: 1.2em; } h2 { font-size: 1em; margin: 1.2em 0 .4em; }
  #status { font-weight: 600; }
  #status.running { color: #0a7d33; } #status.finished { color: #5a5a7a; }
  button { font: inherit; padding: .25em 1em; margin-right: .5em; cursor: pointer; }
  table { border-collapse: collapse; width: 100%; }
  th, td { text-align: right; padding: .15em .6em; border-bottom: 1px solid #e3e3ee; }
  th:first-child, td:first-child { text-align: left; }
  .bar { background: #4c6ef5; height: .7em; display: inline-block; }
  .muted { color: #8888a0; }
  #events span { display: inline-block; margin: 0 .8em .2em 0; }
  #events b { color: #4c6ef5; }
</style>
</head>
<body>
<h1>repro scenario dashboard</h1>
<p><span id="scenario" class="muted">waiting for a scenario&hellip;</span>
   &mdash; <span id="status">idle</span> (mode: <span id="mode">run</span>)</p>
<p>
  <button onclick="control('run')">&#9654; run</button>
  <button onclick="control('pause')">&#10074;&#10074; pause</button>
  <button onclick="control('step')">&#8618; step</button>
</p>
<h2>Rounds</h2>
<table>
  <thead><tr><th>protocol</th><th>round</th><th>online</th><th>submitted</th>
  <th>failed</th><th>latency s</th><th>submit s</th><th>mix s</th><th>scan s</th>
  <th>MiB</th></tr></thead>
  <tbody id="rounds"></tbody>
</table>
<h2>Shard load</h2>
<div id="shards" class="muted">unsharded deployment</div>
<h2>Simulator core</h2>
<div id="net" class="muted">no network stats yet</div>
<h2>Runtime</h2>
<div id="runtime" class="muted">simulated transport (no live endpoints)</div>
<h2>Privacy</h2>
<div id="privacy" class="muted">no privacy ledger events yet</div>
<h2>Session events</h2>
<div id="events" class="muted">none yet</div>
<h2>Summary</h2>
<div id="summary" class="muted">scenario still running</div>
<script>
  const $ = (id) => document.getElementById(id);
  function control(action) {
    fetch('/control?action=' + action).then(r => r.json())
      .then(s => { $('mode').textContent = s.mode; });
  }
  const source = new EventSource('/events');
  source.addEventListener('scenario_started', (e) => {
    const d = JSON.parse(e.data).data;
    $('scenario').textContent = d.name + ' \\u00b7 ' + d.clients + ' clients \\u00b7 '
      + d.mix_servers + ' mixes \\u00b7 ' + d.entry_shards + ' shard(s) \\u00b7 '
      + d.crypto_backend + (d.pipelined ? ' \\u00b7 pipelined' : '')
      + (d.fidelity ? ' \\u00b7 ' + d.fidelity : '');
    $('status').textContent = 'running'; $('status').className = 'running';
  });
  source.addEventListener('round', (e) => {
    const d = JSON.parse(e.data).data;
    const row = document.createElement('tr');
    const fmt = (x) => (typeof x === 'number' ? x.toFixed(3) : x);
    row.innerHTML = '<td>' + d.protocol + '</td><td>' + d.round + '</td><td>'
      + d.participants + '</td><td>' + d.submissions + '</td><td>' + d.failures
      + '</td><td>' + (d.aborted ? 'aborted' : fmt(d.latency_s)) + '</td><td>'
      + fmt(d.submit_stage_s) + '</td><td>' + fmt(d.mix_stage_s) + '</td><td>'
      + fmt(d.scan_stage_s) + '</td><td>' + (d.bytes_sent / 1048576).toFixed(2) + '</td>';
    const body = $('rounds');
    body.appendChild(row);
    while (body.children.length > 50) body.removeChild(body.firstChild);
  });
  source.addEventListener('shards', (e) => {
    const d = JSON.parse(e.data).data;
    const loads = d.submissions_by_shard, max = Math.max(1, ...loads);
    $('shards').className = '';
    $('shards').innerHTML = loads.map((x, i) =>
      'shard ' + i + ' <span class="bar" style="width:' + (140 * x / max)
      + 'px"></span> ' + x).join('<br>')
      + '<br><span class="muted">imbalance ' + d.imbalance + '</span>';
  });
  source.addEventListener('net', (e) => {
    const d = JSON.parse(e.data).data;
    $('net').className = '';
    $('net').textContent = 'largest delivery wave: ' + d.frames_in_flight_peak + ' calls';
  });
  source.addEventListener('runtime', (e) => {
    const d = JSON.parse(e.data).data.endpoints;
    $('runtime').className = '';
    $('runtime').innerHTML = Object.keys(d).sort().map(k => {
      const g = d[k];
      const parts = Object.keys(g).sort().map(m => m + ' <b>' + g[m] + '</b>');
      return '<span style="display:inline-block;margin:0 1em .2em 0">' + k + ': '
        + parts.join(' \\u00b7 ') + '</span>';
    }).join('');
  });
  const privacyState = {};
  source.addEventListener('privacy', (e) => {
    const d = JSON.parse(e.data).data;
    privacyState[d.protocol] = d;
    $('privacy').className = '';
    $('privacy').innerHTML = Object.keys(privacyState).sort().map(p => {
      const s = privacyState[p];
      const eps = s.epsilon === 'inf' ? Infinity : s.epsilon;  // b = 0: unprotected
      const gauge = eps === Infinity ? 140 : Math.min(140, 140 * eps / Math.max(eps, 5));
      const noiseBars = (s.per_server_noise || []).map((n, i) =>
        'mix' + i + ' <span class="bar" style="width:'
        + Math.min(120, n) + 'px"></span> ' + n).join(' \\u00b7 ');
      const shardBars = (s.per_shard_noise || []).length
        ? '<br><span class="muted">expected noise/shard:</span> '
          + s.per_shard_noise.map((n, i) => i + ':' + n.toFixed(1)).join(' ')
        : '';
      return '<div style="margin-bottom:.5em"><b>' + p + '</b> round ' + s.round
        + ' \\u00b7 \\u03b5 <span class="bar" style="width:' + gauge + 'px"></span> '
        + (eps === Infinity ? '\\u221e' : eps.toFixed(3)) + ' (\\u03b4=' + s.delta + ', bound '
        + s.advantage_bound.toFixed(3) + ')'
        + '<br>noise fraction ' + (100 * s.noise_fraction).toFixed(1)
        + '% \\u00b7 ' + noiseBars + shardBars + '</div>';
    }).join('');
  });
  source.addEventListener('events', (e) => {
    const d = JSON.parse(e.data).data;
    $('events').className = '';
    $('events').innerHTML = Object.keys(d).sort().map(k =>
      '<span>' + k + ' <b>' + d[k] + '</b></span>').join('');
  });
  source.addEventListener('scenario_finished', (e) => {
    const d = JSON.parse(e.data).data;
    $('status').textContent = 'finished'; $('status').className = 'finished';
    $('summary').className = '';
    $('summary').textContent = d.rounds + ' rounds (' + d.aborted + ' aborted), '
      + d.friendships_confirmed + ' friendships, ' + d.calls_delivered
      + ' calls delivered, ' + (d.total_bytes_sent / 1048576).toFixed(1)
      + ' MiB on the wire, ' + d.wall_seconds + 's wall';
    source.close();
  });
</script>
</body>
</html>
"""
