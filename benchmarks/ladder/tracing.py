"""Outside-in tracing: spans recorded by benchmark-owned wrappers.

No file under ``src/`` knows about this.  Spans are recorded at three
public seams only:

* the round driver -- ``RoundEngine.start_round`` / ``finish_round``,
  wrapped on the instances ``Deployment.round_engine()`` hands out;
* the transport -- a ``SimulatedNetwork`` / ``MultiprocessTransport``
  subclass whose ``register`` wraps every endpoint handler and whose
  ``call`` / ``call_batch`` are spanned, installed by a ``Scenario``
  subclass overriding ``build_transport()``;
* the crypto engine -- a delegating ``CryptoBackend`` registered as
  ``ladder-traced-<inner>``.

Spans stay in memory and are written when the pass ends.  A span's self
time is its duration minus the part of it its child spans cover; summed per
layer that gives the ``trace.*_s`` metrics.  On ``rt-mp`` the mix handlers
run in worker processes this file cannot see into, so their time stays in
``trace.net_s`` (spans inside workers are a later issue).
"""

from __future__ import annotations

import functools
import re
import statistics
import threading
import time
from pathlib import Path

from repro.crypto.engine import CryptoBackend, get_backend, register_backend
from repro.sim.scenarios import make_scenario

import workloads
from workloads import SHORT

#: Endpoint name -> layer (this repo's packages).  The sharded tier's
#: entry/ingress/CDN shards are ``repro.cluster``'s.
_ENDPOINT_LAYERS = (
    (re.compile(r"entry$"), "entry"),
    (re.compile(r"cdn$"), "cdn"),
    (re.compile(r"mix\d+$"), "mixnet"),
    (re.compile(r"pkg\d+$"), "pkg"),
    (re.compile(r"(entry|ingress|cdn)\d+$"), "cluster"),
)
#: Layer -> the ``trace.*_s`` metric its self time lands in.
LAYER_METRICS = {
    "round": "trace.client_s",  # round minus transport minus crypto: core/api
    "net": "trace.net_s",
    "entry": "trace.entry_s",
    "cluster": "trace.cluster_s",
    "mixnet": "trace.mixnet_s",
    "pkg": "trace.pkg_s",
    "cdn": "trace.cdn_s",
    "crypto": "trace.crypto_s",
}

_SINGLE_OPS = (
    "shared_secret", "public_key", "seal", "open_sealed",
    "ed25519_sign", "ed25519_verify", "ed25519_public_key",
)
_BATCH_OPS = ("seal_many", "open_many", "shared_secret_many", "public_key_many")


def endpoint_layer(name: str) -> str:
    for pattern, layer in _ENDPOINT_LAYERS:
        if pattern.match(name):
            return layer
    return "net"  # an endpoint this table does not know: charge the wire


class Recorder:
    """In-memory span store shared by every wrapper of one traced pass.

    A span is ``[name, layer, start, end, parent, round_label, items]``; its
    id is its index and ``items`` the RPCs or crypto operations it carried.
    Parents come from a per-thread stack; a handler span starting on an idle
    thread (the asyncio runtime runs handlers on per-endpoint executor
    threads) adopts the open transport call to its endpoint, which is
    unambiguous in a closed single-driver loop.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_calls: dict[str, list[int]] = {}

    # -- recording -----------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str, items: int = 1, adopt_from: str | None = None) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            waiting = self._open_calls.get(adopt_from) if adopt_from is not None else None
            parent = waiting[-1] if waiting else -1
        span = [name, layer, 0.0, 0.0, parent, None, items]
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        span[2] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack().pop()

    # -- seam 1: the round driver --------------------------------------------
    def instrument_round_engine(self, engine, protocol: str) -> None:
        """Span ``start_round`` / ``finish_round`` on one engine instance."""
        start_round, finish_round = engine.start_round, engine.finish_round
        short = SHORT[protocol]

        def traced_start(participants=None):
            index = self.begin(f"round.start.{short}", "round")
            try:
                pending = start_round(participants)
            finally:
                self.end(index)
            self.spans[index][5] = f"{short}/{pending.round_number}"
            return pending

        def traced_finish(pending):
            index = self.begin(f"round.finish.{short}", "round")
            self.spans[index][5] = f"{short}/{pending.round_number}"
            try:
                return finish_round(pending)
            finally:
                self.end(index)

        engine.start_round, engine.finish_round = traced_start, traced_finish

    # -- seam 2: the transport -----------------------------------------------
    def wrap_handler(self, endpoint: str, handler):
        layer = endpoint_layer(endpoint)

        def traced_handler(request):
            index = self.begin(f"{endpoint}.{request.method}", layer, adopt_from=endpoint)
            try:
                return handler(request)
            finally:
                self.end(index)

        return traced_handler

    def call_span(self, name: str, destinations, count: int) -> int:
        index = self.begin(name, "net", count)
        for dst in destinations:
            self._open_calls.setdefault(dst, []).append(index)
        return index

    def end_call_span(self, index: int, destinations) -> None:
        for dst in destinations:
            self._open_calls[dst].pop()
        self.end(index)

    def adopt_transport(self, transport):
        """Turn a freshly built transport (no endpoint registered yet) into
        its spanned subclass.

        The instance comes from the program's own constructors, so seeds,
        topology and worker wiring are the program's, not a copy kept here.
        """
        transport.__class__ = spanned_transport_class(type(transport))
        transport.recorder = self
        return transport

    def make_scenario(self, name: str, **overrides):
        """``make_scenario`` whose ``build_transport()`` is the spanned one."""
        recorder = self
        plain = make_scenario(name, **overrides)
        inner = dict(overrides, crypto_backend=self._inner_backend)

        class TracedScenario(type(plain)):
            def build_transport(self):
                # Built by an untraced twin of this scenario: worker
                # processes must be told the real backend's name, they
                # have never heard of ladder-traced-*.
                return recorder.adopt_transport(make_scenario(name, **inner).build_transport())

        return TracedScenario(plain.spec)

    # -- seam 3: the crypto engine --------------------------------------------
    def register_backend(self, inner_name: str) -> str:
        self._inner_backend = inner_name
        name = f"ladder-traced-{inner_name}"
        register_backend(name, lambda: SpannedBackend(get_backend(inner_name), self, name))
        return name

    # -- output ----------------------------------------------------------------
    def propagate_rounds(self) -> None:
        """Label every span with the round of the root it hangs under;
        whatever ran outside a round (registration RPCs) is ``setup``."""
        for span in self.spans:  # parents always precede their children
            if span[5] is None:
                span[5] = self.spans[span[4]][5] if span[4] >= 0 else "setup"

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        header = '{"columns": ["name", "start", "end", "parent", "workload", "round"]}'
        lines = [header]
        workload = self.workload
        for name, _layer, start, end, parent, label, _items in self.spans:
            lines.append(f'["{name}", {start!r}, {end!r}, {parent}, "{workload}", "{label}"]')
        path.write_text("\n".join(lines) + "\n")


@functools.cache
def spanned_transport_class(base: type) -> type:
    class Spanned(base):
        """``register`` wraps handlers; ``call`` / ``call_batch`` are spanned."""

        recorder: Recorder

        def register(self, name, handler):
            super().register(name, self.recorder.wrap_handler(name, handler))

        def call(self, src, dst, method, *args, **kwargs):
            recorder = self.recorder
            index = recorder.call_span(f"call.{method}", (dst,), 1)
            try:
                return super().call(src, dst, method, *args, **kwargs)
            finally:
                recorder.end_call_span(index, (dst,))

        def call_batch(self, calls):
            if not calls:
                return super().call_batch(calls)
            recorder = self.recorder
            destinations = {call.dst for call in calls}
            index = recorder.call_span(f"call_batch.{calls[0].method}", destinations, len(calls))
            try:
                return super().call_batch(calls)
            finally:
                recorder.end_call_span(index, destinations)

    Spanned.__name__ = Spanned.__qualname__ = f"Spanned{base.__name__}"
    return Spanned


class SpannedBackend(CryptoBackend):
    """Delegates every engine call to ``inner`` inside a ``crypto`` span."""

    def __init__(self, inner: CryptoBackend, recorder: Recorder, name: str) -> None:
        self.inner = inner
        self.recorder = recorder
        self.name = name

    def close(self) -> None:
        self.inner.close()


def _delegate(op: str, batch: bool):
    def method(self, first, *args, **kwargs):
        recorder = self.recorder
        index = recorder.begin(op, "crypto", len(first) if batch else 1)
        try:
            return getattr(self.inner, op)(first, *args, **kwargs)
        finally:
            recorder.end(index)

    method.__name__ = op
    return method


for _op in _SINGLE_OPS:
    setattr(SpannedBackend, _op, _delegate(_op, batch=False))
for _op in _BATCH_OPS:
    setattr(SpannedBackend, _op, _delegate(_op, batch=True))


def span_cost_s(samples: int = 20000) -> float:
    """Wall cost of recording one span, measured on a scratch recorder."""
    scratch = Recorder("calibration")
    started = time.perf_counter()
    for _ in range(samples):
        scratch.end(scratch.begin("calibration", "crypto"))
    return (time.perf_counter() - started) / samples


def analyse(recorder: Recorder) -> dict[str, float]:
    """Self time per layer over the traced rounds, round-driver walls,
    coverage, counts and overhead."""
    spans = recorder.spans
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[4] >= 0:
            children[span[4]].append(index)

    self_by_layer = dict.fromkeys(LAYER_METRICS, 0.0)
    items_by_layer = dict.fromkeys(LAYER_METRICS, 0)
    in_rounds = 0
    for index, (_name, layer, start, end, _parent, label, items) in enumerate(spans):
        if label == "setup":
            continue
        in_rounds += 1
        items_by_layer[layer] += items
        covered = 0.0
        reach = start
        # Children can overlap (handlers of one wave on several executor
        # threads): subtract the union of their intervals, not the sum.
        for child in sorted(children[index], key=lambda c: spans[c][2]):
            child_start = max(spans[child][2], reach)
            child_end = min(spans[child][3], end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        self_by_layer[layer] += (end - start) - covered

    metrics = {metric: self_by_layer[layer] for layer, metric in LAYER_METRICS.items()}
    roots = [s for s in spans if s[4] < 0 and s[1] == "round"]
    round_wall = sum(s[3] - s[2] for s in roots)
    metrics["trace.coverage"] = sum(self_by_layer.values()) / round_wall
    for protocol in SHORT.values():
        for half in ("start", "finish"):
            walls = [s[3] - s[2] for s in roots if s[0] == f"round.{half}.{protocol}"]
            metrics[f"round.{half}_wall_s.{protocol}"] = statistics.fmean(walls)
    metrics["trace.rpc_calls"] = items_by_layer["net"]
    metrics["trace.crypto_ops"] = items_by_layer["crypto"]
    metrics["trace.spans"] = in_rounds
    # Tracing off is a separate run (the end-to-end metrics); within this
    # run the overhead is what recording this many spans costs.
    metrics["trace.overhead_share"] = in_rounds * span_cost_s() / round_wall
    return metrics


def run_traced_pass(workload, seed: int, seconds: float, smoke: bool, spans_path: Path):
    """One pass with every seam spanned; returns (PassResult, trace metrics)."""
    recorder = Recorder(workload.name)
    passed = workloads.run_pass(workload, seed, seconds, smoke, recorder=recorder)
    recorder.propagate_rounds()
    metrics = analyse(recorder)
    metrics["trace.envelopes"] = sum(
        r["submissions"] + r["noise_added"] for r in passed.rounds if not r["aborted"]
    )
    if not 0.98 <= metrics["trace.coverage"] <= 1.02:
        passed.problems.append(f"trace.coverage {metrics['trace.coverage']:.4f} outside 1.00 +/- 0.02")
    recorder.write(spans_path)
    return passed, metrics
