"""Multiprocess runtime: server tiers in their own spawned processes.

Extends :class:`~repro.runtime.transport.AsyncioTransport` with a routing
table of endpoints served by worker processes.  Each worker is spawned (not
forked -- the parent runs an event-loop thread), rebuilds its servers from
plain picklable *endpoint specs*, serves them on OS-assigned localhost ports
over the same length-prefixed wire protocol, and reports its port map back
through a pipe.  The parent then simply routes calls for those endpoints to
the worker's ports; everything else -- codec, pooling, pipelined waves, stats
-- is inherited.  A worker serves its connections with the parent's own
:func:`~repro.runtime.transport.serve_connection` loop (same grouping, same
malformed-input handling); its one handler thread is the FIFO executor that
loop's in-order replies rest on, and the runtime-control RPCs (ping,
telemetry harvest, shutdown) plug in as the loop's ``control`` hook.  Workers
are all started before the first port map is awaited, so their interpreter
start-up and ``repro`` imports overlap.

The default placement puts **mix servers** in workers: they are the
crypto hot path, so this is where a deployment's multi-core mix work runs
(each server peels on its own core), they make no outgoing calls, and they
reconstruct deterministically from ``(name, rng seed, crypto backend)`` --
the same derivation :class:`~repro.core.coordinator.Deployment` uses, so a
worker's mix server is byte-identical to the in-parent one it replaces.
Tiers that touch shared in-process substrates (PKGs and the out-of-band
email network, the entry server's round state) stay in the parent by design.

Workers are daemonic: a transport that is never closed still has its
workers terminated and reaped by :mod:`multiprocessing` at interpreter exit.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import multiprocessing
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError, NetworkError
from repro.net.frames import KIND_RESPONSE, Frame
from repro.net.rpc import decode_reply
from repro.obs.distributed import (
    PING_REPLY,
    WorkerTelemetry,
    estimate_clock_offset,
    ping_reply,
    rss_bytes,
)
from repro.obs.logging import configure_logging, configured_level, get_logger
from repro.obs.trace import Tracer, active_tracer, set_active_tracer
from repro.runtime import wire
from repro.runtime.transport import AsyncioTransport, serve_connection, serve_wire_message

logger = get_logger("runtime")

#: The control method a parent sends to stop a worker process gracefully.
SHUTDOWN_METHOD = "__runtime_shutdown__"
#: Clock ping: replies with the worker's ``perf_counter``, RSS, and pid;
#: sampled a few times at startup for the clock-offset estimate.
PING_METHOD = "__runtime_ping__"
#: Telemetry harvest: replies with :meth:`WorkerTelemetry.to_payload` as
#: JSON bytes (drained spans + vitals).
TELEMETRY_METHOD = "__runtime_telemetry__"

#: Clock pings sent per worker at the port-map handshake.
_PING_SAMPLES = 5


@dataclass(frozen=True)
class WorkerOptions:
    """Observability switches the parent forwards to a spawned worker."""

    #: Install a worker-local ``Tracer`` and answer ``collect_telemetry``
    #: harvests with its spans.
    telemetry: bool = False
    #: The coordinator's trace id, so worker spans tie to the same run.
    trace_id: str = ""
    #: Level for the worker's own ``repro`` logger (None = stay silent).
    log_level: str | None = None
    #: Label used in logs and the merged trace's process name.
    label: str = ""


@dataclass(frozen=True)
class EndpointSpec:
    """One endpoint a worker process should rebuild and serve.

    ``kind`` selects a builder (currently ``"mix"``); ``params`` must be
    picklable and sufficient to reconstruct the server deterministically.
    """

    kind: str
    name: str
    params: dict = field(default_factory=dict)


def mix_endpoint_spec(name: str, rng_seed: str, crypto_backend: str = "pure") -> EndpointSpec:
    """The spec for one mix server, matching Deployment's own derivation."""
    return EndpointSpec(
        kind="mix",
        name=name,
        params={"rng_seed": rng_seed, "crypto_backend": crypto_backend},
    )


def _build_mix(name: str, params: dict):
    from repro.crypto.engine import get_backend, set_active_backend
    from repro.mixnet.server import MixServer
    from repro.obs.instrument import instrument_mix_server
    from repro.utils.rng import DeterministicRng

    backend = get_backend(params.get("crypto_backend", "pure"))
    server = MixServer(name, rng=DeterministicRng(params["rng_seed"]), engine=backend)
    tracer = active_tracer()
    if tracer is not None:
        # The seams a traced Deployment wraps in-parent: the batch and its
        # engine calls feed the worker-local tracer.
        instrument_mix_server(server, tracer)
    set_active_backend(server.engine)
    return server.handle_rpc


_BUILDERS = {"mix": _build_mix}


def worker_main(
    specs: list[EndpointSpec], conn, host: str, options: WorkerOptions | None = None
) -> None:
    """Entry point of one spawned worker process."""
    asyncio.run(_worker_async(specs, conn, host, options))


async def _worker_async(
    specs: list[EndpointSpec], conn, host: str, options: WorkerOptions | None = None
) -> None:
    options = options if options is not None else WorkerOptions()
    label = options.label or f"worker-{os.getpid()}"
    if options.log_level:
        # The spawned interpreter starts with no logging config at all; give
        # it the parent's level with a process tag so multi-process stderr
        # stays attributable.
        configure_logging(options.log_level, process=label)
    tracer: Tracer | None = None
    if options.telemetry:
        tracer = Tracer()
        if options.trace_id:
            tracer.trace_id = options.trace_id
        set_active_tracer(tracer)

    handlers = {}
    for spec in specs:
        builder = _BUILDERS.get(spec.kind)
        if builder is None:
            raise ConfigurationError(f"unknown worker endpoint kind {spec.kind!r}")
        handlers[spec.name] = builder(spec.name, dict(spec.params))

    epoch = time.monotonic()
    clock = lambda: time.monotonic() - epoch  # noqa: E731
    stop = asyncio.Event()
    # One handler thread per worker process: a worker owns one core's worth
    # of mix work, and its servers' handlers must serialize anyway.
    executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="worker-rpc")

    def collect_telemetry() -> dict[str, Any]:
        return WorkerTelemetry(
            pid=os.getpid(),
            label=label,
            endpoints=sorted(handlers),
            spans=tracer.drain_spans() if tracer is not None else [],
            rss=rss_bytes(),
        ).to_payload()

    def control(message: wire.WireMessage) -> bytes | None:
        """Control RPCs answer inline on the loop: the ping must not queue
        behind mix batches (it measures the clock, not the executor), and
        shutdown/harvest are rare."""
        frame = message.frame
        payload = b""
        if frame.method == PING_METHOD:
            payload = ping_reply()
        elif frame.method == TELEMETRY_METHOD:
            payload = json.dumps(collect_telemetry()).encode("utf-8")
        elif frame.method == SHUTDOWN_METHOD:
            # Wakes the main coroutine on a later loop turn; the serve loop
            # writes this reply before it next yields.
            stop.set()
        else:
            return None
        reply = Frame(
            kind=KIND_RESPONSE, msg_id=frame.msg_id, src=frame.dst,
            dst=frame.src, method=frame.method, payload=payload,
        )
        return wire.encode_message(reply)

    servers = []
    ports: dict[str, int] = {}
    for name, handler in handlers.items():
        def serve(message: wire.WireMessage, queue_s: float, name=name, handler=handler) -> bytes:
            return serve_wire_message(message, handler, clock, name, queue_s)

        def on_connection(reader, writer, serve=serve):
            return serve_connection(reader, writer, executor, serve, control)

        server = await asyncio.start_server(on_connection, host=host, port=0)
        servers.append(server)
        ports[name] = server.sockets[0].getsockname()[1]
    conn.send(ports)
    conn.close()

    await stop.wait()
    for server in servers:
        server.close()
    for server in servers:
        with contextlib.suppress(Exception):
            await server.wait_closed()
    # Reap connection tasks still parked on reads ourselves; leaving them to
    # asyncio.run's teardown logs spurious CancelledError tracebacks.
    current = asyncio.current_task()
    lingering = [task for task in asyncio.all_tasks() if task is not current]
    for task in lingering:
        task.cancel()
    await asyncio.gather(*lingering, return_exceptions=True)
    executor.shutdown(wait=True, cancel_futures=True)


class MultiprocessTransport(AsyncioTransport):
    """AsyncioTransport with some endpoints served by spawned workers.

    ``worker_specs`` is one list of :class:`EndpointSpec` per worker
    process.  Workers are spawned at construction and report their port
    maps before the constructor returns; :meth:`register` for an endpoint a
    worker owns is then a routing no-op (the locally constructed server
    object never receives traffic).
    """

    def __init__(
        self,
        worker_specs: list[list[EndpointSpec]],
        host: str = "127.0.0.1",
        start_timeout_s: float = 60.0,
    ) -> None:
        super().__init__(host=host, start_timeout_s=start_timeout_s)
        #: Workers track the parent's observability state: telemetry is on
        #: exactly when a tracer is active, and they log at whatever level
        #: ``configure_logging`` was last given.
        tracer = active_tracer()
        self._telemetry = tracer is not None
        self._processes: list = []
        #: One (process, any endpoint it serves) pair per worker, for the
        #: graceful shutdown RPC.
        self._worker_contacts: list[tuple[object, str]] = []
        #: Contact endpoint -> {pid, label, endpoints, offset_s, rss}.
        self._worker_info: dict[str, dict[str, Any]] = {}
        context = multiprocessing.get_context("spawn")
        # (process, its end of the port-map pipe, specs, options) per worker.
        started: list[tuple] = []
        try:
            # Start every worker before waiting on any of them: interpreter
            # start-up and the ``repro`` import are the spawn cost, and they
            # run side by side this way.
            for index, specs in enumerate(worker_specs):
                if not specs:
                    raise ConfigurationError("a worker process needs at least one endpoint")
                options = WorkerOptions(
                    telemetry=self._telemetry,
                    trace_id=getattr(tracer, "trace_id", ""),
                    log_level=configured_level(),
                    label=f"worker-{index}",
                )
                parent_conn, child_conn = context.Pipe()
                process = context.Process(
                    target=worker_main,
                    args=(list(specs), child_conn, host, options),
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._processes.append(process)
                started.append((process, parent_conn, specs, options))
            for process, parent_conn, specs, options in started:
                if not parent_conn.poll(start_timeout_s):
                    raise NetworkError(
                        f"worker {process.pid} did not report its ports within "
                        f"{start_timeout_s}s"
                    )
                self._remote_ports.update(parent_conn.recv())
                contact = specs[0].name
                self._worker_contacts.append((process, contact))
                self._worker_info[contact] = {
                    "pid": process.pid,
                    "label": options.label,
                    "endpoints": sorted(spec.name for spec in specs),
                    "offset_s": 0.0,
                    "rss": 0,
                }
            if self._telemetry:
                self._align_clocks(tracer)
        except Exception:
            self.close()
            raise
        finally:
            for _process, parent_conn, _specs, _options in started:
                parent_conn.close()

    def worker_count(self) -> int:
        return len(self._processes)

    def remote_endpoints(self) -> list[str]:
        return sorted(self._remote_ports)

    def _control(self, endpoint: str, method: str, timeout_s: float):
        """One control RPC to a worker, by :meth:`AsyncioTransport.call`
        itself: past any wrapper a tracer or a subclass puts on ``call``,
        since control traffic is bookkeeping, not protocol."""
        return AsyncioTransport.call(self, "runtime", endpoint, method, timeout_s=timeout_s)

    # -- telemetry ------------------------------------------------------------
    def _align_clocks(self, tracer) -> None:
        """Ping each worker at the handshake to map its ``perf_counter``
        onto ours (min-RTT midpoint estimate); declares the worker process
        to the tracer for the merged export."""
        for contact, info in self._worker_info.items():
            samples = []
            for _ in range(_PING_SAMPLES):
                t0 = time.perf_counter()
                result = self._control(contact, PING_METHOD, 10.0)
                t1 = time.perf_counter()
                worker_t, rss, pid = decode_reply(PING_REPLY.decode, result.payload)
                samples.append((t0, t1, worker_t))
                info["rss"] = rss
                info["pid"] = pid
            info["offset_s"] = estimate_clock_offset(samples)
            tracer.add_remote_process(info["pid"], info["label"], info["endpoints"])

    def harvest_telemetry(self) -> list[WorkerTelemetry]:
        """Pull spans and RSS from every live worker into the parent.

        Spans land in the active tracer (wall clocks aligned).  Safe to call
        repeatedly — workers drain spans, so each span ships exactly once.
        """
        if not self._telemetry or self._closed:
            return []
        tracer = active_tracer()
        harvested: list[WorkerTelemetry] = []
        for process, contact in self._worker_contacts:
            if not process.is_alive():
                continue
            try:
                result = self._control(contact, TELEMETRY_METHOD, 10.0)
            except Exception:  # noqa: BLE001 - a dying worker loses its tail
                continue
            info = self._worker_info.get(contact, {})
            try:
                telemetry = WorkerTelemetry.from_payload(json.loads(result.payload))
                if tracer is not None and telemetry.spans:
                    tracer.add_remote_spans(
                        telemetry.pid, telemetry.spans, info.get("offset_s", 0.0)
                    )
            except (ValueError, TypeError, AttributeError) as exc:
                # The peer is a socket, not a trusted object: skip this worker.
                logger.warning("skipping malformed telemetry from %s: %s", contact, exc)
                continue
            info["rss"] = telemetry.rss
            harvested.append(telemetry)
        return harvested

    def snapshot(self) -> dict[str, dict[str, float]]:
        """The endpoint gauges plus each worker's RSS; on a traced run it
        first harvests the workers (their spans so far, and that RSS)."""
        self.harvest_telemetry()
        snapshot = super().snapshot()
        for info in self._worker_info.values():
            snapshot[f"worker:{info['label']}"] = {
                "rss_mib": round(info.get("rss", 0) / 2**20, 1),
            }
        return snapshot

    def close(self) -> None:
        if self._closed:
            return
        # Last harvest first: spans recorded since the final round would
        # otherwise die with the workers.
        with contextlib.suppress(Exception):
            self.harvest_telemetry()
        asked = set()
        for process, endpoint in self._worker_contacts:
            if process.is_alive():
                with contextlib.suppress(Exception):
                    self._control(endpoint, SHUTDOWN_METHOD, 5.0)
                    asked.add(process)
        super().close()
        for process in self._processes:
            # Only a worker that took the shutdown RPC exits by itself; one
            # whose port map was never read (a sibling failed first) does not.
            process.join(timeout=10 if process in asked else 0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
