"""Multiprocess runtime: server tiers in their own worker processes.

Extends :class:`~repro.runtime.transport.AsyncioTransport` with a routing
table of endpoints served by worker processes.  Each worker is forked from
this process's one forkserver: a single-threaded process that
:mod:`multiprocessing` starts once, with everything a mix worker runs
already imported (:data:`_FORKSERVER_PRELOAD`): ``repro``'s runtime and
message layouts, compiled at declaration, and the accelerated crypto
backend with OpenSSL loaded and warmed.  A worker is launched without the
parent's ``__main__`` (see :class:`_WorkerPopen`), so it starts with no
interpreter start-up, and its first round imports no module.  The parent
does not fork its workers itself: it runs an event-loop thread, and a fork
of a threaded process copies locks that other threads may hold.  A worker
rebuilds its servers from plain picklable *endpoint specs*, serves them on
OS-assigned localhost ports over the same length-prefixed wire protocol, and
reports its port map back through a pipe.  The parent then simply routes calls for
those endpoints to the worker's ports; everything else -- codec, pooling,
pipelined waves, stats -- is inherited.  A worker serves its connections
with the parent's own :func:`~repro.runtime.transport.serve_connection` loop
(same grouping, same malformed-input handling), but runs every handler
inline on its one event-loop thread: its mix servers make no outgoing
calls, so a handler never waits on the loop it blocks, and the loop's one
thread serializes handlers and keeps replies in request order.  The
runtime-control RPCs (ping, telemetry harvest, shutdown) are answered by the
same serve function before it reaches a server.  Workers are all started
before the first port map is awaited, so their server builds overlap.

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
import io
import json
import os
import threading
import time
from dataclasses import dataclass, field
from multiprocessing import context as mp_context
from multiprocessing import forkserver, popen_forkserver, reduction, spawn, util
from typing import Any

from repro.errors import ConfigurationError, NetworkError
from repro.net.frames import KIND_RESPONSE, Frame
from repro.net.rpc import decode_reply
from repro.obs.distributed import (
    PING_REPLY,
    WorkerTelemetry,
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
#: Ping: replies with the worker's ``perf_counter``, RSS, and pid; sent once
#: per worker at startup for the pid and RSS.  Nothing reads the clock: every
#: process on a host reads the same ``CLOCK_MONOTONIC``.
PING_METHOD = "__runtime_ping__"
#: Telemetry harvest: replies with :meth:`WorkerTelemetry.to_payload` as
#: JSON bytes (drained spans + vitals).
TELEMETRY_METHOD = "__runtime_telemetry__"

#: What the forkserver imports before it forks any worker: this module (and
#: through it ``repro``'s runtime, ``asyncio``, ``ssl`` and every message
#: layout a mix worker reads or writes, compiled at declaration), the
#: wrappers a traced worker puts on its mix server, and the modules the
#: accelerated crypto backend loads -- including the OpenSSL backend that
#: ``cryptography`` itself imports only on a key's first use (5-7 ms,
#: which every worker paid in its first ``open_round``) -- and last
#: :mod:`repro.runtime.warmup`, which makes OpenSSL's own first uses.  The
#: forkserver skips a name it cannot import, so the ``cryptography``
#: entries cost nothing where that package is absent.
_FORKSERVER_PRELOAD = [
    __name__,
    "repro.obs.instrument",
    "cryptography.exceptions",
    "cryptography.hazmat.primitives.serialization",
    "cryptography.hazmat.primitives.asymmetric.ed25519",
    "cryptography.hazmat.primitives.asymmetric.x25519",
    "cryptography.hazmat.primitives.ciphers.aead",
    "cryptography.hazmat.backends.openssl",
    "repro.runtime.warmup",
]
_forkserver_lock = threading.Lock()
_forkserver_started = False


class _WorkerPopen(popen_forkserver.Popen):
    """``popen_forkserver.Popen`` minus the parent's ``__main__``.

    The stock launch sends the child the path or module name of the parent's
    ``__main__``, and the child re-runs that script (as ``__mp_main__``)
    before it unpickles its target: 20-30 ms per worker, and a script
    without an ``if __name__ == "__main__":`` guard would build a transport
    inside every worker.  The forkserver's own ``'__main__'`` preload never
    runs it either (CPython 3.10-3.13 look for a ``main_path`` key that the
    preparation data does not have).  A worker needs neither: its target is
    :func:`worker_main` and its arguments are this module's plain
    dataclasses, all imported by the forkserver.  The body is CPython's
    ``popen_forkserver.Popen._launch`` (the same on 3.10-3.13) with the two
    ``init_main_*`` keys left out.
    """

    def _launch(self, process_obj):
        prep_data = spawn.get_preparation_data(process_obj._name)
        prep_data.pop("init_main_from_path", None)
        prep_data.pop("init_main_from_name", None)
        buf = io.BytesIO()
        mp_context.set_spawning_popen(self)
        try:
            reduction.dump(prep_data, buf)
            reduction.dump(process_obj, buf)
        finally:
            mp_context.set_spawning_popen(None)

        self.sentinel, w = forkserver.connect_to_new_process(self._fds)
        # Keeps the parent's end of the data pipe open as the child's
        # parent sentinel, as the stock launch does.
        _parent_w = os.dup(w)
        self.finalizer = util.Finalize(self, util.close_fds, (_parent_w, self.sentinel))
        with open(w, "wb", closefd=True) as f:
            f.write(buf.getbuffer())
        self.pid = forkserver.read_signed(self.sentinel)


class _WorkerProcess(mp_context.ForkServerProcess):
    @staticmethod
    def _Popen(process_obj):
        return _WorkerPopen(process_obj)


class _WorkerContext(mp_context.ForkServerContext):
    Process = _WorkerProcess


_WORKER_CONTEXT = _WorkerContext()


def _worker_context() -> _WorkerContext:
    """The ``forkserver`` context every worker is started from; its
    ``Process`` launches through :class:`_WorkerPopen`.

    The first call starts this process's forkserver with
    :data:`_FORKSERVER_PRELOAD` imported.  CPython 3.10 and 3.11 hand the
    forkserver the parent's ``sys.path`` but never apply it, and swallow the
    preload's ``ImportError``: where ``repro`` is not installed but put on
    ``sys.path`` in code, the forkserver would preload nothing.  So the
    directory that holds ``repro`` goes first on ``PYTHONPATH`` for that
    one exec.  Call it before starting a thread: an ``os.environ`` write
    races ``getenv`` in other threads.
    """
    global _forkserver_started
    with _forkserver_lock:
        if not _forkserver_started:
            _WORKER_CONTEXT.set_forkserver_preload(_FORKSERVER_PRELOAD)
            root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
            previous = os.environ.get("PYTHONPATH")
            os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [root, previous]))
            try:
                forkserver.ensure_running()
            finally:
                if previous is None:
                    del os.environ["PYTHONPATH"]
                else:
                    os.environ["PYTHONPATH"] = previous
            _forkserver_started = True
    return _WORKER_CONTEXT


@dataclass(frozen=True)
class WorkerOptions:
    """Observability switches the parent forwards to a worker."""

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
    """Entry point of one worker process."""
    asyncio.run(_worker_async(specs, conn, host, options))


async def _worker_async(
    specs: list[EndpointSpec], conn, host: str, options: WorkerOptions | None = None
) -> None:
    options = options if options is not None else WorkerOptions()
    label = options.label or f"worker-{os.getpid()}"
    if options.log_level:
        # The forkserver a worker forks from never configures logging; give
        # the worker the parent's level with a process tag so multi-process
        # stderr stays attributable.
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

    def collect_telemetry() -> dict[str, Any]:
        return WorkerTelemetry(
            pid=os.getpid(),
            label=label,
            endpoints=sorted(handlers),
            spans=tracer.drain_spans() if tracer is not None else [],
            rss=rss_bytes(),
        ).to_payload()

    def control(message: wire.WireMessage) -> bytes | None:
        """The reply to a runtime-control RPC (None = not one).  It gets no
        ``rpc.serve`` span: control traffic is bookkeeping, not protocol."""
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
            reply = control(message)
            if reply is None:
                reply = serve_wire_message(message, handler, clock, name, queue_s)
            return reply

        def on_connection(reader, writer, serve=serve):
            # No executor: handlers run inline on this process's one loop.
            return serve_connection(reader, writer, serve)

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


class MultiprocessTransport(AsyncioTransport):
    """AsyncioTransport with some endpoints served by worker processes.

    ``worker_specs`` is one list of :class:`EndpointSpec` per worker
    process.  Workers are forked at construction and report their port
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
        # Before the loop thread starts (see _worker_context).
        context = _worker_context()
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
        #: Contact endpoint -> {pid, label, endpoints, rss}.
        self._worker_info: dict[str, dict[str, Any]] = {}
        # (process, its end of the port-map pipe, specs, options) per worker.
        started: list[tuple] = []
        try:
            # Start every worker before waiting on any of them: their server
            # builds run side by side this way.
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
                    "rss": 0,
                }
            if self._telemetry:
                self._declare_workers(tracer)
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
    def _declare_workers(self, tracer) -> None:
        """Ping each worker once at the handshake for its pid and RSS, and
        declare its process to the tracer for the merged export."""
        for contact, info in self._worker_info.items():
            result = self._control(contact, PING_METHOD, 10.0)
            _clock, info["rss"], info["pid"] = decode_reply(PING_REPLY.decode, result.payload)
            tracer.add_remote_process(info["pid"], info["label"], info["endpoints"])

    def harvest_telemetry(self) -> list[WorkerTelemetry]:
        """Pull spans and RSS from every live worker into the parent.

        Spans land in the active tracer.  Safe to call repeatedly — workers
        drain spans, so each span ships exactly once.
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
                    tracer.add_remote_spans(telemetry.pid, telemetry.spans)
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
