"""`AsyncioTransport`: the Transport over real localhost TCP sockets.

The third deployment mode beside :class:`~repro.net.transport.DirectTransport`
and :class:`~repro.net.simulated.SimulatedNetwork`: every registered endpoint
(entry/CDN shards, mix servers, PKGs) gets its own asyncio TCP server on an
OS-assigned localhost port, and every :meth:`Transport.call` is a real
request/response exchange over a pooled connection -- length-prefixed wire
messages carrying the same :class:`~repro.net.frames.Frame` codec the other
transports round-trip in process.

Pipelining.  A connection carries a *group* of requests at a time: the client
writes them back to back and reads the replies in order (HTTP/1.1 style; a
single call is a group of one), so a :meth:`~AsyncioTransport.call_batch`
wave costs one connection and one exchange per destination.  The one server
loop, :func:`serve_connection` (shared with :mod:`repro.runtime.mp`'s
workers), takes whatever complete messages have arrived, serves them in
order -- through the endpoint's executor in one hop, or inline in a worker --
and answers with one ``write``.  Replies are matched to requests by
position, which rests on one thread serving a connection's group in order;
each reply's ``msg_id`` is checked against its request's, and a stream found
out of step is discarded.

Threading model.  One background thread runs the asyncio event loop; it only
moves bytes.  Handler execution happens on a dedicated single-thread executor
*per endpoint*: server objects are not thread-safe, so each server's handlers
serialize, while distinct tiers run genuinely in parallel -- and a handler
that issues nested RPCs (the entry server driving the mix chain) blocks its
own executor thread, not the loop, so nesting cannot deadlock the transport.
The component call graph is hierarchical (driver -> entry -> mix, client ->
pkg); a cyclic pair of endpoints calling each other simultaneously would
deadlock their two executors, and no Alpenhorn tier does that.  (An mp
worker has no executor: its mix servers make no calls, so it serves them on
its own loop thread.)

Clock.  :meth:`now` is wall time (monotonic, epoch at construction), so round
summaries and the obs layer's per-stage histograms report *real* wall-clock
seconds in this mode.  :meth:`advance` is deliberately a no-op: inter-round
gaps are a simulated-time concept and must not stall a real deployment.

The multiprocess variant (:class:`~repro.runtime.mp.MultiprocessTransport`)
extends this class with a routing table of endpoints served by worker
processes; ``_remote_ports`` is the seam it plugs into.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.errors import NetworkError, SerializationError, TransportTimeoutError
from repro.obs.distributed import TraceContext
from repro.obs.logging import get_logger
from repro.obs.trace import CATEGORY_RPC, active_tracer
from repro.net.frames import (
    Frame,
    KIND_ERROR,
    KIND_RESPONSE,
    WIRE_LENGTH_BYTES,
    decode_wire_length,
    encode_wire_message,
    frame_overhead,
)
from repro.net.transport import (
    BatchCall,
    BatchCallOutcome,
    RpcHandler,
    RpcRequest,
    RpcResult,
    Transport,
    normalize_response,
)
from repro.runtime import wire

#: Runtime-internal control RPCs (worker shutdown, clock pings, telemetry
#: harvest) use methods with this prefix.  They are bookkeeping, not
#: protocol traffic: they skip bandwidth stats and tracing entirely so a
#: traced or multiprocess run stays byte-for-byte comparable to the
#: simulated one.
CONTROL_PREFIX = "__runtime_"

#: Most bytes one socket read of a serve loop or a pipelined client takes.
_READ_BYTES = 256 * 1024

logger = get_logger("runtime")


def dispatch_wire_message(message: wire.WireMessage, handler: RpcHandler, clock) -> bytes:
    """Run one decoded request through a handler; return the reply body.

    Shared by the in-parent servers here and the worker processes in
    :mod:`repro.runtime.mp`.  Handler exceptions become ``KIND_ERROR``
    frames rather than propagating: on a real socket the rejection *is* a
    reply, exactly as the simulated network's error replies ride the wire.
    """
    frame = message.frame
    try:
        request = RpcRequest(
            src=frame.src,
            dst=frame.dst,
            method=frame.method,
            payload=frame.payload,
            time=clock(),
        )
        response = normalize_response(handler(request))
    except Exception as exc:  # noqa: BLE001 - every rejection rides the wire
        error_frame = Frame(
            kind=KIND_ERROR,
            msg_id=frame.msg_id,
            src=frame.dst,
            dst=frame.src,
            method=frame.method,
            payload=wire.encode_error(exc, endpoint=frame.dst),
        )
        return wire.encode_message(error_frame)
    reply_frame = Frame(
        kind=KIND_RESPONSE,
        msg_id=frame.msg_id,
        src=frame.dst,
        dst=frame.src,
        method=frame.method,
        payload=response.payload,
    )
    return wire.encode_message(reply_frame)


def serve_wire_message(
    message: wire.WireMessage,
    handler: RpcHandler,
    clock,
    endpoint: str,
    queue_s: float = 0.0,
) -> bytes:
    """:func:`dispatch_wire_message` wrapped in a server-side ``rpc.serve``
    span when the request carried a trace context.

    The span links to the client's ``rpc.call`` via ``parent_span``, records
    the handler-executor queue wait separately from handler time, and splits
    out the wall seconds its handler spent in crypto (rolled up through the
    span tree).  Shared by the in-parent servers and the mp workers.
    """
    tracer = active_tracer()
    context = message.trace
    if tracer is None or context is None:
        return dispatch_wire_message(message, handler, clock)
    span = tracer.start(
        "rpc.serve",
        category=CATEGORY_RPC,
        track=endpoint,
        method=message.frame.method,
        src=message.frame.src,
        parent_span=context.span_id,
        trace=context.trace,
        origin=context.origin,
        origin_pid=context.pid,
        queue_s=round(queue_s, 6),
    )
    try:
        return dispatch_wire_message(message, handler, clock)
    finally:
        tracer.end(span)
        # crypto_wall is only final once the span has ended; args stay
        # mutable after recording, so the split lands in the export.
        span.set(crypto_s=round(span.crypto_wall, 6))


def split_wire_messages(buffer: bytearray) -> list[bytes]:
    """Pop every complete length-prefixed message body off the front of
    ``buffer``; every prefix passes :func:`decode_wire_length`'s size check."""
    bodies = []
    offset = 0
    with memoryview(buffer) as view:
        while len(view) - offset >= WIRE_LENGTH_BYTES:
            start = offset + WIRE_LENGTH_BYTES
            end = start + decode_wire_length(bytes(view[offset:start]))
            if end > len(view):
                break
            bodies.append(bytes(view[start:end]))
            offset = end
    del buffer[:offset]
    return bodies


async def read_wire_messages(reader: asyncio.StreamReader, buffer: bytearray) -> list[bytes]:
    """Read until at least one complete message has arrived; return all that
    have.  ``buffer`` keeps the partial message (if any) between calls."""
    while True:
        chunk = await reader.read(_READ_BYTES)
        if not chunk:
            raise asyncio.IncompleteReadError(bytes(buffer), None)
        buffer += chunk
        bodies = split_wire_messages(buffer)
        if bodies:
            return bodies


def _serve_group(serve, messages: list[wire.WireMessage], received: float) -> list[bytes]:
    """Serve a whole group in one call, in order.  The gap from ``received``
    (loop ``perf_counter`` at arrival) to a handler's start is its queue
    wait."""
    return [serve(message, max(0.0, time.perf_counter() - received)) for message in messages]


async def serve_connection(reader, writer, serve, executor=None) -> None:
    """Serve one accepted connection until the peer hangs up: the runtime's
    one server loop, for in-parent endpoints and mp workers alike.

    ``serve(message, queue_s)`` returns a reply body.  With an ``executor``
    (single-threaded, so handlers serialize and replies keep request order)
    each group is served there in one hop, so a handler may make nested
    calls through this loop; without one it is served inline on the loop
    thread, which only a handler that makes no outgoing call may use (an
    mp worker's mix servers).  Malformed input -- an oversize length prefix,
    a body that does not decode -- closes this connection quietly; other
    connections keep being served.
    """
    loop = asyncio.get_running_loop()
    buffer = bytearray()
    try:
        while True:
            bodies = await read_wire_messages(reader, buffer)
            received = time.perf_counter()
            messages = [wire.decode_message(body) for body in bodies]
            if executor is None:
                replies = _serve_group(serve, messages, received)
            else:
                replies = await loop.run_in_executor(
                    executor, _serve_group, serve, messages, received
                )
            writer.write(b"".join(map(encode_wire_message, replies)))
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError, asyncio.CancelledError):
        # The peer hung up (its own call already failed) or teardown reaped
        # this task.  It ends here either way; not re-raising the cancellation
        # keeps Python 3.11's start_server done-callback, which reads
        # ``task.exception()`` of a cancelled task, out of the log.
        pass
    except SerializationError as exc:
        logger.debug("closing connection on malformed wire input: %s", exc)
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


class _Connection:
    """One pooled client connection; carries one pipelined group at a time."""

    __slots__ = ("reader", "writer", "buffer")

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.buffer = bytearray()

    async def exchange(self, data: bytes, replies: list[tuple[bytes, float]], count: int) -> None:
        """Write ``count`` back-to-back requests; append each reply body and
        its arrival ``perf_counter`` to ``replies``, in request order.  No
        ``drain()`` before reading: the loop keeps flushing the group while
        replies are read, so a wave larger than the socket buffers cannot
        leave both ends blocked on a full send buffer."""
        self.writer.write(data)
        while len(replies) < count:
            bodies = await read_wire_messages(self.reader, self.buffer)
            arrived = time.perf_counter()
            replies.extend((body, arrived) for body in bodies)

    def close(self) -> None:
        if not self.writer.is_closing():
            self.writer.close()


class AsyncioTransport(Transport):
    """Real localhost TCP sockets behind the :class:`Transport` surface."""

    def __init__(self, host: str = "127.0.0.1", start_timeout_s: float = 30.0) -> None:
        super().__init__()
        self._host = host
        self._start_timeout_s = start_timeout_s
        #: Endpoint -> port for locally served endpoints.
        self._ports: dict[str, int] = {}
        #: Endpoint -> port for endpoints served by worker processes (filled
        #: by the multiprocess subclass before any register() call).
        self._remote_ports: dict[str, int] = {}
        self._servers: dict[str, asyncio.AbstractServer] = {}
        self._executors: dict[str, ThreadPoolExecutor] = {}
        #: Idle pooled connections per destination -- touched only from the
        #: event-loop thread, so no lock.
        self._idle: dict[str, list[_Connection]] = {}
        self._connections: set[_Connection] = set()
        #: Serializes msg-id allocation and stats mutation across the
        #: concurrently calling handler threads.
        self._send_lock = threading.Lock()
        #: Destination -> requests currently awaiting a reply (loop thread
        #: only); feeds :meth:`snapshot`.
        self._in_flight: dict[str, int] = {}
        self._epoch = time.monotonic()
        self._closed = False
        self._loop = asyncio.new_event_loop()
        self._loop_thread = threading.Thread(
            target=self._run_loop, name="repro-runtime-loop", daemon=True
        )
        self._loop_thread.start()

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    # -- endpoint management -------------------------------------------------
    def register(self, name: str, handler: RpcHandler) -> None:
        if self._closed:
            raise NetworkError("transport is closed")
        super().register(name, handler)
        if name in self._remote_ports:
            # A worker process serves this endpoint; the local object is a
            # construction artifact and never receives traffic.
            return
        self._executors[name] = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"rpc-{name}"
        )
        future = asyncio.run_coroutine_threadsafe(self._start_server(name), self._loop)
        self._ports[name] = future.result(self._start_timeout_s)

    async def _start_server(self, name: str) -> int:
        handler, executor = self._handlers[name], self._executors[name]

        def serve(message: wire.WireMessage, queue_s: float) -> bytes:
            return serve_wire_message(message, handler, self.now, name, queue_s)

        def on_connection(reader, writer):
            return serve_connection(reader, writer, serve, executor)

        server = await asyncio.start_server(on_connection, host=self._host, port=0)
        self._servers[name] = server
        return server.sockets[0].getsockname()[1]

    def _port_for(self, dst: str) -> int:
        port = self._ports.get(dst)
        if port is None:
            port = self._remote_ports.get(dst)
        if port is None:
            raise NetworkError(f"no endpoint registered as {dst!r}")
        return port

    # -- connection pool (event-loop thread only) ----------------------------
    async def _acquire(self, dst: str, port: int) -> _Connection:
        idle = self._idle.setdefault(dst, [])
        while idle:
            conn = idle.pop()
            if not conn.writer.is_closing():
                return conn
            self._connections.discard(conn)
        try:
            reader, writer = await asyncio.open_connection(self._host, port)
        except OSError as exc:
            raise NetworkError(f"cannot connect to {dst!r} on port {port}: {exc}") from exc
        conn = _Connection(reader, writer)
        self._connections.add(conn)
        return conn

    def _release(self, dst: str, conn: _Connection) -> None:
        if self._closed or conn.writer.is_closing():
            self._discard(conn)
        else:
            self._idle.setdefault(dst, []).append(conn)

    def _discard(self, conn: _Connection) -> None:
        self._connections.discard(conn)
        conn.close()

    async def _request(
        self, dst: str, data: bytes, timeout_s: float | None, replies: list, count: int = 1
    ) -> _Connection:
        """One pipelined exchange of ``count`` requests on one pooled
        connection.  Replies land in ``replies`` as they arrive, so the ones
        read before a connection died mid-group survive the exception."""
        # Per-destination in-flight gauge; loop-thread only, like the pool.
        self._in_flight[dst] = self._in_flight.get(dst, 0) + count
        try:
            conn = await self._acquire(dst, self._port_for(dst))
            try:
                if timeout_s is None:
                    await conn.exchange(data, replies, count)
                else:
                    await asyncio.wait_for(conn.exchange(data, replies, count), timeout_s)
            except asyncio.TimeoutError:
                # The connection is mid-exchange; a late reply would desync the
                # stream, so the connection dies with the deadline.
                self._discard(conn)
                raise TransportTimeoutError(
                    f"call to {dst!r} exceeded its {timeout_s}s deadline"
                ) from None
            except (asyncio.IncompleteReadError, OSError, SerializationError) as exc:
                self._discard(conn)
                raise NetworkError(f"connection to {dst!r} failed mid-call: {exc}") from exc
            self._release(dst, conn)
            return conn
        finally:
            self._in_flight[dst] -= count

    # -- the Transport surface -----------------------------------------------
    def call(
        self,
        src: str,
        dst: str,
        method: str,
        payload: bytes = b"",
        *,
        timeout_s: float | None = None,
    ) -> RpcResult:
        if self._closed:
            raise NetworkError("transport is closed")
        self._port_for(dst)  # an unknown endpoint fails before any accounting
        control = method.startswith(CONTROL_PREFIX)
        tracer = None if control else active_tracer()
        with self._send_lock:
            frame = self._frame(src, dst, method, payload)
        span = context = None
        if tracer is not None:
            span = tracer.start(
                "rpc.call", category=CATEGORY_RPC, track=src, src=src, dst=dst, method=method
            )
            span.set(span_id=span.span_id)
            context = TraceContext(tracer.trace_id, span.span_id, src, os.getpid())
        try:
            # Encoded before it is counted: a message over the size limit
            # never leaves, so it is no traffic.
            body = encode_wire_message(wire.encode_message(frame, context))
            if not control:
                # Request accounting matches the in-process transports:
                # payload + frame overhead (the stream's 4-byte length prefix
                # is transport framing, not protocol bandwidth).
                with self._send_lock:
                    self.stats.record(
                        src, dst, method, len(payload) + frame_overhead(src, dst, method)
                    )
            replies: list[tuple[bytes, float]] = []
            started = time.monotonic()
            conn = asyncio.run_coroutine_threadsafe(
                self._request(dst, body, timeout_s, replies), self._loop
            ).result()
            latency_s = time.monotonic() - started
            return self._finish_call(src, dst, method, frame.msg_id, replies[0][0], latency_s, conn)
        finally:
            if span is not None:
                tracer.end(span)

    def _finish_call(
        self, src: str, dst: str, method: str, msg_id: int, reply_body: bytes,
        latency_s: float, conn: _Connection | None,
    ) -> RpcResult:
        message = wire.decode_message(reply_body)
        reply = message.frame
        if reply.msg_id != msg_id:
            # Replies are matched to requests by position: an id that
            # disagrees means the stream is out of step, and every later
            # reply on it is suspect too.  (No conn: already discarded.)
            if conn is not None:
                self._loop.call_soon_threadsafe(self._discard, conn)
            raise NetworkError(
                f"reply from {dst!r} answers message {reply.msg_id}, not {msg_id}: "
                "connection out of step"
            )
        control = method.startswith(CONTROL_PREFIX)
        overhead = frame_overhead(dst, src, method)
        if reply.kind == KIND_ERROR:
            if not control:
                with self._send_lock:
                    self.stats.record(dst, src, method, len(reply.payload) + overhead)
            raise wire.decode_error(reply.payload)
        if not control:
            with self._send_lock:
                self.stats.record(dst, src, method, len(reply.payload) + overhead)
        return RpcResult(payload=reply.payload, latency_s=latency_s)

    def call_batch(self, calls: list[BatchCall]) -> list[BatchCallOutcome]:
        """A wave of concurrent calls: one pipelined exchange per destination.

        Encoding happens on the calling thread.  The wave's calls are grouped
        by destination; each group takes one pooled connection, goes out as
        one back-to-back write and is served in one pass (one executor hop
        for an in-parent endpoint), and the groups run concurrently -- so a
        1000-client submit wave costs one exchange plus its handlers, not
        1000 connections.  Outcomes come back
        in call order and stay isolated: an error reply fails its own call,
        and a connection that dies mid-group fails the calls it had not yet
        answered (``NetworkError``) while keeping the replies already read.
        ``start`` overrides are simulated-clock offsets and are ignored on
        wall time, like the base implementation ignores them.
        """
        if not calls:
            return []
        if self._closed:
            raise NetworkError("transport is closed")
        tracer = active_tracer()
        outcomes: list[BatchCallOutcome | None] = [None] * len(calls)
        # dst -> [(call index, msg id, span id, wire bytes)].  A wave of N
        # overlapping calls on one thread cannot nest on the span stack, so
        # each exchange is timed on the loop and recorded as a detached span.
        groups: dict[str, list[tuple[int, int, int, bytes]]] = {}
        for index, call in enumerate(calls):
            try:
                self._port_for(call.dst)
            except NetworkError as exc:
                outcomes[index] = BatchCallOutcome(error=exc, finished_at=self.now())
                continue
            with self._send_lock:
                frame = self._frame(call.src, call.dst, call.method, call.payload)
            context = None
            span_id = 0
            if tracer is not None:
                span_id = tracer.next_span_id()
                context = TraceContext(tracer.trace_id, span_id, call.src, os.getpid())
            try:
                body = encode_wire_message(wire.encode_message(frame, context))
            except SerializationError as exc:  # over the size limit: this call only
                outcomes[index] = BatchCallOutcome(error=exc, finished_at=self.now())
                continue
            with self._send_lock:
                self.stats.record(
                    call.src,
                    call.dst,
                    call.method,
                    len(call.payload) + frame_overhead(call.src, call.dst, call.method),
                )
            groups.setdefault(call.dst, []).append((index, frame.msg_id, span_id, body))

        async def run_group(dst: str, group: list[tuple[int, int, int, bytes]]):
            replies: list[tuple[bytes | None, float]] = []
            conn = error = None
            t0 = time.perf_counter()
            try:
                data = b"".join(body for _index, _msg_id, _span_id, body in group)
                conn = await self._request(dst, data, None, replies, len(group))
            except Exception as exc:  # noqa: BLE001 - captured per call
                error = exc
                # The calls the dead connection never answered end here.
                replies += [(None, time.perf_counter())] * (len(group) - len(replies))
            return replies, conn, error, t0

        async def run_wave():
            return await asyncio.gather(*(run_group(dst, group) for dst, group in groups.items()))

        results = asyncio.run_coroutine_threadsafe(run_wave(), self._loop).result()
        # A call finished when its reply arrived on the loop (a perf_counter
        # reading), not when this thread gets round to decoding it.
        to_clock = self.now() - time.perf_counter()
        for group, (replies, conn, error, t0) in zip(groups.values(), results):
            for (index, msg_id, span_id, _body), (reply_body, t1) in zip(group, replies):
                call = calls[index]
                if tracer is not None:
                    span = tracer.record_span(
                        "rpc.call",
                        category=CATEGORY_RPC,
                        track=call.src,
                        wall_start=t0,
                        wall_end=t1,
                        span_id=span_id,
                        src=call.src,
                        dst=call.dst,
                        method=call.method,
                        batch=True,
                    )
                    span.set(span_id=span_id)
                finished = t1 + to_clock
                try:
                    if reply_body is None:
                        raise error
                    result = self._finish_call(
                        call.src, call.dst, call.method, msg_id, reply_body, t1 - t0, conn
                    )
                except Exception as exc:  # noqa: BLE001 - captured per call
                    outcomes[index] = BatchCallOutcome(error=exc, finished_at=finished)
                else:
                    outcomes[index] = BatchCallOutcome(result=result, finished_at=finished)
        return outcomes

    def now(self) -> float:
        return time.monotonic() - self._epoch

    def advance(self, seconds: float) -> None:
        """A deliberate no-op: wall time cannot be scheduled forward.

        Inter-round gaps and retry-backoff bookkeeping are simulated-clock
        concepts; a real deployment just keeps going.
        """
        if seconds < 0:
            raise ValueError("cannot advance time backwards")

    # -- live visibility ------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per-endpoint live gauges (the dashboard's Runtime panel).

        ``queue_depth`` is the handler executor's backlog, ``in_flight``
        outstanding requests *to* the endpoint, ``connections`` idle pooled
        connections.  Best-effort reads of loop-thread state; staleness is
        fine for a dashboard.
        """
        names = set(self._executors) | set(self._in_flight) | set(self._idle)
        snapshot: dict[str, dict[str, float]] = {}
        for name in sorted(names):
            queue_depth = 0
            executor = self._executors.get(name)
            if executor is not None:
                work_queue = getattr(executor, "_work_queue", None)
                if work_queue is not None:
                    with contextlib.suppress(Exception):
                        queue_depth = work_queue.qsize()
            snapshot[name] = {
                "queue_depth": queue_depth,
                "in_flight": self._in_flight.get(name, 0),
                "connections": len(self._idle.get(name, ())),
            }
        return snapshot

    # -- teardown -------------------------------------------------------------
    async def _shutdown_async(self) -> None:
        for server in self._servers.values():
            server.close()
        for server in self._servers.values():
            with contextlib.suppress(Exception):
                await server.wait_closed()
        for conn in list(self._connections):
            conn.close()
        self._connections.clear()
        self._idle.clear()
        # Reap the per-connection server tasks still parked on a read, so
        # the loop closes clean instead of destroying pending tasks.
        current = asyncio.current_task()
        lingering = [task for task in asyncio.all_tasks() if task is not current]
        for task in lingering:
            task.cancel()
        await asyncio.gather(*lingering, return_exceptions=True)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._loop.is_running():
            future = asyncio.run_coroutine_threadsafe(self._shutdown_async(), self._loop)
            with contextlib.suppress(Exception):
                future.result(self._start_timeout_s)
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._loop_thread.join(timeout=self._start_timeout_s)
        if not self._loop.is_running():
            self._loop.close()
        for executor in self._executors.values():
            executor.shutdown(wait=True, cancel_futures=True)
