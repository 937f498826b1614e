"""The abstract transport every Alpenhorn component talks through.

A transport connects *endpoints* (entry server, mix servers, PKGs, CDN) to
callers (clients, the round coordinator, other servers).  Components never
hold references to each other across a trust boundary; they hold an endpoint
name and issue framed RPCs:

* :meth:`Transport.register` binds a server object's ``handle_rpc`` to a name,
* :meth:`Transport.call` sends one request frame and returns the response,
* :meth:`Transport.phase` groups calls made on behalf of *different* origins
  into one concurrent phase (all clients of a round submit simultaneously;
  wall-clock is the slowest participant, not the sum).

Two implementations exist: :class:`DirectTransport` here (zero latency,
preserves the seed deployment's timing exactly -- the logical clock only
moves when :meth:`advance` is called) and
:class:`~repro.net.simulated.SimulatedNetwork` (a simulated clock moved by
per-link latency/bandwidth/jitter/loss models).

An RPC carries exactly its ``payload`` bytes in each direction; what a
transport charges to bandwidth is ``len(payload)`` plus the frame header
(``docs/wire.md`` tabulates every method's layout and size).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import NetworkError
from repro.net.frames import Frame, KIND_REQUEST, frame_overhead
from repro.obs.trace import active_tracer


@dataclass
class RpcRequest:
    """What a registered handler receives for one incoming call."""

    src: str
    dst: str
    method: str
    payload: bytes
    time: float = 0.0  # server-side delivery time (the transport's clock)


@dataclass
class RpcResult:
    """What :meth:`Transport.call` returns to the caller."""

    payload: bytes = b""
    latency_s: float = 0.0


#: A handler returns ``bytes``, ``None``, or a full :class:`RpcResult`.
RpcHandler = Callable[[RpcRequest], "RpcResult | bytes | None"]


@dataclass
class BatchCall:
    """One call in a :meth:`Transport.call_batch` wave.

    ``start`` overrides the simulated instant this caller begins (defaults
    to the batch's shared start time); callers chain stages -- e.g. a submit
    that begins when that client's key extraction finished -- by threading
    the previous outcome's ``finished_at`` through it.
    """

    src: str
    dst: str
    method: str
    payload: bytes = b""
    start: float | None = None


@dataclass
class BatchCallOutcome:
    """Per-call result of :meth:`Transport.call_batch`: exactly one of
    ``result`` / ``error`` is set, plus the simulated completion time."""

    result: RpcResult | None = None
    error: Exception | None = None
    finished_at: float = 0.0


def raise_first_error(outcomes: list[BatchCallOutcome]) -> None:
    """For a fan-out that needs every call to succeed: raise the wave's first
    error -- after the wave, so every endpoint was contacted."""
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error


def normalize_response(raw: "RpcResult | bytes | None") -> RpcResult:
    if raw is None:
        return RpcResult()
    if isinstance(raw, (bytes, bytearray)):
        return RpcResult(payload=bytes(raw))
    if isinstance(raw, RpcResult):
        return raw
    raise NetworkError(f"handler returned unsupported type {type(raw).__name__}")


@dataclass
class TransportStats:
    """Cumulative traffic accounting, used by scenarios and benchmarks."""

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_dropped: int = 0
    bytes_by_endpoint: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    calls_by_method: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    #: Bytes on the wire per RPC method, so bandwidth attribution reads
    #: directly instead of multiplying call counts by assumed frame sizes.
    bytes_by_method: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def record(self, src: str, dst: str, method: str, num_bytes: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += num_bytes
        self.bytes_by_endpoint[src] += num_bytes
        self.bytes_by_endpoint[dst] += num_bytes
        self.calls_by_method[method] += 1
        self.bytes_by_method[method] += num_bytes

    def record_many(self, method: str, entries: list[tuple[str, str, int]]) -> None:
        """Batch accounting for one delivery wave of a single method.

        The per-frame :meth:`record` costs five dict operations per message;
        a 100k-frame wave pays that 100k times for counters that end up
        identical.  Here the method-name keys bind once per wave, the scalar
        totals accumulate in locals, and only the per-endpoint split (which
        genuinely varies per entry) touches a dict inside the loop.
        """
        if not entries:
            return
        total = 0
        by_endpoint = self.bytes_by_endpoint
        for src, dst, num_bytes in entries:
            total += num_bytes
            by_endpoint[src] += num_bytes
            by_endpoint[dst] += num_bytes
        self.messages_sent += len(entries)
        self.bytes_sent += total
        self.calls_by_method[method] += len(entries)
        self.bytes_by_method[method] += total


class Phase:
    """A group of logically concurrent tasks (see :meth:`Transport.phase`).

    Used as a context manager::

        with transport.phase() as ph:
            for client in clients:
                ph.run(lambda: client.participate(...))
    """

    def run(self, task: Callable[[], object]) -> object:
        return task()

    def __enter__(self) -> "Phase":
        return self

    def __exit__(self, *exc) -> bool:
        return False


class Transport(ABC):
    """Abstract message-passing layer between Alpenhorn components."""

    def __init__(self) -> None:
        self._handlers: dict[str, RpcHandler] = {}
        self.stats = TransportStats()
        self._next_msg_id = 0

    # -- endpoint management -----------------------------------------------
    def register(self, name: str, handler: RpcHandler) -> None:
        if name in self._handlers:
            raise NetworkError(f"endpoint {name!r} is already registered")
        self._handlers[name] = handler

    def endpoints(self) -> list[str]:
        return sorted(self._handlers)

    def _handler_for(self, dst: str) -> RpcHandler:
        handler = self._handlers.get(dst)
        if handler is None:
            raise NetworkError(f"no endpoint registered as {dst!r}")
        return handler

    def _frame(self, src: str, dst: str, method: str, payload: bytes) -> Frame:
        frame = Frame(
            kind=KIND_REQUEST,
            msg_id=self._next_msg_id,
            src=src,
            dst=dst,
            method=method,
            payload=payload,
        )
        self._next_msg_id += 1
        return frame

    # -- the RPC surface ----------------------------------------------------
    def call(
        self,
        src: str,
        dst: str,
        method: str,
        payload: bytes = b"",
        *,
        timeout_s: float | None = None,
    ) -> RpcResult:
        """Send one request and block until the response arrives.

        ``timeout_s`` puts a deadline on the exchange: a call still in
        flight when it expires raises
        :class:`~repro.errors.TransportTimeoutError` (the simulated network
        maps the deadline onto the simulated clock, real transports onto
        wall time; :class:`DirectTransport` is zero-latency and never
        expires).  A failed call is never re-sent: the first
        :class:`NetworkError` surfaces to the caller, tagged
        ``request_delivered`` when the server acted and only the ack was
        lost, so the caller owns any retry and dedup decision.

        When tracing is active every RPC is measured as a ``transport``-
        category span (attribution only, not kept in the trace -- a round
        moves thousands of frames); disabled, the cost is one global read
        and an attribute check.
        """
        tracer = active_tracer()
        if not tracer.enabled:
            return self._call(src, dst, method, payload, timeout_s)
        span = tracer.start(method, category="transport", keep=False)
        try:
            return self._call(src, dst, method, payload, timeout_s)
        finally:
            tracer.end(span)

    def call_batch(self, calls: "list[BatchCall]") -> "list[BatchCallOutcome]":
        """Issue a wave of logically concurrent calls; never raises per-call.

        Each call's failure is captured in its :class:`BatchCallOutcome`
        instead of aborting the wave, mirroring a phase of independent
        callers where one lost frame only fails its own sender.  The base
        implementation is a plain sequential loop over :meth:`call` --
        byte-identical to issuing the calls one by one, which is exactly
        what :class:`DirectTransport` wants.  ``start`` overrides are
        meaningless without a simulated clock and are ignored here;
        :class:`~repro.net.simulated.SimulatedNetwork` overrides this with
        its delivery wave, which honors them.
        """
        outcomes: list[BatchCallOutcome] = []
        for call in calls:
            try:
                result = self.call(call.src, call.dst, call.method, call.payload)
            except Exception as exc:  # noqa: BLE001 - captured per call by design
                outcomes.append(BatchCallOutcome(error=exc, finished_at=self.now()))
            else:
                outcomes.append(BatchCallOutcome(result=result, finished_at=self.now()))
        return outcomes

    @abstractmethod
    def _call(
        self,
        src: str,
        dst: str,
        method: str,
        payload: bytes,
        timeout_s: float | None = None,
    ) -> RpcResult:
        """Transport-specific delivery of one request/response exchange."""

    @abstractmethod
    def now(self) -> float:
        """The transport's clock, in seconds."""

    @abstractmethod
    def advance(self, seconds: float) -> None:
        """Move the clock forward (e.g. the gap between scheduled rounds)."""

    def snapshot(self) -> dict:
        """The transport's own live gauges, for a run record's ``net`` section
        (the simulated network: wave and clock counters; the real runtimes:
        per-endpoint queue/connection gauges).  The base has none."""
        return {}

    def close(self) -> None:
        """Release transport-held resources (sockets, loops, workers).

        In-process transports hold nothing and inherit this no-op; real
        transports shut their servers down here.  Safe to call twice.
        """

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def phase(self) -> Phase:
        """A context for logically concurrent calls from distinct origins.

        The base implementation runs tasks sequentially with no time
        semantics; :class:`~repro.net.simulated.SimulatedNetwork` overrides
        this so every task starts at the same simulated instant and the
        phase ends at the latest finisher.
        """
        return Phase()


class DirectTransport(Transport):
    """Zero-latency transport: frames are encoded, decoded, and dispatched
    in-process.  This preserves the seed deployment's behavior bit-for-bit
    (no randomness is consumed, no time passes) while still exercising the
    wire format and producing bandwidth statistics on every run."""

    def __init__(self) -> None:
        super().__init__()
        self._clock = 0.0

    def _call(
        self,
        src: str,
        dst: str,
        method: str,
        payload: bytes,
        timeout_s: float | None = None,
    ) -> RpcResult:
        # timeout_s is accepted but can never expire: dispatch is immediate
        # and the logical clock does not move during a call.
        handler = self._handler_for(dst)
        # Round-trip the request through the frame codec so that malformed
        # payloads fail here, identically to how they would on a real link.
        frame = Frame.from_bytes(self._frame(src, dst, method, payload).to_bytes())
        self.stats.record(src, dst, method, len(payload) + frame_overhead(src, dst, method))
        request = RpcRequest(
            src=frame.src,
            dst=frame.dst,
            method=frame.method,
            payload=frame.payload,
            time=self._clock,
        )
        response = normalize_response(handler(request))
        self.stats.record(
            dst, src, method, len(response.payload) + frame_overhead(dst, src, method)
        )
        return RpcResult(payload=response.payload, latency_s=0.0)

    def now(self) -> float:
        return self._clock

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("cannot advance time backwards")
        self._clock += seconds
