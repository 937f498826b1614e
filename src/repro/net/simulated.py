"""A simulated network: the Transport over a simulated clock.

Every exchange is two message trips -- request out, response (or error
reply) back -- whose delays come from the :class:`~repro.net.links` topology
(base latency + jitter + size/bandwidth) and the shared access-link queues;
delivery is that arithmetic plus moving the clock, nothing is scheduled.
There is one delivery path, the *wave*: :meth:`SimulatedNetwork.call_batch`
delivers many logically concurrent calls, :meth:`Transport.call` a wave of
one.  Handlers that issue nested RPCs (the entry server driving the mix
chain) start a nested wave at their own arrival instant, so a round's
critical path adds up exactly like a real pipelined deployment.

Loss is modelled as per-attempt drops with retransmission after a timeout;
a message that exhausts its retries fails with :class:`NetworkError`.  A
partitioned link refuses immediately with :class:`PartitionError` (the
retry budget would change nothing deterministically).

Concurrency: clients in a round act simultaneously, not in sequence.  A
wave starts each call at its own instant and ends at the latest finisher; a
:meth:`phase` does the same for arbitrary tasks (each restarts at the phase
start).  Both model N independent machines while keeping handler execution
single-threaded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import NetworkError, PartitionError, TransportTimeoutError
from repro.net.frames import frame_overhead
from repro.net.links import LinkSpec, NetworkTopology
from repro.net.scheduler import EventScheduler
from repro.net.transport import (
    BatchCall,
    BatchCallOutcome,
    Phase,
    RpcRequest,
    RpcResult,
    Transport,
    normalize_response,
)
from repro.utils.rng import DeterministicRng

DEFAULT_RETRY_TIMEOUT_S = 1.0
DEFAULT_MAX_ATTEMPTS = 5

#: Nominal payload of an error reply (frames.KIND_ERROR): a short message.
ERROR_REPLY_BODY_SIZE = 64


@dataclass
class _AccessQueue:
    """A capacity-limited access link: a serial resource shared by all flows.

    Per-pair :class:`LinkSpec` bandwidth models each flow's own path in
    isolation -- N concurrent uploads to one server never contend there.  An
    access queue adds the missing shared bottleneck: every frame entering
    (``ingress``) or leaving (``egress``) the endpoint serializes through a
    single busy timeline, so concurrent senders queue behind each other
    exactly as they would at a server's uplink.  Zero bps disables a
    direction.  ``busy_until`` timestamps are monotonic and deliberately
    survive phase rewinds -- logically concurrent tasks contending for the
    same access link is precisely what the model is for.
    """

    ingress_bps: float = 0.0
    egress_bps: float = 0.0
    ingress_busy_until: float = 0.0
    egress_busy_until: float = 0.0


class _SimulatedPhase(Phase):
    """Concurrent-task grouping: each task restarts at the phase's t0."""

    def __init__(self, scheduler: EventScheduler) -> None:
        self._scheduler = scheduler
        self._start = scheduler.now
        self._latest = scheduler.now

    def run(self, task: Callable[[], object]) -> object:
        self._scheduler.rewind(self._start)
        try:
            return task()
        finally:
            self._latest = max(self._latest, self._scheduler.now)

    def __exit__(self, *exc) -> bool:
        self._scheduler.fast_forward(self._latest)
        return False


class SimulatedNetwork(Transport):
    """Message passing on a simulated clock with per-link performance models."""

    def __init__(
        self,
        topology: NetworkTopology | None = None,
        seed: str = "simulated-network",
        retry_timeout_s: float = DEFAULT_RETRY_TIMEOUT_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        super().__init__()
        self.topology = topology if topology is not None else NetworkTopology()
        self.scheduler = EventScheduler()
        self.rng = DeterministicRng(seed)
        self.retry_timeout_s = retry_timeout_s
        self.max_attempts = max_attempts
        self._access: dict[str, _AccessQueue] = {}
        # Per-(src, dst, method) message counters feeding the keyed rng: each
        # message's jitter/drop draws come from an rng forked by its route and
        # sequence number on that route, never from a shared sequential
        # stream.  That makes every draw independent of *global* issuance
        # order, which is what lets a wave price all its requests before it
        # runs its first handler while staying byte-identical to the same
        # calls issued one by one (tests/per_frame_network.py).
        self._msg_counts: dict[tuple[str, str, str], int] = {}
        #: The largest wave delivered so far (the run record's ``net`` gauge).
        self.frames_in_flight_peak = 0

    # -- access-link capacity ------------------------------------------------
    def set_access_link(self, name: str, ingress_mbps: float = 0.0, egress_mbps: float = 0.0) -> None:
        """Give ``name`` a capacity-limited access link (0 = uncapped).

        Unlike per-pair :class:`LinkSpec` bandwidth (each flow in
        isolation), an access link is *shared*: concurrent frames to (or
        from) the endpoint serialize through it, which is what makes a
        single entry server a measurable ingress bottleneck -- and sharding
        the tier a measurable win.
        """
        self._access[name] = _AccessQueue(
            ingress_bps=ingress_mbps * 1e6, egress_bps=egress_mbps * 1e6
        )

    def _access_delay(self, src: str, dst: str, num_bytes: int, link_delay: float) -> float:
        """Total delay including access-queue waits at both endpoints."""
        now = self.scheduler.now
        departure = now
        queue = self._access.get(src)
        if queue is not None and queue.egress_bps > 0.0:
            start = max(departure, queue.egress_busy_until)
            queue.egress_busy_until = start + num_bytes * 8.0 / queue.egress_bps
            departure = queue.egress_busy_until
        arrival = departure + link_delay
        queue = self._access.get(dst)
        if queue is not None and queue.ingress_bps > 0.0:
            start = max(arrival, queue.ingress_busy_until)
            queue.ingress_busy_until = start + num_bytes * 8.0 / queue.ingress_bps
            arrival = queue.ingress_busy_until
        return arrival - now

    # -- delay model --------------------------------------------------------
    def _message_rng(self, src: str, dst: str, method: str) -> DeterministicRng:
        """The keyed rng for the next message on this route (see __init__)."""
        key = (src, dst, method)
        counts = self._msg_counts
        n = counts.get(key, 0)
        counts[key] = n + 1
        return self.rng.fork(f"{src}/{dst}/{method}/{n}")

    def _delivery_delay(
        self, link: LinkSpec, num_bytes: int, rng: DeterministicRng
    ) -> tuple[float, bool]:
        """(delay, delivered): time elapsed and whether the message landed.

        A lost message still costs its retry timeouts -- the caller waited
        through every retransmission before giving up.
        """
        total = 0.0
        for _ in range(self.max_attempts):
            if link.dropped(rng):
                self.stats.messages_dropped += 1
                total += self.retry_timeout_s
                continue
            return total + link.transfer_delay(num_bytes, rng), True
        return total, False

    def _route_delay(
        self, link: LinkSpec, src: str, dst: str, method: str, num_bytes: int
    ) -> tuple[float, bool]:
        """One message's full delay (loss, jitter, access queues) on a route.

        A ``fluid`` link short-circuits the stochastic draws: the message
        moves as a deterministic flow (no rng forked, no route counter
        consumed) and is always delivered.  Shared access links still
        serialize it -- they are the one genuinely shared pipe the fluid
        approximation must keep.
        """
        if not link.fluid and (link.jitter_s > 0.0 or link.drop_rate > 0.0):
            rng = self._message_rng(src, dst, method)
            delay, delivered = self._delivery_delay(link, num_bytes, rng)
        else:
            delay, delivered = link.transfer_delay(num_bytes, None), True
        if delivered and self._access:
            delay = self._access_delay(src, dst, num_bytes, delay)
        return delay, delivered

    def _trip(
        self, src: str, dst: str, method: str, num_bytes: int
    ) -> tuple[float, NetworkError | None]:
        """One message leaving ``src`` now: (delay, None) if it lands, else
        (the time its sender lost, the failure)."""
        topology = self.topology
        if topology.is_partitioned(src, dst):
            return 0.0, PartitionError(f"link {src} <-> {dst} is partitioned")
        delay, delivered = self._route_delay(topology.link(src, dst), src, dst, method, num_bytes)
        if delivered:
            return delay, None
        return delay, NetworkError(
            f"message {src} -> {dst} lost after {self.max_attempts} attempts"
        )

    # -- the Transport surface ----------------------------------------------
    def call(
        self,
        src: str,
        dst: str,
        method: str,
        payload: bytes = b"",
        *,
        timeout_s: float | None = None,
    ) -> RpcResult:
        """One call: a wave of one that raises its outcome's error.

        Deadlines map onto the simulated clock: the exchange runs to its
        natural end (handler side effects included -- a real server acts
        even when its caller has given up), then the caller-visible clock
        is clamped back to the deadline it stopped waiting at, so the
        mapping is deterministic.
        """
        clock = self.scheduler
        deadline = None if timeout_s is None else clock.now + timeout_s
        (outcome,) = self._deliver([BatchCall(src, dst, method, payload)])
        error = outcome.error
        if (
            deadline is not None
            and clock.now > deadline
            and (error is None or isinstance(error, NetworkError))
        ):
            clock.rewind(deadline)
            timed_out = TransportTimeoutError(
                f"call {src} -> {dst} {method!r} exceeded its {timeout_s}s deadline"
            )
            # No error: the handler did run, a blind retry could double-apply.
            # Otherwise preserve the underlying failure's retry-safety verdict.
            timed_out.request_delivered = True if error is None else error.request_delivered
            raise timed_out from error
        if error is not None:
            raise error
        return outcome.result

    def call_batch(self, calls: list[BatchCall]) -> list[BatchCallOutcome]:
        """A wave of logically concurrent calls.

        Semantically equivalent to running every call as its own phase task
        (each starting at its ``start`` time, the wave ending at the latest
        finisher) -- and byte-identical to it on non-fluid links, because
        every stochastic draw comes from the per-message keyed rng rather
        than a shared stream.  Links marked ``fluid`` move their frames as
        deterministic flows (no jitter/loss draws).
        """
        if not calls:
            return []
        return self._deliver(calls)

    def _deliver(self, calls: list[BatchCall]) -> list[BatchCallOutcome]:
        """The one delivery path: every call's two trips, by delay arithmetic.

        All requests are priced first, in submission order, so shared access
        queues serialize them as a burst of concurrent senders would; then
        handlers run in submission order, each at its own exact arrival
        instant (the clock seeks per call -- "Python call order, not
        simulated-time order", the same approximation a phase makes), and
        each reply is priced from wherever its handler left the clock.
        Re-entrant: a handler that issues calls starts a nested wave, so
        every piece of per-wave state is a local.  Traffic stats accumulate
        locally and flush once per direction.
        """
        clock = self.scheduler
        t0 = clock.now
        if len(calls) > self.frames_in_flight_peak:
            self.frames_in_flight_peak = len(calls)

        outcomes: list[BatchCallOutcome | None] = [None] * len(calls)
        handlers: dict[str, object] = {}
        overheads: dict[tuple[str, str, str], int] = {}
        arrivals: list[tuple[int, float, float]] = []  # (call index, start, arrival)
        request_stats: dict[str, list[tuple[str, str, int]]] = {}
        for i, call in enumerate(calls):
            src, dst, method = call.src, call.dst, call.method
            start = call.start if call.start is not None else t0
            clock.seek(start)
            if dst not in handlers:
                try:
                    handlers[dst] = self._handler_for(dst)
                except NetworkError as exc:
                    outcomes[i] = BatchCallOutcome(error=exc, finished_at=start)
                    continue
            route = (src, dst, method)
            overhead = overheads.get(route)
            if overhead is None:
                overhead = overheads[route] = frame_overhead(src, dst, method)
            num_bytes = len(call.payload) + overhead
            delay, lost = self._trip(src, dst, method, num_bytes)
            if lost is not None:
                # The server never saw this request (``request_delivered``
                # stays False); callers may safely retry with fresh state.
                outcomes[i] = BatchCallOutcome(error=lost, finished_at=start + delay)
                continue
            arrivals.append((i, start, start + delay))
            entries = request_stats.get(method)
            if entries is None:
                entries = request_stats[method] = []
            entries.append((src, dst, num_bytes))
        for method, entries in request_stats.items():
            self.stats.record_many(method, entries)

        response_stats: dict[str, list[tuple[str, str, int]]] = {}
        for i, start, arrival in arrivals:
            call = calls[i]
            src, dst, method = call.src, call.dst, call.method
            clock.seek(arrival)
            request = RpcRequest(
                src=src, dst=dst, method=method, payload=call.payload, time=arrival
            )
            try:
                response = normalize_response(handlers[dst](request))
            except Exception as exc:
                # A server-side failure (protocol rejection, or a nested call
                # that died) is reported in an error reply that rides the wire
                # like any response: it pays return latency and can itself be
                # lost -- in which case the caller sees only the network failure.
                rejection, body_size = exc, ERROR_REPLY_BODY_SIZE
            else:
                rejection, body_size = None, len(response.payload)
            route = (dst, src, method)
            overhead = overheads.get(route)
            if overhead is None:
                overhead = overheads[route] = frame_overhead(dst, src, method)
            num_bytes = body_size + overhead
            # Nested calls made by the handler advanced the clock already.
            delay, lost = self._trip(dst, src, method, num_bytes)
            end = clock.now + delay
            if lost is not None:
                if rejection is None:
                    # Only the acknowledgement was lost: the server already
                    # acted, so a blind retry would double-apply the request.
                    lost.request_delivered = True
                else:
                    # Deliberately NOT tagged: the request was delivered but
                    # *rejected*, so callers that treat a lost ack as success
                    # (safe only for accepted requests) must not.
                    lost.__cause__ = rejection
                outcomes[i] = BatchCallOutcome(error=lost, finished_at=end)
                continue
            entries = response_stats.get(method)
            if entries is None:
                entries = response_stats[method] = []
            entries.append((dst, src, num_bytes))
            if rejection is not None:
                outcomes[i] = BatchCallOutcome(error=rejection, finished_at=end)
            else:
                outcomes[i] = BatchCallOutcome(
                    result=RpcResult(payload=response.payload, latency_s=end - start),
                    finished_at=end,
                )
        for method, entries in response_stats.items():
            self.stats.record_many(method, entries)
        clock.seek(max(outcome.finished_at for outcome in outcomes))
        return outcomes  # type: ignore[return-value]

    def now(self) -> float:
        return self.scheduler.now

    def snapshot(self) -> dict:
        return {
            "events_processed": self.scheduler.events_processed,
            "frames_in_flight_peak": self.frames_in_flight_peak,
        }

    def advance(self, seconds: float) -> None:
        self.scheduler.advance(seconds)

    def phase(self) -> Phase:
        return _SimulatedPhase(self.scheduler)
