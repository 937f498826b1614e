"""A simulated network: the Transport over a discrete-event scheduler.

Every :meth:`call` becomes two scheduled message deliveries -- request out,
response back -- whose delays come from the :class:`~repro.net.links`
topology (base latency + jitter + size/bandwidth).  The caller blocks, in
simulated time, until its response event fires; handlers that issue nested
RPCs (the entry server driving the mix chain) re-enter the scheduler, so a
round's critical path adds up exactly like a real pipelined deployment.

Loss is modelled as per-attempt drops with retransmission after a timeout;
a message that exhausts its retries raises :class:`NetworkError`.  A
partitioned link refuses immediately with :class:`PartitionError` (the
retry budget would change nothing deterministically).

Concurrency: clients in a round act simultaneously, not in sequence.  A
:meth:`phase` rewinds the clock to the phase start for each task and ends
the phase at the latest finisher, which models N independent machines while
keeping handler execution single-threaded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import NetworkError, PartitionError, TransportTimeoutError
from repro.net.frames import Frame, FrameBatch, frame_overhead
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
from repro.obs.trace import CATEGORY_SCHEDULER, CATEGORY_TRANSPORT, active_tracer
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
    """Discrete-event message passing with per-link performance models."""

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
        # order, which is what lets the batched delivery path reorder its
        # bookkeeping while staying byte-identical to the per-frame path.
        self._msg_counts: dict[tuple[str, str, str], int] = {}
        #: Gauges exported via scenario metrics: current/peak frames held in
        #: columnar form by an in-progress delivery batch.
        self.frames_in_flight = 0
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

    def clear_access_link(self, name: str) -> None:
        self._access.pop(name, None)

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
        self, link: LinkSpec, src: str, dst: str, method: str, num_bytes: int, fluid: bool
    ) -> tuple[float, bool]:
        """One message's full delay (loss, jitter, access queues) on a route.

        ``fluid`` short-circuits the stochastic draws: the message moves as a
        deterministic flow (no rng forked, no route counter consumed) and is
        always delivered.  Shared access links still serialize it -- they are
        the one genuinely shared pipe the fluid approximation must keep.
        """
        if fluid:
            delay, delivered = link.transfer_delay(num_bytes, None), True
        elif link.jitter_s > 0.0 or link.drop_rate > 0.0:
            rng = self._message_rng(src, dst, method)
            delay, delivered = self._delivery_delay(link, num_bytes, rng)
        else:
            delay, delivered = link.transfer_delay(num_bytes, None), True
        if delivered and self._access:
            delay = self._access_delay(src, dst, num_bytes, delay)
        return delay, delivered

    def _wait(self, delay: float) -> None:
        done: list[bool] = []
        self.scheduler.schedule(delay, lambda: done.append(True))
        self.scheduler.run_until(lambda: bool(done))

    def _transmit(self, src: str, dst: str, method: str, num_bytes: int) -> None:
        """Move the clock past one message delivery, via a scheduler event."""
        link = self.topology.link(src, dst)
        if self.topology.is_partitioned(src, dst):
            raise PartitionError(f"link {src} <-> {dst} is partitioned")
        delay, delivered = self._route_delay(link, src, dst, method, num_bytes, fluid=False)
        self._wait(delay)
        if not delivered:
            raise NetworkError(
                f"message {src} -> {dst} lost after {self.max_attempts} attempts"
            )
        self.stats.record(src, dst, method, num_bytes)

    # -- the Transport surface ----------------------------------------------
    def _call(
        self,
        src: str,
        dst: str,
        method: str,
        payload: bytes,
        timeout_s: float | None = None,
    ) -> RpcResult:
        if timeout_s is None:
            return self._call_untimed(src, dst, method, payload)
        # Deadlines map onto the simulated clock: the exchange runs to its
        # natural end (handler side effects included -- a real server acts
        # even when its caller has given up), then the caller-visible clock
        # is clamped back to the deadline it stopped waiting at.  Pending
        # events keep their absolute times, exactly as in a phase rewind,
        # so the mapping is deterministic and composes with retry backoff.
        deadline = self.scheduler.now + timeout_s
        try:
            result = self._call_untimed(src, dst, method, payload)
        except NetworkError as exc:
            if self.scheduler.now > deadline:
                self.scheduler.rewind(deadline)
                timed_out = TransportTimeoutError(
                    f"call {src} -> {dst} {method!r} exceeded its {timeout_s}s deadline"
                )
                # Preserve the underlying failure's retry-safety verdict.
                timed_out.request_delivered = exc.request_delivered
                raise timed_out from exc
            raise
        if self.scheduler.now > deadline:
            self.scheduler.rewind(deadline)
            timed_out = TransportTimeoutError(
                f"call {src} -> {dst} {method!r} exceeded its {timeout_s}s deadline"
            )
            # The handler did run; a blind retry could double-apply.
            timed_out.request_delivered = True
            raise timed_out
        return result

    def _call_untimed(self, src: str, dst: str, method: str, payload: bytes) -> RpcResult:
        handler = self._handler_for(dst)
        start = self.scheduler.now

        frame = Frame.from_bytes(self._frame(src, dst, method, payload).to_bytes())
        try:
            self._transmit(src, dst, method, len(payload) + frame_overhead(src, dst, method))
        except NetworkError as exc:
            # The server never saw this request; callers may safely retry
            # with fresh state (see Deployment's requeue-on-failure).
            exc.request_delivered = False
            raise

        # The handler runs at delivery time; nested calls it makes advance
        # the scheduler further before the response starts its trip back.
        request = RpcRequest(
            src=frame.src,
            dst=frame.dst,
            method=frame.method,
            payload=frame.payload,
            time=self.scheduler.now,
        )
        try:
            response = normalize_response(handler(request))
        except Exception as exc:
            # A server-side failure (protocol rejection, or a nested call
            # that died) is reported in an error reply that rides the wire
            # like any response: it pays return latency and can itself be
            # lost -- in which case the caller sees only the network failure.
            try:
                self._transmit(dst, src, method, frame_overhead(dst, src, method) + ERROR_REPLY_BODY_SIZE)
            except NetworkError as transport_exc:
                # Deliberately NOT tagged request_delivered: the request was
                # delivered but *rejected*, so callers that treat a lost ack
                # as success (safe only for accepted requests) must not.
                raise transport_exc from exc
            raise

        try:
            self._transmit(
                dst, src, method, len(response.payload) + frame_overhead(dst, src, method)
            )
        except NetworkError as exc:
            # Only the acknowledgement was lost: the server already acted on
            # the request, so a blind retry would double-apply it.
            exc.request_delivered = True
            raise
        return RpcResult(payload=response.payload, latency_s=self.scheduler.now - start)

    # -- batched (slotted/columnar) delivery ---------------------------------
    def call_batch(self, calls: list[BatchCall]) -> list[BatchCallOutcome]:
        """A wave of logically concurrent calls over columnar frame storage.

        Semantically equivalent to running every call as its own phase task
        (each starting at its ``start`` time, the batch ending at the latest
        finisher) -- and byte-identical to it on non-fluid links, because
        every stochastic draw comes from the per-message keyed rng rather
        than a shared stream.  Mechanically very different:

        * frames live in one :class:`FrameBatch` (struct-of-arrays), not as
          per-frame ``Frame``/``Event``/closure objects;
        * arrivals coalesce into per-(destination, time-slot) batch events
          via :meth:`EventScheduler.schedule_slotted` -- heap traffic is
          O(active slots), not O(frames);
        * responses need no heap events at all (each rides back to a
          distinct caller, so there is nothing to coalesce);
        * traffic stats are accumulated locally and flushed once per wave.

        Handlers still execute in submission order, each at its own exact
        arrival instant (the clock seeks per frame) -- the same "Python call
        order, not simulated-time order" approximation the per-frame phase
        machinery documents.  Links marked ``fluid`` move their frames as
        deterministic flows (no jitter/loss draws); everything else keeps
        full per-frame fidelity.
        """
        if not calls:
            return []
        tracer = active_tracer()
        if not tracer.enabled:
            return self._call_batch(calls, None)
        span = tracer.start("call_batch", category=CATEGORY_TRANSPORT, keep=False)
        try:
            return self._call_batch(calls, tracer)
        finally:
            tracer.end(span)

    def _call_batch(self, calls: list[BatchCall], tracer) -> list[BatchCallOutcome]:
        sched = self.scheduler
        topo = self.topology
        t0 = sched.now
        n = len(calls)
        self.frames_in_flight = n
        if n > self.frames_in_flight_peak:
            self.frames_in_flight_peak = n
        # Request frames never materialize, but their ids still burn so the
        # counter agrees with the per-frame path.
        self._next_msg_id += n

        batch = FrameBatch()
        starts: list[float] = []
        for call in calls:
            batch.append(call.src, call.dst, call.method, call.payload)
            starts.append(call.start if call.start is not None else t0)
        arrivals = batch.deadlines  # the deadline column doubles as arrival times

        outcomes: list[BatchCallOutcome | None] = [None] * n
        handlers: dict[str, object] = {}
        request_stats: dict[str, list[tuple[str, str, int]]] = {}
        deliverable: list[int] = []

        # Pass 1 (scheduler-side): per-frame delays and slotted arrivals, in
        # submission order so shared access queues serialize exactly as the
        # per-frame path would.
        sched_span = (
            tracer.start("scheduler", category=CATEGORY_SCHEDULER, keep=False) if tracer else None
        )
        srcs, dsts, methods, wire_sizes = batch.srcs, batch.dsts, batch.methods, batch.wire_sizes
        for i in range(n):
            src, dst, method = srcs[i], dsts[i], methods[i]
            start = starts[i]
            sched.seek(start)
            if dst not in handlers:
                try:
                    handlers[dst] = self._handler_for(dst)
                except NetworkError as exc:
                    outcomes[i] = BatchCallOutcome(error=exc, finished_at=start)
                    continue
            link = topo.link(src, dst)
            if topo.is_partitioned(src, dst):
                outcomes[i] = BatchCallOutcome(
                    error=PartitionError(f"link {src} <-> {dst} is partitioned"),
                    finished_at=start,
                )
                continue
            num_bytes = wire_sizes[i]
            delay, delivered = self._route_delay(link, src, dst, method, num_bytes, link.fluid)
            end = start + delay
            if not delivered:
                exc = NetworkError(
                    f"message {src} -> {dst} lost after {self.max_attempts} attempts"
                )
                exc.request_delivered = False
                outcomes[i] = BatchCallOutcome(error=exc, finished_at=end)
                continue
            arrivals[i] = end
            deliverable.append(i)
            entries = request_stats.get(method)
            if entries is None:
                entries = request_stats[method] = []
            entries.append((src, dst, num_bytes))
            sched.schedule_slotted(dst, end, i, self._deliver_slot)
        sched.run_until_idle()
        if sched_span is not None:
            tracer.end(sched_span)
        for method, entries in request_stats.items():
            self.stats.record_many(method, entries)

        # Pass 2 (dispatch): handlers run in submission order at their exact
        # arrival instants; responses ride back without heap events.
        response_stats: dict[str, list[tuple[str, str, int]]] = {}
        response_overheads: dict[tuple[str, str, str], int] = {}
        for i in deliverable:
            src, dst, method = srcs[i], dsts[i], methods[i]
            arrival = arrivals[i]
            sched.seek(arrival)
            request = RpcRequest(
                src=src, dst=dst, method=method, payload=batch.payloads[i], time=arrival
            )
            try:
                response = normalize_response(handlers[dst](request))
            except Exception as exc:
                # Same contract as the per-frame path: the rejection rides an
                # error reply that can itself be lost, in which case the
                # caller sees only the network failure (and must not treat
                # the lost ack as success -- no request_delivered tag).
                try:
                    self._transmit(
                        dst, src, method, frame_overhead(dst, src, method) + ERROR_REPLY_BODY_SIZE
                    )
                except NetworkError as transport_exc:
                    transport_exc.__cause__ = exc
                    outcomes[i] = BatchCallOutcome(error=transport_exc, finished_at=sched.now)
                    continue
                outcomes[i] = BatchCallOutcome(error=exc, finished_at=sched.now)
                continue
            # Nested calls made by the handler advanced the clock already.
            back_start = sched.now
            route = (dst, src, method)
            overhead = response_overheads.get(route)
            if overhead is None:
                overhead = response_overheads[route] = frame_overhead(dst, src, method)
            num_bytes = len(response.payload) + overhead
            link = topo.link(src, dst)
            if topo.is_partitioned(src, dst):
                outcomes[i] = BatchCallOutcome(
                    error=PartitionError(f"link {src} <-> {dst} is partitioned"),
                    finished_at=back_start,
                )
                continue
            delay, delivered = self._route_delay(link, dst, src, method, num_bytes, link.fluid)
            end = back_start + delay
            if not delivered:
                exc = NetworkError(
                    f"message {dst} -> {src} lost after {self.max_attempts} attempts"
                )
                exc.request_delivered = True
                outcomes[i] = BatchCallOutcome(error=exc, finished_at=end)
                continue
            entries = response_stats.get(method)
            if entries is None:
                entries = response_stats[method] = []
            entries.append((dst, src, num_bytes))
            outcomes[i] = BatchCallOutcome(
                result=RpcResult(payload=response.payload, latency_s=end - starts[i]),
                finished_at=end,
            )
        for method, entries in response_stats.items():
            self.stats.record_many(method, entries)
        self.frames_in_flight = 0
        sched.seek(max(outcome.finished_at for outcome in outcomes))
        return outcomes  # type: ignore[return-value]

    def _deliver_slot(self, items: list[tuple[float, object]]) -> None:
        """One per-(destination, slot) batch arrival: frames leave the wire."""
        self.frames_in_flight -= len(items)

    def now(self) -> float:
        return self.scheduler.now

    def snapshot(self) -> dict:
        scheduler = self.scheduler
        return {
            "heap_size": scheduler.max_heap_size,
            "slot_events": scheduler.slot_events,
            "slotted_items": scheduler.slotted_items,
            "events_processed": scheduler.events_processed,
            "frames_in_flight_peak": self.frames_in_flight_peak,
        }

    def advance(self, seconds: float) -> None:
        self.scheduler.advance(seconds)

    def phase(self) -> Phase:
        return _SimulatedPhase(self.scheduler)
