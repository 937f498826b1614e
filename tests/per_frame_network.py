"""The per-frame reference network: one heap event per frame hop.

Until PR 23 this was ``SimulatedNetwork``'s single-call path (``_call`` /
``_call_untimed`` / ``_transmit`` / ``_wait``), moved here unchanged in
behaviour.  The production network delivers every call as a wave by delay
arithmetic and schedules nothing; this subclass is the oracle
``TestCallBatchEqualsPhaseOfCalls`` holds it to: each message is an event on
the scheduler's heap and the caller blocks, in simulated time, until its event
fires -- request out, handler, response (or error reply) back, each leg paying
:meth:`SimulatedNetwork._route_delay`.
"""

from __future__ import annotations

from repro.errors import NetworkError, PartitionError, TransportTimeoutError
from repro.net.frames import Frame, frame_overhead
from repro.net.simulated import ERROR_REPLY_BODY_SIZE, SimulatedNetwork
from repro.net.transport import RpcRequest, RpcResult, normalize_response


class PerFrameNetwork(SimulatedNetwork):
    """``SimulatedNetwork`` whose ``call`` walks the event heap frame by frame."""

    def _wait(self, delay: float) -> None:
        done: list[bool] = []
        self.scheduler.schedule(delay, lambda: done.append(True))
        while not done:
            if not self.scheduler.step():
                raise RuntimeError("event heap drained before the awaited event fired")

    def _transmit(self, src: str, dst: str, method: str, num_bytes: int) -> None:
        """Move the clock past one message delivery, via a scheduler event."""
        link = self.topology.link(src, dst)
        if self.topology.is_partitioned(src, dst):
            raise PartitionError(f"link {src} <-> {dst} is partitioned")
        delay, delivered = self._route_delay(link, src, dst, method, num_bytes)
        self._wait(delay)
        if not delivered:
            raise NetworkError(f"message {src} -> {dst} lost after {self.max_attempts} attempts")
        self.stats.record(src, dst, method, num_bytes)

    def call(self, src, dst, method, payload=b"", *, timeout_s=None) -> RpcResult:
        if timeout_s is None:
            return self._call_untimed(src, dst, method, payload)
        # The exchange runs to its natural end, then the caller-visible clock
        # is clamped back to the deadline it stopped waiting at.
        deadline = self.scheduler.now + timeout_s
        try:
            result = self._call_untimed(src, dst, method, payload)
        except NetworkError as exc:
            if self.scheduler.now > deadline:
                self.scheduler.rewind(deadline)
                timed_out = TransportTimeoutError(
                    f"call {src} -> {dst} {method!r} exceeded its {timeout_s}s deadline"
                )
                timed_out.request_delivered = exc.request_delivered
                raise timed_out from exc
            raise
        if self.scheduler.now > deadline:
            self.scheduler.rewind(deadline)
            timed_out = TransportTimeoutError(
                f"call {src} -> {dst} {method!r} exceeded its {timeout_s}s deadline"
            )
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
            exc.request_delivered = False  # the server never saw this request
            raise

        # The handler runs at delivery time; nested calls it makes advance
        # the clock further before the response starts its trip back.
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
            # The rejection rides an error reply that can itself be lost, in
            # which case the caller sees only the (untagged) network failure.
            try:
                self._transmit(
                    dst, src, method, frame_overhead(dst, src, method) + ERROR_REPLY_BODY_SIZE
                )
            except NetworkError as transport_exc:
                raise transport_exc from exc
            raise

        try:
            self._transmit(
                dst, src, method, len(response.payload) + frame_overhead(dst, src, method)
            )
        except NetworkError as exc:
            exc.request_delivered = True  # only the acknowledgement was lost
            raise
        return RpcResult(payload=response.payload, latency_s=self.scheduler.now - start)
