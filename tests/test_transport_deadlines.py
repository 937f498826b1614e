"""RPC deadlines on :meth:`Transport.call`, which never retries."""

from __future__ import annotations

import pytest

from repro.errors import NetworkError, TransportTimeoutError
from repro.net import DirectTransport, LinkSpec, NetworkTopology, SimulatedNetwork
from repro.net.transport import RpcResult


def flaky_handler(failures: int, *, request_delivered: bool = False):
    """A handler that raises ``NetworkError`` for its first *failures* calls."""
    attempts = []

    def handler(request):
        attempts.append(request.method)
        if len(attempts) <= failures:
            exc = NetworkError("injected fault")
            exc.request_delivered = request_delivered
            raise exc
        return RpcResult(payload=b"ok")

    return handler, attempts


class TestRetry:
    """``Transport.call`` never re-sends: the first failure surfaces."""

    def test_no_retries_by_default(self):
        transport = DirectTransport()
        handler, attempts = flaky_handler(1)
        transport.register("server", handler)
        with pytest.raises(NetworkError) as excinfo:
            transport.call("client", "server", "ping")
        assert excinfo.value.request_delivered is False
        assert len(attempts) == 1
        assert transport.now() == 0.0  # no backoff passed on the clock

    def test_delivered_failures_never_retried(self):
        # The server acted and only the ack was lost: the failure carries
        # that tag to the caller, who owns any re-send and dedup decision.
        transport = DirectTransport()
        handler, attempts = flaky_handler(10, request_delivered=True)
        transport.register("server", handler)
        with pytest.raises(NetworkError) as excinfo:
            transport.call("client", "server", "ping")
        assert excinfo.value.request_delivered is True
        assert len(attempts) == 1


class TestDeadlines:
    def make_net(self, latency_s: float) -> SimulatedNetwork:
        net = SimulatedNetwork(
            topology=NetworkTopology(default=LinkSpec(latency_s=latency_s)),
            seed="deadlines",
        )
        net.register("server", lambda request: RpcResult(payload=b"ok"))
        return net

    def test_direct_transport_never_expires(self):
        transport = DirectTransport()
        transport.register("server", lambda request: RpcResult(payload=b"ok"))
        result = transport.call("client", "server", "ping", timeout_s=1e-9)
        assert result.payload == b"ok"

    def test_simulated_deadline_expires_on_slow_link(self):
        net = self.make_net(latency_s=1.0)
        with pytest.raises(TransportTimeoutError) as excinfo:
            net.call("client", "server", "ping", timeout_s=0.5)
        # The handler did run before the caller gave up.
        assert excinfo.value.request_delivered is True
        # The caller-visible clock is clamped back to the deadline.
        assert net.now() == pytest.approx(0.5)

    def test_simulated_deadline_met_is_transparent(self):
        net = self.make_net(latency_s=1.0)
        result = net.call("client", "server", "ping", timeout_s=10.0)
        assert result.payload == b"ok"
        assert net.now() == pytest.approx(2.0)  # request + response hops

    def test_deadline_mapping_is_deterministic(self):
        clocks = []
        for _ in range(2):
            net = self.make_net(latency_s=1.0)
            with pytest.raises(TransportTimeoutError):
                net.call("client", "server", "ping", timeout_s=0.5)
            net.call("client", "server", "ping", timeout_s=10.0)
            clocks.append(net.now())
        assert clocks[0] == clocks[1]

    def test_timeout_is_a_round_error(self):
        # The round engine keys abort/requeue decisions on RoundError; a
        # deadline expiry must qualify without special-casing.
        from repro.errors import RoundError

        assert issubclass(TransportTimeoutError, NetworkError)
        assert issubclass(TransportTimeoutError, RoundError)
