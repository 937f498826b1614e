"""The transport subsystem: frames, scheduler, links, and both transports."""

from __future__ import annotations

import pytest

from dataclasses import replace

from repro.core.config import AlpenhornConfig
from repro.core.coordinator import Deployment
from repro.errors import NetworkError, PartitionError, ProtocolError, SerializationError
from repro.net import (
    DirectTransport,
    EventScheduler,
    Frame,
    LinkSpec,
    NetworkTopology,
    SimulatedNetwork,
)
from repro.net.frames import decode_envelope_batch, encode_envelope_batch
from repro.net.transport import BatchCall, RpcResult
from repro.obs.distributed import PING_REPLY
from repro.utils.rng import DeterministicRng
from per_frame_network import PerFrameNetwork
from wire_oracle import Packer


class TestFrames:
    def test_roundtrip(self):
        frame = Frame(kind=0, msg_id=7, src="alice@x", dst="entry", method="submit", payload=b"\x01\x02")
        decoded = Frame.from_bytes(frame.to_bytes())
        assert decoded == frame

    def test_bad_magic_rejected(self):
        blob = Frame(0, 1, "a", "b", "m", b"").to_bytes()
        with pytest.raises(SerializationError):
            Frame.from_bytes(b"XXXX" + blob[4:])

    def test_trailing_bytes_rejected(self):
        blob = Frame(0, 1, "a", "b", "m", b"").to_bytes()
        with pytest.raises(SerializationError):
            Frame.from_bytes(blob + b"\x00")

    def test_frame_overhead_matches_codec(self):
        from repro.net.frames import frame_overhead

        for src, dst, method in [("a", "b", "m"), ("alice@example.org", "entry", "submit")]:
            packed = len(Frame(0, 0, src, dst, method, b"").to_bytes())
            assert frame_overhead(src, dst, method) == packed

    def test_envelope_batch_roundtrip(self):
        batch = [b"a" * 10, b"", b"c" * 3]
        assert decode_envelope_batch(encode_envelope_batch(batch)) == batch

    def test_f64_wire_roundtrip(self):
        for value in (0.0, 1.5, -2.25, 4000.0, 1e-10):
            encoded = PING_REPLY.encode(value, 0, 0)
            assert encoded == Packer().f64(value).u64(0).u64(0).pack()
            assert PING_REPLY.decode(encoded) == (value, 0, 0)


class TestEventScheduler:
    def test_events_fire_in_time_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(2.0, lambda: fired.append("late"))
        sched.schedule(1.0, lambda: fired.append("early"))
        sched.run_until_idle()
        assert fired == ["early", "late"]
        assert sched.now == 2.0

    def test_ties_break_by_schedule_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda: fired.append(1))
        sched.schedule(1.0, lambda: fired.append(2))
        sched.run_until_idle()
        assert fired == [1, 2]

    def test_clock_moves_run_no_events(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda: fired.append("pending"))
        sched.advance(2.0)
        sched.rewind(0.5)
        sched.fast_forward(3.0)
        sched.seek(1.5)
        assert (fired, sched.now, sched.events_processed) == ([], 1.5, 0)
        for move, bad in ((sched.advance, -1.0), (sched.rewind, 2.0), (sched.fast_forward, 1.0)):
            with pytest.raises(ValueError):
                move(bad)
        sched.run_until_idle()  # an event due in the clock's past runs "now"
        assert (fired, sched.now, sched.events_processed) == (["pending"], 1.5, 1)


class TestLinkModels:
    def test_bandwidth_term(self):
        link = LinkSpec(latency_s=0.1, bandwidth_bps=8_000)  # 1000 bytes/s
        rng = DeterministicRng("links")
        assert link.transfer_delay(1000, rng) == pytest.approx(0.1 + 1.0)

    def test_jitter_bounded(self):
        link = LinkSpec(latency_s=0.1, jitter_s=0.05)
        rng = DeterministicRng("jitter")
        for _ in range(50):
            delay = link.transfer_delay(100, rng)
            assert 0.1 <= delay < 0.15

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(latency_s=-1.0)
        with pytest.raises(ValueError):
            LinkSpec(drop_rate=1.0)

    def test_topology_resolution_order(self):
        topo = NetworkTopology(default=LinkSpec(latency_s=1.0))
        topo.set_endpoint("slow", LinkSpec(latency_s=5.0))
        topo.set_link("a", "slow", LinkSpec(latency_s=9.0))
        assert topo.link("a", "b").latency_s == 1.0          # default
        assert topo.link("b", "slow").latency_s == 5.0       # endpoint
        assert topo.link("slow", "a").latency_s == 9.0       # pair beats endpoint

    def test_competing_endpoint_overrides_compose_worst_of_each(self):
        topo = NetworkTopology()
        topo.set_endpoint("a", LinkSpec(latency_s=0.1, drop_rate=0.5))
        topo.set_endpoint("b", LinkSpec(latency_s=0.001, bandwidth_bps=1e6, drop_rate=0.5))
        combined = topo.link("a", "b")
        assert combined.latency_s == 0.1            # a's worse latency
        assert combined.bandwidth_bps == 1e6        # b's bottleneck
        assert combined.drop_rate == pytest.approx(0.75)  # losses compound

    def test_region_links(self):
        topo = NetworkTopology(default=LinkSpec(latency_s=1.0))
        topo.assign_region("alice", "eu")
        topo.assign_region("entry", "us")
        topo.set_region_link("eu", "us", LinkSpec(latency_s=0.08))
        assert topo.link("alice", "entry").latency_s == 0.08
        assert topo.link("alice", "unassigned").latency_s == 1.0

    def test_partition_and_heal(self):
        topo = NetworkTopology()
        topo.partition("a", "b")
        assert topo.is_partitioned("b", "a")
        topo.heal("a", "b")
        assert not topo.is_partitioned("a", "b")
        topo.partition_endpoint("pkg1")
        assert topo.is_partitioned("anyone", "pkg1")
        topo.heal_endpoint("pkg1")
        assert not topo.is_partitioned("anyone", "pkg1")


class TestDirectTransport:
    def test_call_dispatches_and_counts_bytes(self):
        transport = DirectTransport()
        seen = []

        def handler(request):
            seen.append((request.src, request.method, request.payload))
            return b"pong"

        transport.register("server", handler)
        result = transport.call("client", "server", "ping", b"abc")
        assert result.payload == b"pong"
        assert result.latency_s == 0.0
        assert seen == [("client", "ping", b"abc")]
        assert transport.stats.messages_sent == 2
        assert transport.stats.bytes_sent > 0

    def test_unknown_endpoint_raises(self):
        transport = DirectTransport()
        with pytest.raises(NetworkError):
            transport.call("client", "ghost", "ping")

    def test_duplicate_registration_rejected(self):
        transport = DirectTransport()
        transport.register("server", lambda request: None)
        with pytest.raises(NetworkError):
            transport.register("server", lambda request: None)

    def test_clock_only_moves_on_advance(self):
        transport = DirectTransport()
        transport.register("server", lambda request: None)
        transport.call("client", "server", "ping")
        assert transport.now() == 0.0
        transport.advance(60.0)
        assert transport.now() == 60.0

    def test_phase_is_transparent(self):
        transport = DirectTransport()
        with transport.phase() as phase:
            assert phase.run(lambda: 41) == 41


class TestSimulatedNetwork:
    def make_net(self, **link_kwargs) -> SimulatedNetwork:
        topo = NetworkTopology(default=LinkSpec(**link_kwargs))
        net = SimulatedNetwork(topology=topo, seed="test-net")
        net.register("server", lambda request: RpcResult(payload=b"ok"))
        return net

    def test_call_pays_round_trip_latency(self):
        net = self.make_net(latency_s=0.25)
        result = net.call("client", "server", "ping", b"hello")
        assert result.payload == b"ok"
        assert result.latency_s == pytest.approx(0.5)
        assert net.now() == pytest.approx(0.5)

    def test_bandwidth_scales_with_message_size(self):
        net = self.make_net(latency_s=0.0, bandwidth_bps=8_000)
        small = net.call("client", "server", "ping", b"x" * 10).latency_s
        large = net.call("client", "server", "ping", b"x" * 1000).latency_s
        assert large > small

    def test_phase_takes_slowest_participant(self):
        net = self.make_net(latency_s=0.1)
        with net.phase() as phase:
            phase.run(lambda: net.call("a", "server", "ping"))
            phase.run(lambda: net.call("b", "server", "ping"))
            phase.run(lambda: [net.call("c", "server", "ping") for _ in range(3)])
        # Three sequential calls from "c" dominate: 3 x 0.2s, not 5 x 0.2s.
        assert net.now() == pytest.approx(0.6)

    def test_partition_raises(self):
        net = self.make_net(latency_s=0.1)
        net.topology.partition_endpoint("server")
        with pytest.raises(PartitionError):
            net.call("client", "server", "ping")
        net.topology.heal_endpoint("server")
        assert net.call("client", "server", "ping").payload == b"ok"

    def test_drops_cost_retry_timeouts(self):
        net = self.make_net(latency_s=0.1, drop_rate=0.2)
        latencies = [net.call("client", "server", "ping").latency_s for _ in range(30)]
        assert any(lat > 1.0 for lat in latencies)  # at least one retry happened
        assert net.stats.messages_dropped > 0

    def test_fully_lossy_link_raises_network_error(self):
        net = self.make_net(latency_s=0.1, drop_rate=0.99)
        with pytest.raises(NetworkError):
            for _ in range(200):
                net.call("client", "server", "ping")

    def test_exhausted_retries_still_cost_simulated_time(self):
        net = self.make_net(latency_s=0.1, drop_rate=0.999)
        before = net.now()
        with pytest.raises(NetworkError) as excinfo:
            net.call("client", "server", "ping")
        # The caller sat through every retransmission timeout before giving up.
        assert net.now() - before >= net.max_attempts * net.retry_timeout_s
        assert excinfo.value.request_delivered is False

    def test_nested_calls_accumulate_on_the_critical_path(self):
        topo = NetworkTopology(default=LinkSpec(latency_s=0.1))
        net = SimulatedNetwork(topology=topo, seed="nested")
        net.register("backend", lambda request: b"data")
        net.register(
            "frontend",
            lambda request: net.call("frontend", "backend", "fetch").payload,
        )
        result = net.call("client", "frontend", "get")
        assert result.payload == b"data"
        assert result.latency_s == pytest.approx(0.4)  # two nested round trips

    def test_a_handler_can_start_a_wave_inside_a_wave(self):
        """Waves are re-entrant: no per-wave state outlives or leaks between them."""
        net = SimulatedNetwork(topology=NetworkTopology(default=LinkSpec(latency_s=0.1)), seed="w")
        net.register("backend", lambda request: b"data")
        handled_at, nested_end = {}, {}

        def frontend(request):
            handled_at[request.src] = net.now()
            inner = net.call_batch(
                [
                    BatchCall("frontend", "backend", "fetch", start=request.time + 0.01 * k)
                    for k in range(3)
                ]
            )
            nested_end[request.src] = net.now()
            return b"".join(outcome.result.payload for outcome in inner)

        net.register("frontend", frontend)
        starts = {f"c{i}": 0.02 * i for i in range(5)}
        outer = net.call_batch(
            [BatchCall(src, "frontend", "get", start=start) for src, start in starts.items()]
        )
        for (src, start), outcome in zip(starts.items(), outer):
            assert outcome.result.payload == b"data" * 3
            # The outer wave's seek to this call's arrival was not disturbed
            # by the nested waves of the calls dispatched before it ...
            assert handled_at[src] == pytest.approx(start + 0.1)
            assert nested_end[src] == pytest.approx(start + 0.1 + 0.02 + 0.2)
            # ... and its reply left when its own nested wave ended.
            assert outcome.finished_at >= nested_end[src]
            assert outcome.finished_at == pytest.approx(nested_end[src] + 0.1)
        assert net.now() == max(outcome.finished_at for outcome in outer)
        assert net.frames_in_flight_peak == 5
        assert net.scheduler.events_processed == 0


class TestCallBatchEqualsPhaseOfCalls:
    """``call_batch`` is a phase of single calls, delivered another way.

    The wave is the network's only delivery path (a ``call`` is a wave of
    one), so the per-frame path it replaced -- one scheduler event per frame
    hop, ``tests/per_frame_network.py`` -- is kept as the reference it must
    agree with exactly: same payloads, errors and retry-safety tags, same
    per-call finish times, same traffic accounting, same final clock.
    """

    SENDERS = [f"c{i}@x.org" for i in range(40)]
    CUT = "c7@x.org"        # partitioned from the server
    REJECTED = "c11@x.org"  # the handler refuses this one (error reply path)

    def make_net(self, network=SimulatedNetwork) -> SimulatedNetwork:
        link = LinkSpec.of(latency_ms=30, bandwidth_mbps=10, jitter_ms=20, drop_rate=0.2)
        # Two attempts at 20 % drop: ~4 % of messages are lost for good, so
        # the run has lost requests and lost acknowledgements, not just retries.
        net = network(topology=NetworkTopology(default=link), seed="wave", max_attempts=2)
        net.topology.partition(self.CUT, "server")
        net.set_access_link("server", ingress_mbps=0.5, egress_mbps=0.5)

        def handler(request):
            if request.src == self.REJECTED or request.payload.startswith(b"!"):
                raise ProtocolError("refused")
            return RpcResult(payload=request.payload[::-1] * 3)

        net.register("server", handler)
        return net

    def calls(self, t0: float, offsets: bool) -> list[BatchCall]:
        return [
            BatchCall(
                src=sender,
                dst="server",
                method="put",
                payload=sender.encode() * (1 + i % 5),
                start=t0 + 0.013 * (i % 7) if offsets else None,
            )
            for i, sender in enumerate(self.SENDERS)
        ]

    @staticmethod
    def observed(net: SimulatedNetwork, outcomes: list[tuple]) -> dict:
        stats = net.stats
        return {
            "outcomes": [
                (
                    result.payload if result is not None else None,
                    (type(error).__name__, str(error), getattr(error, "request_delivered", None))
                    if error is not None
                    else None,
                    finished_at,
                )
                for result, error, finished_at in outcomes
            ],
            "clock": net.now(),
            "messages_sent": stats.messages_sent,
            "bytes_sent": stats.bytes_sent,
            "messages_dropped": stats.messages_dropped,
            "bytes_by_endpoint": dict(stats.bytes_by_endpoint),
            "calls_by_method": dict(stats.calls_by_method),
            "bytes_by_method": dict(stats.bytes_by_method),
        }

    @pytest.mark.parametrize("offsets", [False, True], ids=["same-start", "start-offsets"])
    def test_wave_equals_the_same_calls_one_by_one(self, offsets):
        one_by_one = self.make_net(PerFrameNetwork)
        one_by_one.advance(5.0)
        singles = []

        def single(call: BatchCall) -> None:
            if call.start is not None:
                one_by_one.advance(call.start - one_by_one.now())
            try:
                result = one_by_one.call(call.src, call.dst, call.method, call.payload)
                singles.append((result, None, one_by_one.now()))
            except Exception as exc:  # noqa: BLE001 - compared against the wave's outcome
                singles.append((None, exc, one_by_one.now()))

        with one_by_one.phase() as phase:
            for call in self.calls(one_by_one.now(), offsets):
                phase.run(lambda c=call: single(c))

        wave = self.make_net()
        wave.advance(5.0)
        outcomes = wave.call_batch(self.calls(wave.now(), offsets))

        expected = self.observed(one_by_one, singles)
        assert self.observed(
            wave, [(o.result, o.error, o.finished_at) for o in outcomes]
        ) == expected
        # The topology really exercised every outcome class being compared.
        errors = [error for _, error, _ in expected["outcomes"] if error is not None]
        assert ("PartitionError", f"link {self.CUT} <-> server is partitioned", False) in errors
        assert ("ProtocolError", "refused", None) in errors
        assert {tag for name, _, tag in errors if name == "NetworkError"} == {True, False}
        assert expected["messages_dropped"] > 0
        assert sum(error is None for _, error, _ in expected["outcomes"]) > 20

    def test_a_call_equals_the_same_call_frame_by_frame(self):
        """The single-call inputs of the same table: every sender calls eight
        times in turn -- plain, refused (``!``), and under a deadline that
        some exchanges outlive."""

        def run(net: SimulatedNetwork) -> list[tuple]:
            net.advance(5.0)
            seen = []
            for k in range(8):
                for sender in self.SENDERS:
                    payload = (b"!" if k in (4, 6) else b"") + sender.encode() * (1 + k)
                    try:
                        result = net.call(
                            sender, "server", "put", payload, timeout_s=0.12 if k % 2 else None
                        )
                        seen.append((result, None, net.now()))
                    except Exception as exc:  # noqa: BLE001 - compared against the oracle's
                        seen.append((None, exc, net.now()))
            return seen

        frame_by_frame, wave = self.make_net(PerFrameNetwork), self.make_net()
        expected, got = run(frame_by_frame), run(wave)
        assert self.observed(wave, got) == self.observed(frame_by_frame, expected)
        assert [r and r.latency_s for r, _, _ in got] == [r and r.latency_s for r, _, _ in expected]

        def failures(seen: list[tuple]) -> list[tuple]:
            return [
                (type(e).__name__, e.request_delivered, type(e.__cause__).__name__)
                for _, e, _ in seen
                if isinstance(e, NetworkError)
            ]

        kinds = failures(got)
        assert kinds == failures(expected)
        # Every failure class of a single call occurred: (error, tag, cause).
        assert {
            ("NetworkError", False, "NoneType"),  # lost request
            ("NetworkError", True, "NoneType"),  # lost acknowledgement
            ("NetworkError", False, "ProtocolError"),  # refused, error reply lost: untagged
            ("PartitionError", False, "NoneType"),
            ("TransportTimeoutError", True, "NoneType"),  # deadline expired, handler ran
            ("TransportTimeoutError", False, "NetworkError"),  # ... on a lost request
            ("TransportTimeoutError", True, "NetworkError"),  # ... on a lost acknowledgement
        } <= set(kinds)
        assert sum(result is not None for result, _, _ in got) > 100
        assert wave.scheduler.events_processed == 0 < frame_by_frame.scheduler.events_processed


class TestDeploymentOverSimulatedNetwork:
    def make_deployment(
        self, latency_ms: float, seed: str = "sim-deploy", entry_shards: int = 1
    ) -> Deployment:
        topo = NetworkTopology(default=LinkSpec.of(latency_ms=latency_ms, bandwidth_mbps=100))
        net = SimulatedNetwork(topology=topo, seed=f"{seed}/net")
        config = replace(AlpenhornConfig.for_tests(backend="simulated"), entry_shards=entry_shards)
        return Deployment(config, seed=seed, transport=net)

    def test_round_reports_nonzero_latency_and_bytes(self):
        deployment = self.make_deployment(latency_ms=30)
        deployment.create_client("alice@example.org")
        deployment.create_client("bob@example.org")
        deployment.client("alice@example.org").add_friend("bob@example.org")
        summary = deployment.run_addfriend_round()
        assert summary.latency_s > 0.0
        assert summary.bytes_sent > 0
        assert summary.failures == 0
        assert summary.submissions == 2

    def test_link_latency_drives_round_latency(self):
        latencies = {}
        for latency_ms in (20, 100):
            deployment = self.make_deployment(latency_ms=latency_ms)
            deployment.create_client("alice@example.org")
            deployment.create_client("bob@example.org")
            deployment.client("alice@example.org").add_friend("bob@example.org")
            latencies[latency_ms] = deployment.run_addfriend_round().latency_s
        assert latencies[100] > latencies[20] * 2

    def test_full_flow_matches_direct_transport_semantics(self):
        deployment = self.make_deployment(latency_ms=10)
        alice = deployment.create_client("alice@example.org")
        bob = deployment.create_client("bob@example.org")
        session = deployment.session("alice@example.org")
        session.add_friend("bob@example.org")
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()
        assert alice.friends() == ["bob@example.org"]
        call = session.call("bob@example.org")
        deployment.run_dialing_round()  # cover: the wheel anchors at round 2
        deployment.run_dialing_round()
        assert call.placed is not None
        assert bob.received_calls()[-1].session_key == call.session_key

    def test_partitioned_pkg_fails_participants_not_deployment(self):
        deployment = self.make_deployment(latency_ms=10, seed="partition")
        deployment.create_client("alice@example.org")
        deployment.create_client("bob@example.org")
        # Open round 1 normally, then cut one PKG before round 2's extractions.
        deployment.run_addfriend_round()
        deployment.transport.topology.partition_endpoint("pkg1")
        with pytest.raises(NetworkError):
            deployment.run_addfriend_round()
        deployment.transport.topology.heal_endpoint("pkg1")
        summary = deployment.run_addfriend_round()
        assert summary.failures == 0

    @pytest.mark.parametrize("entry_shards", [1, 3])
    def test_control_plane_failure_aborts_round_and_erases_secrets(self, entry_shards):
        """If the mix chain fails after submissions, the entry server tears
        the round down: no retained envelopes, no live round keys anywhere --
        one lifecycle, whichever front holds the envelopes."""
        deployment = self.make_deployment(latency_ms=10, seed="ctl-abort", entry_shards=entry_shards)
        alice = deployment.create_client("alice@example.org")
        deployment.create_client("bob@example.org")
        alice.add_friend("bob@example.org")

        # Announcement and submissions succeed; the mix chain's run, inside
        # the entry server's close_round, is what the network loses.
        def lost_control(*args, **kwargs):
            raise NetworkError("control plane down")

        deployment.mix_chain.run_round = lost_control
        with pytest.raises(NetworkError):
            deployment.run_addfriend_round()
        aborted = deployment.addfriend_round
        # The batch is dropped wherever it waited: the in-process front, or the shards.
        fronts = deployment.entry_shard_servers or [deployment.entry.front]
        assert all(front.submissions("add-friend", aborted) == 0 for front in fronts)
        assert all(not mix.has_round_key("add-friend", aborted) for mix in deployment.mix_servers)
        assert all(not pkg.has_master_secret(aborted) for pkg in deployment.pkgs)
        assert not alice.addfriend.has_round_keys(aborted)
        # The deployment recovers once the control path works again.
        del deployment.mix_chain.run_round
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()

    @pytest.mark.parametrize("entry_shards", [1, 3])
    def test_aborted_round_erases_partially_opened_keys(self, entry_shards):
        """If announce fails partway (a PKG is partitioned while the entry
        server opens the round), the servers that already opened the round
        must erase its secrets -- forward secrecy holds even for rounds that
        never ran."""
        deployment = self.make_deployment(latency_ms=10, seed="abort-fs", entry_shards=entry_shards)
        deployment.create_client("alice@example.org")
        deployment.transport.topology.partition_endpoint("pkg1")
        with pytest.raises(NetworkError):
            deployment.run_addfriend_round()
        aborted = deployment.addfriend_round
        assert all(not mix.has_round_key("add-friend", aborted) for mix in deployment.mix_servers)
        assert not deployment.pkgs[0].has_master_secret(aborted)

    @pytest.mark.parametrize("entry_shards", [1, 3])
    def test_round_secrets_are_gone_when_close_round_returns(self, entry_shards):
        """The entry server erases the mix keys and the PKG master secrets
        together, inside close_round: none is left for the scan stage."""
        deployment = self.make_deployment(latency_ms=10, seed="close-erases", entry_shards=entry_shards)
        deployment.create_clients(["alice@example.org", "bob@example.org"])
        deployment.session("alice@example.org").add_friend("bob@example.org")
        close_round = deployment.entry.close_round
        live: list[bool] = []

        def checked_close(protocol, round_number):
            counts = close_round(protocol, round_number)
            live.extend(pkg.has_master_secret(round_number) for pkg in deployment.pkgs)
            live.extend(mix.has_round_key(protocol, round_number) for mix in deployment.mix_servers)
            return counts

        deployment.entry.close_round = checked_close
        summary = deployment.run_addfriend_round()
        assert summary.failures == 0
        assert live == [False] * (len(deployment.pkgs) + len(deployment.mix_servers))

    @pytest.mark.parametrize("entry_shards", [1, 3])
    @pytest.mark.parametrize("path", ["completed", "announce", "mix", "publish"])
    def test_each_server_is_closed_once(self, path, entry_shards):
        """Each mix and each reachable PKG gets exactly one close_round for an
        add-friend round, on every path: completed, a failed announce (pkg1
        partitioned), a failed mix chain, a failed publish."""
        closes: dict[str, int] = {}

        class Counting(SimulatedNetwork):
            def register(self, name, handler):
                def counting(request):
                    if request.method == "close_round":
                        closes[request.dst] = closes.get(request.dst, 0) + 1
                    return handler(request)

                super().register(name, counting)

        topo = NetworkTopology(default=LinkSpec.of(latency_ms=10, bandwidth_mbps=100))
        config = replace(AlpenhornConfig.for_tests(backend="simulated"), entry_shards=entry_shards)
        deployment = Deployment(config, seed="close-once", transport=Counting(topo, seed="close-once/net"))
        deployment.create_clients(["alice@example.org", "bob@example.org"])
        deployment.session("alice@example.org").add_friend("bob@example.org")

        def lost(*args, **kwargs):
            raise NetworkError("lost")

        if path == "announce":
            deployment.transport.topology.partition_endpoint("pkg1")
        elif path == "mix":
            deployment.mix_chain.run_round = lost
        elif path == "publish":
            deployment.cdn_stub.publish = lost
        if path == "completed":
            assert deployment.run_addfriend_round().failures == 0
        else:
            with pytest.raises(NetworkError):
                deployment.run_addfriend_round()
        servers = [server.name for server in deployment.mix_servers + deployment.pkgs]
        expected = {name: 1 for name in servers}
        if path == "announce":
            expected["pkg1"] = 0  # unreachable: it never opened the round
        assert {name: closes.get(name, 0) for name in servers} == expected

    @pytest.mark.parametrize("entry_shards", [1, 3])
    def test_one_control_plane_leaves_from_the_coordinator(self, entry_shards):
        """The round driver calls the entry server in its own process at every
        shard count: no announce or count RPC crosses the wire, and every
        round-control frame to a mix, a PKG or the CDN leaves from
        ``coordinator``."""
        seen: list[tuple[str, str]] = []

        class Recording(SimulatedNetwork):
            def register(self, name, handler):
                def recording(request):
                    seen.append((request.src, request.method))
                    return handler(request)

                super().register(name, recording)

        topo = NetworkTopology(default=LinkSpec.of(latency_ms=10, bandwidth_mbps=100))
        config = replace(AlpenhornConfig.for_tests(backend="simulated"), entry_shards=entry_shards)
        network = Recording(topo, seed="control/net")
        deployment = Deployment(config, seed="control", transport=network)
        deployment.create_clients(["alice@example.org", "bob@example.org"])
        deployment.session("alice@example.org").add_friend("bob@example.org")
        deployment.run_addfriend_round()
        deployment.run_dialing_round()
        calls = network.stats.calls_by_method
        assert "announce_round" not in calls and "submissions" not in calls
        control = {"open_round", "process_batch", "publish"}
        sources = {(src, method) for src, method in seen if method in control}
        assert {method for _src, method in sources} == control
        assert {src for src, _method in sources} == {"coordinator"}

    def test_a_failed_open_broadcast_still_reaches_and_aborts_every_shard(self):
        """A fan-out is a wave: one unreachable shard fails the round, not the
        contact with the others.  Every other shard saw ``open_round`` then
        ``abort_round`` and holds nothing, and no round secret survives.
        (At the parent the erasure half held too; what failed is "shards
        after the failed one were contacted": its fan-out stopped at the
        first failing call, so entry1 and entry2 only ever saw the abort.)
        """
        seen: list[tuple[str, str]] = []

        class Recording(SimulatedNetwork):
            def register(self, name, handler):
                def recording(request):
                    seen.append((name, request.method))
                    return handler(request)

                super().register(name, recording)

        topo = NetworkTopology(default=LinkSpec.of(latency_ms=10, bandwidth_mbps=100))
        config = replace(AlpenhornConfig.for_tests(backend="simulated"), entry_shards=3)
        deployment = Deployment(config, seed="fanout", transport=Recording(topo, seed="fanout/net"))
        deployment.create_client("alice@example.org")
        topo.partition("coordinator", "entry0")
        del seen[:]
        with pytest.raises(PartitionError):
            deployment.entry.announce_round("add-friend", 1, 4, 64)
        for shard in deployment.entry_shard_servers[1:]:
            assert [m for name, m in seen if name == shard.name] == ["open_round", "abort_round"]
            assert shard.submissions("add-friend", 1) == 0 and not shard._open_rounds
        assert [m for name, m in seen if name == "entry0"] == []
        assert {name for name, m in seen if m == "abort_round"} == {
            "entry1", "entry2", "ingress0", "ingress1", "ingress2"
        }
        assert deployment.entry.directory_or_none("add-friend", 1) is None
        assert all(not mix.has_round_key("add-friend", 1) for mix in deployment.mix_servers)
        assert all(not pkg.has_master_secret(1) for pkg in deployment.pkgs)

    def test_chain_does_not_refetch_round_keys_per_hop(self):
        deployment = self.make_deployment(latency_ms=10, seed="keycache")
        deployment.create_client("alice@example.org")
        deployment.run_addfriend_round()
        # Downstream onion keys come from open_round; the pipeline must not
        # issue per-hop round_public_key RPCs (O(servers^2) otherwise).
        assert deployment.transport.stats.calls_by_method.get("round_public_key", 0) == 0

    def test_failed_submission_requeues_the_friend_request(self):
        deployment = self.make_deployment(latency_ms=10, seed="requeue")
        alice = deployment.create_client("alice@example.org")
        bob = deployment.create_client("bob@example.org")
        alice.add_friend("bob@example.org")
        # Alice can reach the PKGs but not the entry server this round.
        deployment.transport.topology.partition("alice@example.org", "entry")
        summary = deployment.run_addfriend_round()
        assert summary.failures == 1
        assert alice.addfriend.pending_in_queue() == 1  # request survived
        deployment.transport.topology.heal("alice@example.org", "entry")
        deployment.run_addfriend_round()  # request goes out
        deployment.run_addfriend_round()  # confirmation comes back
        assert alice.friends() == ["bob@example.org"]
        assert bob.friends() == ["alice@example.org"]

    def test_failed_dial_submission_withdraws_placed_call(self):
        deployment = self.make_deployment(latency_ms=10, seed="requeue-dial")
        alice = deployment.create_client("alice@example.org")
        bob = deployment.create_client("bob@example.org")
        deployment.session("alice@example.org").add_friend("bob@example.org")
        deployment.run_addfriend_round()
        deployment.run_addfriend_round()
        alice.call("bob@example.org")
        deployment.transport.topology.partition("alice@example.org", "entry")
        # Dial rounds until the wheel is live and the failed send happens.
        for _ in range(3):
            deployment.run_dialing_round()
        assert alice.placed_calls() == []              # withdrawn, not phantom
        assert alice.dialing.pending_in_queue() == 1   # call still queued
        deployment.transport.topology.heal("alice@example.org", "entry")
        deployment.run_dialing_round()
        assert alice.placed_calls()
        assert bob.received_calls()[-1].session_key == alice.placed_calls()[-1].session_key

    def test_offline_participants_skip_round(self):
        deployment = self.make_deployment(latency_ms=10, seed="offline")
        deployment.create_client("alice@example.org")
        deployment.create_client("bob@example.org")
        deployment.create_client("carol@example.org")
        summary = deployment.run_addfriend_round(participants=["alice@example.org", "bob@example.org"])
        assert summary.participants == 2
        assert summary.submissions == 2
