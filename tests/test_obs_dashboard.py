"""Dashboard tests: state/control endpoints, the round gate, live SSE."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.obs.dashboard import DashboardMonitor, DashboardServer


def _get_json(url: str, timeout: float = 5.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


class TestGate:
    def test_run_mode_does_not_block(self):
        server = DashboardServer()
        start = time.monotonic()
        server.gate()
        assert time.monotonic() - start < 0.2

    def test_pause_blocks_until_released(self):
        server = DashboardServer()
        server.request("pause")
        released = threading.Event()

        def waiter():
            server.gate()
            released.set()

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        assert not released.wait(0.3)
        server.request("run")
        assert released.wait(3.0)
        thread.join(timeout=3.0)

    def test_step_releases_exactly_one_round(self):
        server = DashboardServer()
        server.request("pause")
        server.request("step")
        assert server.state()["pending_steps"] == 1
        server.gate()  # consumes the single credit without blocking
        assert server.state()["pending_steps"] == 0
        assert server.state()["mode"] == "pause"

    def test_stop_releases_a_paused_gate(self):
        server = DashboardServer()
        server.request("pause")
        released = threading.Event()
        thread = threading.Thread(target=lambda: (server.gate(), released.set()), daemon=True)
        thread.start()
        assert not released.wait(0.3)
        with server._gate:
            server._closed = True
            server._gate.notify_all()
        assert released.wait(3.0)
        thread.join(timeout=3.0)

    def test_unknown_action_raises(self):
        with pytest.raises(ValueError):
            DashboardServer().request("warp")


class TestPublish:
    def test_publish_updates_state_and_history(self):
        server = DashboardServer()
        server.publish("scenario_started", name="baseline", clients=10)
        server.publish("round", protocol="add-friend", round=1, latency_s=0.3)
        state = server.state()
        assert state["status"] == "running"
        assert state["scenario"]["clients"] == 10
        assert len(state["rounds"]) == 1

    def test_subscribers_get_replay_then_live_events(self):
        server = DashboardServer()
        server.publish("scenario_started", name="x")
        replay, live = server.subscribe()
        assert [e["type"] for e in replay] == ["scenario_started"]
        server.publish("round", round=1)
        assert live.get(timeout=1.0)["type"] == "round"
        server.unsubscribe(live)

    def test_state_rounds_are_capped(self):
        from repro.obs.dashboard import MAX_STATE_ROUNDS

        server = DashboardServer(history=8)
        for i in range(MAX_STATE_ROUNDS + 10):
            server.publish("round", round=i)
        assert len(server.state()["rounds"]) == MAX_STATE_ROUNDS
        assert len(server._history) == 8


class TestHttpEndpoints:
    @pytest.fixture
    def server(self):
        server = DashboardServer()
        server.start()
        yield server
        server.stop()

    def test_index_serves_the_single_file_ui(self, server):
        with urllib.request.urlopen(server.url, timeout=5.0) as response:
            body = response.read().decode("utf-8")
        assert "EventSource('/events')" in body
        assert "control('step')" in body

    def test_state_endpoint(self, server):
        state = _get_json(server.url + "state")
        assert state["status"] == "idle"
        assert state["mode"] == "run"

    def test_control_endpoint_drives_the_gate(self, server):
        assert _get_json(server.url + "control?action=pause")["mode"] == "pause"
        assert _get_json(server.url + "control?action=step")["mode"] == "pause"
        assert server.state()["pending_steps"] == 1
        assert _get_json(server.url + "control?action=run")["mode"] == "run"

    def test_control_rejects_unknown_actions(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_json(server.url + "control?action=warp")
        assert excinfo.value.code == 400

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_json(server.url + "nope")
        assert excinfo.value.code == 404


class TestLiveScenarioScrape:
    """The acceptance-criteria integration test: scrape SSE mid-run."""

    def test_sse_streams_round_stats_during_a_run(self):
        from repro.sim.scenarios import make_scenario

        server = DashboardServer()
        server.start()
        scenario = make_scenario(
            "baseline",
            num_clients=16,
            addfriend_rounds=2,
            dialing_rounds=1,
            friend_pairs=4,
        )
        scenario.monitors.append(DashboardMonitor(server))
        results: list = []
        thread = threading.Thread(target=lambda: results.append(scenario.run()), daemon=True)
        thread.start()
        seen: dict[str, list] = {}
        try:
            request = urllib.request.Request(server.url + "events")
            with urllib.request.urlopen(request, timeout=15.0) as stream:
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    line = stream.readline().decode("utf-8").strip()
                    if not line.startswith("data: "):
                        continue
                    event = json.loads(line[len("data: ") :])
                    seen.setdefault(event["type"], []).append(event["data"])
                    if "scenario_finished" in seen:
                        break
        finally:
            thread.join(timeout=120.0)
            server.stop()

        assert not thread.is_alive()
        assert results, "scenario did not finish"
        assert seen["scenario_started"][0]["clients"] == 16
        rounds = seen["round"]
        assert len(rounds) == 3
        first = rounds[0]
        assert {"protocol", "latency_s", "submit_stage_s", "mix_stage_s", "scan_stage_s"} <= set(
            first
        )
        assert seen["scenario_finished"][0]["rounds"] == 3
        # The registry taps fed EventBus activity counts over the wire.
        assert "events" in seen and seen["events"][-1]
        # A mid-run /state scrape (after the fact here, but same code path)
        # reflects the finished scenario.
        state = server.state()
        assert state["status"] == "finished"
        assert len(state["rounds"]) == 3

    def test_slotted_delivery_keeps_the_event_stream_coherent(self):
        """The monitors see one event per round under wave (slotted) delivery.

        The before_round/on_round hooks fire at stage boundaries, not per
        frame, so the published stream -- pipelined rounds included -- has
        one round event per round with monotonic clocks, and the largest
        delivery wave is reported.
        """
        from repro.sim.scenarios import make_scenario

        server = DashboardServer()
        scenario = make_scenario(
            "pipelined_rounds",
            num_clients=12,
            friend_pairs=3,
            addfriend_rounds=2,
            dialing_rounds=2,
        )
        scenario.monitors.append(DashboardMonitor(server))
        scenario.run()
        slotted, live = server.subscribe()
        server.unsubscribe(live)
        clocks = [e["data"]["clock"] for e in slotted if e["type"] == "round"]
        assert clocks == sorted(clocks) and len(clocks) == 4
        net = [e["data"] for e in slotted if e["type"] == "net"]
        assert net and net[-1]["frames_in_flight_peak"] >= 12 * 3 // 4  # a whole-round wave

    def test_monitor_paused_holds_the_first_round_until_stepped(self):
        from repro.sim.scenarios import make_scenario

        server = DashboardServer()
        scenario = make_scenario(
            "baseline",
            num_clients=8,
            addfriend_rounds=1,
            dialing_rounds=0,
            friend_pairs=2,
        )
        scenario.monitors.append(DashboardMonitor(server, paused=True))
        results: list = []
        thread = threading.Thread(target=lambda: results.append(scenario.run()), daemon=True)
        thread.start()
        time.sleep(0.4)
        assert not results, "paused scenario must not have finished"
        server.request("run")
        thread.join(timeout=120.0)
        assert results and len(results[0].rounds) == 1
