"""The --runtime axis through the scenario harness: transport selection,
cross-runtime result parity, and deterministic teardown."""

from __future__ import annotations

import pytest

from repro.core.config import AlpenhornConfig
from repro.core.coordinator import Deployment
from repro.errors import ConfigurationError
from repro.net import DirectTransport, SimulatedNetwork
from repro.sim.scenarios import make_scenario, run_scenario

SMALL = dict(num_clients=8, addfriend_rounds=2, dialing_rounds=2, seed="runtime-parity")


class TestTransportSelection:
    def test_sim_is_the_default(self):
        scenario = make_scenario("baseline")
        assert scenario.spec.runtime == "sim"
        net = scenario.build_transport()
        assert isinstance(net, SimulatedNetwork)

    def test_unknown_runtime_rejected(self):
        scenario = make_scenario("baseline", runtime="carrier-pigeon")
        with pytest.raises(ConfigurationError, match="unknown runtime"):
            scenario.build_transport()

    def test_topology_sculpting_scenarios_require_sim(self):
        for name in ("straggler_mix", "pkg_failure", "geo_distributed"):
            scenario = make_scenario(name, runtime="asyncio")
            with pytest.raises(ConfigurationError, match="simulated topology"):
                scenario.build_transport()

    def test_result_records_the_runtime(self):
        result = run_scenario("baseline", **SMALL)
        report = result.to_dict()
        assert report["runtime"] == "sim"
        assert report["mp_workers"] == 0


class TestRuntimeParity:
    def test_asyncio_matches_sim(self):
        """Same seed, same protocol outcome: transport timing must never
        leak into round decisions."""
        sim = run_scenario("baseline", **SMALL)
        real = run_scenario("baseline", runtime="asyncio", **SMALL)
        assert real.friendships_confirmed == sim.friendships_confirmed
        assert real.calls_delivered == sim.calls_delivered
        assert real.calls_by_method == sim.calls_by_method
        assert real.total_messages_sent == sim.total_messages_sent

    def test_transport_totals_match_sim(self):
        """The record's transport totals are protocol facts (message and
        byte totals per method), not timing facts, so they must match
        byte-for-byte across runtimes."""
        sim = run_scenario("baseline", **SMALL)
        real = run_scenario("baseline", runtime="asyncio", **SMALL)
        assert sim.bytes_by_method  # the record actually carries transport totals
        assert real.bytes_by_method == sim.bytes_by_method
        assert real.calls_by_method == sim.calls_by_method
        assert real.total_bytes_sent == sim.total_bytes_sent

    @pytest.mark.slow
    def test_mp_matches_sim(self):
        sim = run_scenario("baseline", **SMALL)
        real = run_scenario("baseline", runtime="mp", **SMALL)
        assert real.friendships_confirmed == sim.friendships_confirmed
        assert real.calls_delivered == sim.calls_delivered
        assert real.to_dict()["mp_workers"] == real.spec.config.num_mix_servers


class TestTeardown:
    def make_deployment(self, transport=None):
        return Deployment(
            AlpenhornConfig.for_tests(backend="simulated"),
            seed="teardown",
            transport=transport or DirectTransport(),
        )

    def test_close_is_idempotent(self):
        deployment = self.make_deployment()
        deployment.close()
        deployment.close()

    def test_context_manager_closes(self):
        closed = []

        class Probe(DirectTransport):
            def close(self):
                closed.append(True)
                super().close()

        with self.make_deployment(Probe()) as deployment:
            assert deployment is not None
        assert closed == [True]

    def test_failed_build_does_not_leak_transport(self, monkeypatch):
        import repro.sim.scenario as scenario_module

        closed = []

        class Probe(DirectTransport):
            def close(self):
                closed.append(True)
                super().close()

        scenario = make_scenario("baseline", **SMALL)
        monkeypatch.setattr(scenario, "build_transport", lambda: Probe())
        monkeypatch.setattr(
            scenario_module,
            "Deployment",
            lambda *args, **kwargs: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with pytest.raises(RuntimeError, match="boom"):
            scenario.build()
        assert closed == [True]

    def test_crypto_backend_survives_deployment_close(self):
        # Backends are shared cached instances; closing one deployment must
        # not poison the next run that reuses the same backend.
        run_scenario("baseline", **SMALL)
        result = run_scenario("baseline", **SMALL)
        assert result.friendships_confirmed >= 0
