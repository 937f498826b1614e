"""The --runtime axis through the scenario harness: transport selection,
cross-runtime result parity, and deterministic teardown."""

from __future__ import annotations

import functools

import pytest

from repro.core.config import AlpenhornConfig
from repro.core.coordinator import Deployment
from repro.crypto.engine import backend_available
from repro.errors import ConfigurationError
from repro.net import DirectTransport, SimulatedNetwork
from repro.obs.record import outcome
from repro.sim.scenario import TOPOLOGY_FAULTS
from repro.sim.scenarios import SCENARIOS, make_scenario, run_scenario, scenario_names

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


#: The rows a real runtime accepts: none of their faults sculpts the
#: simulated topology (the check ``Scenario.build_transport`` makes).
REAL_RUNTIME_ROWS = [
    name for name in scenario_names()
    if not any(fault.kind in TOPOLOGY_FAULTS for fault in SCENARIOS[name].faults)
]
#: The parity cases tier-1 runs; every other one is ``slow``.
TIER1_ROWS = ("baseline", "sharded_entry", "client_churn")
PARITY = dict(SMALL, crypto_backend="accelerated" if backend_available("accelerated") else "pure")


@functools.cache
def sim_record(row: str, pipelined: bool) -> dict:
    return run_scenario(row, pipelined=pipelined, **PARITY).to_dict()


def parity_cases():
    for row in REAL_RUNTIME_ROWS:
        for pipelined in (False, True):
            for runtime in ("asyncio", "mp"):
                tier1 = runtime == "asyncio" and row in TIER1_ROWS
                yield pytest.param(
                    row, pipelined, runtime, marks=() if tier1 else pytest.mark.slow,
                    id=f"{row}-{'pipelined' if pipelined else 'sequential'}-{runtime}",
                )


class TestRuntimeParity:
    @pytest.mark.parametrize("row, pipelined, runtime", list(parity_cases()))
    def test_outcome_matches_sim(self, row, pipelined, runtime, parity_tool):
        """Same spec and seed, same outcome: a real transport changes when a
        round's work happens, never what it delivers."""
        result = run_scenario(row, runtime=runtime, pipelined=pipelined, **PARITY)
        record = result.to_dict()
        real, sim = outcome(record), outcome(sim_record(row, pipelined))
        assert real == sim, f"first differing outcome leaf: {parity_tool.differing(sim, real)[0]}"
        if runtime == "mp":
            assert record["mp_workers"] == result.spec.config.num_mix_servers


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
