"""The scenario harness: every named scenario at small scale.

Scenarios run at a few dozen clients here so the whole file stays fast;
the CI smoke and the acceptance run exercise the same code at 60-500
clients via ``python -m repro.sim``.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.net.links import LinkSpec
from repro.sim import SCENARIOS, ScenarioSpec, make_scenario, run_scenario, scenario_names
from repro.errors import ConfigurationError
from repro.sim.scenario import CONFIG_FIELDS, SPEC_FIELDS, Fault, Scenario, with_overrides


class TestHarnessBasics:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            run_scenario("no_such_scenario")

    def test_unknown_spec_override_rejected(self):
        with pytest.raises(TypeError):
            run_scenario("baseline", not_a_field=3)

    def test_registry_lists_all_scenarios(self):
        assert scenario_names() == sorted(SCENARIOS)
        assert {"baseline", "client_churn", "straggler_mix", "pkg_failure",
                "flash_crowd", "geo_distributed"} <= set(scenario_names())
        # a row is a spec, faults included, run by the one Scenario class
        assert all(isinstance(spec, ScenarioSpec) for spec in SCENARIOS.values())
        assert {type(make_scenario(name)) for name in scenario_names()} == {Scenario}

    def test_result_is_json_serializable(self):
        result = run_scenario("baseline", num_clients=8, addfriend_rounds=1,
                              dialing_rounds=1, friend_pairs=2)
        blob = json.dumps(result.to_dict())
        parsed = json.loads(blob)
        assert parsed["scenario"] == "baseline"
        assert len(parsed["rounds"]) == 2

    def test_deterministic_given_a_seed(self):
        a = run_scenario("baseline", num_clients=8, addfriend_rounds=1,
                         dialing_rounds=1, friend_pairs=2, seed="det")
        b = run_scenario("baseline", num_clients=8, addfriend_rounds=1,
                         dialing_rounds=1, friend_pairs=2, seed="det")
        assert [r.latency_s for r in a.rounds] == [r.latency_s for r in b.rounds]
        assert a.total_bytes_sent == b.total_bytes_sent


class TestBaseline:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario("baseline", num_clients=12, addfriend_rounds=2,
                            dialing_rounds=3, friend_pairs=4, seed="t-base")

    def test_rounds_recorded(self, result):
        assert len(result.rounds_for("add-friend")) == 2
        assert len(result.rounds_for("dialing")) == 3

    def test_nonzero_simulated_latencies(self, result):
        assert all(lat > 0.0 for lat in result.round_latencies())

    def test_friendships_and_calls_complete(self, result):
        assert result.friendships_confirmed == 4
        assert result.calls_delivered == 4

    def test_everyone_participates_every_round(self, result):
        assert all(r.submissions == r.participants for r in result.rounds)

    def test_traffic_accounted(self, result):
        assert result.total_bytes_sent > 0
        assert sum(r.bytes_sent for r in result.rounds) <= result.total_bytes_sent

    def test_link_latency_changes_round_latency(self, result):
        slow = run_scenario(
            "baseline", num_clients=12, addfriend_rounds=2, dialing_rounds=3,
            friend_pairs=4, seed="t-base",
            client_link=LinkSpec.of(latency_ms=400, bandwidth_mbps=50, jitter_ms=10),
        )
        fast_af = result.round_latencies("add-friend")
        slow_af = slow.round_latencies("add-friend")
        assert all(s > f * 2 for f, s in zip(fast_af, slow_af))


class TestFaultScenarios:
    def test_client_churn_varies_participation(self):
        result = run_scenario("client_churn", num_clients=12, addfriend_rounds=3,
                              dialing_rounds=2, friend_pairs=4, seed="t-churn")
        online = [r.participants for r in result.rounds]
        assert any(o < 12 for o in online)          # someone was offline
        assert max(online) > min(online)            # participation varied
        # Late joiners registered mid-run.
        assert any(r.participants > 12 for r in result.rounds_for("add-friend")) or \
            result.rounds_for("dialing")[0].participants >= 12

    def test_straggler_mix_inflates_latency(self):
        base = run_scenario("baseline", num_clients=10, addfriend_rounds=1,
                            dialing_rounds=1, friend_pairs=2, seed="t-strag")
        slow = run_scenario("straggler_mix", num_clients=10, addfriend_rounds=1,
                            dialing_rounds=1, friend_pairs=2, seed="t-strag")
        assert slow.round_latencies("add-friend")[0] > base.round_latencies("add-friend")[0] * 2

    def test_straggler_link_resolution(self):
        scenario = make_scenario("straggler_mix", num_clients=4)
        deployment, net = scenario.build()
        scenario.configure(deployment, net)
        (fault,) = SCENARIOS["straggler_mix"].faults
        (straggler,) = fault.names
        resolved = net.topology.link("entry", straggler)
        assert resolved.latency_s == fault.link.latency_s

    def test_pkg_failure_aborts_one_round_and_recovers(self):
        result = run_scenario("pkg_failure", num_clients=10, dialing_rounds=2,
                              friend_pairs=3, seed="t-pkgfail")
        addfriend = result.rounds_for("add-friend")
        aborted = [r for r in addfriend if r.aborted]
        assert len(aborted) == 1
        assert aborted[0].failures == aborted[0].participants
        # Rounds after the heal complete, and queued friendships still form.
        after = [r for r in addfriend if r.round_number > aborted[0].round_number]
        assert after and all(not r.aborted and r.failures == 0 for r in after)
        assert result.friendships_confirmed == 3

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_aborted_row_is_measured_on_both_drivers(self, pipelined):
        """One drive path: the aborted round's row is the engine's
        ``aborted_summary`` -- the abort's own latency and bytes -- whether or
        not rounds overlap."""
        scenario = make_scenario("pkg_failure", num_clients=16, seed="cmp-24", pipelined=pipelined)
        addfriend = scenario.run().rounds_for("add-friend")
        (aborted,) = [r for r in addfriend if r.aborted]
        assert aborted.round_number == 2
        assert aborted.latency_s > 0 and aborted.submit_stage_s > 0 and aborted.bytes_sent > 0
        assert (aborted.submissions, aborted.delivered_real, aborted.mailbox_count) == (0, 0, 1)
        assert aborted.failures == aborted.participants == 16

    def test_flash_crowd_spikes_real_traffic(self):
        result = run_scenario("flash_crowd", num_clients=14, dialing_rounds=1,
                              friend_pairs=2, seed="t-flash")
        addfriend = result.rounds_for("add-friend")
        flash_round = addfriend[1]  # the scenario floods round index 1
        assert flash_round.delivered_real > addfriend[0].delivered_real
        assert result.friendships_confirmed > 2

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_flash_crowd_burst_is_in_the_request_totals(self, pipelined):
        """The burst is queued through sessions, so every burst request has a
        handle: the totals match what the sessions submitted and confirmed."""
        result = run_scenario("flash_crowd", num_clients=14, dialing_rounds=1,
                              friend_pairs=2, seed="t-flash", pipelined=pipelined)
        requests, events = result.friend_requests, result.sessions["events"]
        assert requests["initial"]["total"] == 2
        assert requests["total"] > requests["initial"]["total"]
        assert requests["total"] == events["request_submitted"]
        assert requests["confirmed"] == events.get("friend_confirmed", 0)

    @pytest.mark.parametrize("name, overrides, endpoint", [
        ("pkg_failure", {"num_pkg_servers": 1}, "pkg1"),
        ("straggler_mix", {"num_mix_servers": 1}, "mix1"),
    ])
    def test_a_fault_on_a_missing_endpoint_is_refused(self, name, overrides, endpoint):
        """A partition or slow link aimed at a server the deployment lacks
        would run as a no-op: fail closed, naming what does exist."""
        with pytest.raises(ConfigurationError, match=f"fault names {endpoint}, not an endpoint") as err:
            make_scenario(name, **overrides)
        assert "mix0" in str(err.value) and "pkg0" in str(err.value)

    def test_an_unknown_fault_kind_is_refused(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind 'meteor'"):
            Fault("meteor", names=("mix0",))

    def test_geo_distribution_slows_rounds(self):
        base = run_scenario("baseline", num_clients=9, addfriend_rounds=1,
                            dialing_rounds=1, friend_pairs=2, seed="t-geo")
        geo = run_scenario("geo_distributed", num_clients=9, addfriend_rounds=1,
                           dialing_rounds=1, friend_pairs=2, seed="t-geo")
        assert geo.round_latencies("add-friend")[0] > base.round_latencies("add-friend")[0]


class TestSpecDefaults:
    def test_friend_pairs_default_scales_with_population(self):
        assert ScenarioSpec(num_clients=64).resolved_friend_pairs() == 8
        assert ScenarioSpec(num_clients=4).resolved_friend_pairs() == 1
        assert ScenarioSpec(num_clients=64, friend_pairs=3).resolved_friend_pairs() == 3


class TestOneDeploymentConfig:
    """A spec carries its deployment as one AlpenhornConfig; overrides route
    by name."""

    def test_no_name_is_both_a_spec_and_a_config_field(self):
        assert not SPEC_FIELDS & CONFIG_FIELDS

    def test_overrides_route_by_name(self):
        spec = with_overrides(ScenarioSpec(), num_clients=7, ibe_backend="bn254", num_intents=10)
        assert spec.num_clients == 7
        assert (spec.config.ibe_backend, spec.config.num_intents) == ("bn254", 10)
        assert spec.config.num_mix_servers == ScenarioSpec().config.num_mix_servers

    def test_noise_is_not_an_override_name(self):
        """A run's noise is the spec's (noise_mu, noise_b, privacy_budget):
        ``build`` replaces the config's, so setting it would be ignored.
        (Any other unknown name: ``test_unknown_spec_override_rejected``.)"""
        with pytest.raises(TypeError, match="field named noise"):
            make_scenario("baseline", noise=None)

    def test_a_runs_config_is_its_own(self):
        row = SCENARIOS["baseline"].config
        before = dataclasses.replace(row)
        scenario = make_scenario("baseline", num_clients=4, friend_pairs=1)
        assert scenario.spec.config is not row
        scenario.spec.config.num_intents = 9
        deployment, _net = scenario.build()
        try:
            deployment.config.retry_horizon = 5
            assert deployment.config.num_intents == 9
        finally:
            deployment.close()
        assert SCENARIOS["baseline"].config == before

    def test_simulated_backends_have_the_real_wire_sizes(self):
        """``SimulatedIbe`` and the simulated attestation scheme claim the
        real backends' wire sizes: a run on bn254 + bls records the same
        bytes, deliveries and friendships.  A difference here is a wrong
        size model in the simulated backend, not a test to loosen."""
        kw = dict(num_clients=4, friend_pairs=2, addfriend_rounds=2, dialing_rounds=2, seed="t-wire")
        simulated = run_scenario("baseline", **kw).to_dict()
        real = run_scenario("baseline", ibe_backend="bn254", attestation_backend="bls", **kw).to_dict()
        for record in (simulated, real):
            record.pop("wall_seconds")
        assert (simulated.pop("attestation_backend"), real.pop("attestation_backend")) == (
            "simulated", "bls")
        assert real["friendships_confirmed"] == 2 and real["calls_delivered"] == 2
        assert real == simulated


class TestPipelinedScenarioAndSweep:
    def test_pipelined_rounds_is_registered(self):
        assert "pipelined_rounds" in scenario_names()
        spec = SCENARIOS["pipelined_rounds"]
        assert spec.pipelined

    def test_throughput_recorded_for_both_drivers(self):
        for pipelined in (False, True):
            result = run_scenario("pipelined_rounds", num_clients=8,
                                  addfriend_rounds=1, dialing_rounds=2,
                                  friend_pairs=2, seed="t-pipe",
                                  pipelined=pipelined)
            assert set(result.throughput) == {"add-friend", "dialing", "overall"}
            for stats in result.throughput.values():
                assert stats["rounds"] > 0
                assert stats["busy_s"] > 0
                assert stats["rounds_per_sec"] > 0
            assert json.loads(json.dumps(result.to_dict()))["pipelined"] is pipelined
