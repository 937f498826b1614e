"""Tests for the privacy observability layer: ledger, run report, validator."""

from __future__ import annotations

import math

import pytest

from repro.analysis.dp import privacy_cost
from repro.obs.__main__ import main as obs_main
from repro.obs.privacy import PAPER_ACTION_BUDGETS, PrivacyLedger, budget_consistency
from repro.obs.record import SCHEMA, dumps, validate_record
from repro.sim.scenarios import make_scenario, run_scenario


class TestPrivacyLedger:
    def test_cumulative_epsilon_matches_privacy_cost_exactly(self):
        """The live spend after k rounds at scale b IS privacy_cost(k, b) --
        the same floats, not approximately."""
        ledger = PrivacyLedger()
        for round_number in range(1, 4):
            record = ledger.record_round(
                protocol="add-friend",
                round_number=round_number,
                laplace_scale=406.0,
                noise_mu=4000.0,
                per_server_noise=[1300, 1310, 1295],
                mailbox_counts=[900, 905],
            )
            assert record.epsilon_cumulative == privacy_cost(round_number, 406.0).epsilon

    def test_epsilon_series_is_monotone(self):
        ledger = PrivacyLedger()
        for round_number in range(6):
            ledger.record_round("dialing", round_number, 2183.0, 25000.0, [8000], [5000])
        series = ledger.protocol_summary()["dialing"]["epsilon_series"]
        assert series == sorted(series)
        assert len(series) == 6

    def test_negative_noise_rejected(self):
        ledger = PrivacyLedger()
        with pytest.raises(ValueError):
            ledger.record_round("add-friend", 0, 406.0, 4000.0, [10, -1], [5])

    def test_protocols_account_independently(self):
        ledger = PrivacyLedger()
        ledger.record_round("add-friend", 0, 406.0, 4000.0, [1], [1])
        ledger.record_round("dialing", 1, 2183.0, 25000.0, [1], [1])
        summary = ledger.protocol_summary()
        assert summary["add-friend"]["rounds"] == 1
        assert summary["dialing"]["rounds"] == 1
        assert summary["add-friend"]["epsilon"] == privacy_cost(1, 406.0).epsilon
        assert summary["dialing"]["epsilon"] == privacy_cost(1, 2183.0).epsilon

    def test_per_server_noise_summed_across_rounds(self):
        ledger = PrivacyLedger()
        ledger.record_round("add-friend", 0, 406.0, 4000.0, [10, 20, 30], [5])
        ledger.record_round("add-friend", 1, 406.0, 4000.0, [1, 2, 3], [5])
        summary = ledger.protocol_summary()["add-friend"]
        assert summary["per_server_noise"] == [11, 22, 33]
        assert summary["noise_total"] == 66

    def test_heterogeneous_scales_recorded(self):
        ledger = PrivacyLedger()
        ledger.record_round("add-friend", 0, 406.0, 4000.0, [1], [1])
        ledger.record_round("add-friend", 1, 100.0, 4000.0, [1], [1])
        summary = ledger.protocol_summary()["add-friend"]
        assert summary["laplace_scales"] == [100.0, 406.0]
        # The heterogeneous spend is at least the homogeneous spend at the
        # tighter (smaller-b, bigger-eps) scale with one round.
        assert summary["epsilon"] > privacy_cost(1, 406.0).epsilon


class TestBudgetConsistency:
    def test_paper_scale_honors_paper_budget(self):
        check = budget_consistency(900, configured_b=406.0, configured_mu=4000.0)
        assert check["consistent"] is True
        assert check["achieved_epsilon"] <= math.log(2) + 1e-9
        assert check["under_noised_factor"] < 1.0

    def test_under_noised_configuration_is_flagged_not_fatal(self):
        check = budget_consistency(900, configured_b=1.0, configured_mu=4.0)
        assert check["consistent"] is False
        assert check["under_noised_factor"] > 100
        assert check["achieved_epsilon"] > math.log(2)

    def test_prescribed_scale_itself_is_consistent(self):
        prescribed = budget_consistency(900, 406.0, 4000.0)["prescribed_b"]
        again = budget_consistency(900, prescribed, 4000.0)
        assert again["consistent"] is True


def _report_from_ledger(ledger: PrivacyLedger, audit=None) -> dict:
    """The privacy experiment's envelope: a ledger report beside an audit."""
    return {"name": "privacy", "schema": SCHEMA, "data": {"ledger": ledger.report(), "audit": audit}}


def _small_ledger() -> PrivacyLedger:
    ledger = PrivacyLedger()
    for round_number in range(3):
        ledger.record_round("add-friend", round_number, 4.0, 16.0, [3, 2], [4, 5])
    return ledger


class TestValidatePrivacyReport:
    def test_clean_report_passes(self):
        assert validate_record(_report_from_ledger(_small_ledger())) == []

    def test_not_a_record(self):
        problems = validate_record({"name": "trace", "data": {}})
        assert problems and "unknown schema" in problems[0]
        assert validate_record({"schema": SCHEMA, "data": [1]}) == ["envelope carries no data object"]

    def test_tampered_epsilon_series_flagged(self):
        report = _report_from_ledger(_small_ledger())
        series = report["data"]["ledger"]["protocols"]["add-friend"]["epsilon_series"]
        series[1], series[2] = series[2], series[1]  # break monotonicity
        problems = validate_record(report)
        assert any("monotone" in p for p in problems)

    def test_tampered_cumulative_epsilon_flagged(self):
        report = _report_from_ledger(_small_ledger())
        summary = report["data"]["ledger"]["protocols"]["add-friend"]
        summary["epsilon"] = summary["epsilon"] * 2
        summary["epsilon_series"][-1] = summary["epsilon"]
        problems = validate_record(report)
        assert any("does not match" in p for p in problems)

    def test_negative_noise_in_rounds_flagged(self):
        report = _report_from_ledger(_small_ledger())
        report["data"]["ledger"]["rounds"][0]["per_server_noise"] = [-2, 1]
        problems = validate_record(report)
        assert any("negative noise" in p for p in problems)

    def test_audit_advantage_over_bound_flagged(self):
        audit = {
            "points": [
                {"noise_scale": 1.0, "advantage_bound": 0.5, "advantage": 0.9}
            ],
            "all_within_bound": True,
        }
        problems = validate_record(_report_from_ledger(_small_ledger(), audit))
        assert any("exceeds" in p for p in problems)
        assert any("all_within_bound" in p for p in problems)

    def test_audit_within_bound_passes(self):
        audit = {
            "points": [
                {"noise_scale": 1.0, "advantage_bound": 0.77, "advantage": 0.1}
            ],
            "all_within_bound": True,
        }
        assert validate_record(_report_from_ledger(_small_ledger(), audit)) == []

    def test_validate_file(self, tmp_path, capsys):
        path = tmp_path / "BENCH_privacy.json"
        path.write_text(dumps(_report_from_ledger(_small_ledger())))
        assert obs_main(["validate", str(path)]) == 0
        path.write_text("{not json")
        assert obs_main(["validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out


class _KeepDeployment:
    """Keeps the run's live deployment by wrapping the scenario's
    ``populate`` (no view is handed a deployment)."""

    deployment = None

    def __init__(self, scenario):
        populate = scenario.populate

        def keep(deployment):
            populate(deployment)
            self.deployment = deployment
            self.populated(deployment)

        scenario.populate = keep

    def populated(self, deployment):
        pass


class _BudgetTamper(_KeepDeployment):
    """Zeroes every session's budget once populated and records the events."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.events = []

    def populated(self, deployment):
        for client in deployment.clients.values():
            client.session.action_budgets["add-friend"] = 0
            client.session.events.subscribe("privacy_budget_exceeded", self.events.append)


class TestScenarioIntegration:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(
            "baseline", num_clients=12, friend_pairs=3,
            addfriend_rounds=2, dialing_rounds=1,
        )

    def test_every_run_carries_a_privacy_report(self, result):
        protocols = result.privacy["protocols"]
        assert set(protocols) == {"add-friend", "dialing"}
        assert result.privacy["rounds"]

    def test_ledger_epsilon_matches_analysis_dp(self, result):
        for summary in result.privacy["protocols"].values():
            expected = privacy_cost(summary["rounds"], summary["laplace_scale"]).epsilon
            assert summary["epsilon"] == expected

    def test_report_validates(self, result):
        assert validate_record({"schema": SCHEMA, "data": result.to_dict()}) == []

    def test_noise_traffic_report(self, result):
        traffic = result.privacy["noise_traffic"]
        assert traffic["noise_envelopes"] > 0
        assert traffic["noise_bytes_estimate"] > 0
        assert 0.0 < traffic["noise_share_of_bytes"] < 1.0

    def test_action_budgets_tracked(self, result):
        budgets = result.privacy["action_budgets"]
        assert budgets["add-friend"]["budget"] == PAPER_ACTION_BUDGETS["add-friend"]
        assert budgets["add-friend"]["actions_total"] >= 3
        assert budgets["add-friend"]["actions_max_per_client"] >= 1
        assert budgets["add-friend"]["clients_over_budget"] == 0

    def test_every_real_dial_counts_against_the_dialing_budget(self):
        """Scenarios dial through the client's bare ``call`` (no handle):
        those dials are actions the §8.1 budget protects all the same."""
        scenario = make_scenario(
            "baseline", num_clients=12, friend_pairs=3, addfriend_rounds=2, dialing_rounds=2,
        )
        keep = _KeepDeployment(scenario)
        result = scenario.run()
        placed = sum(len(c.placed_calls()) for c in keep.deployment.clients.values())
        assert placed > 0
        assert result.privacy["action_budgets"]["dialing"]["actions_total"] == placed

    def test_round_records_carry_observations(self, result):
        rows = result.privacy["rounds"]
        assert all(row["observed_messages"] >= row["noise_added"] >= 0 for row in rows)
        assert any(row["delivered_real"] > 0 for row in rows)

    def test_budget_exceeded_event_fires_once_per_session(self):
        scenario = make_scenario(
            "baseline", num_clients=8, friend_pairs=2,
            addfriend_rounds=1, dialing_rounds=0,
        )
        tamper = _BudgetTamper(scenario)
        result = scenario.run()
        # Exactly once per session that submitted a real request (the two
        # queued senders at minimum), never for cover-only participation.
        acted = sum(
            1
            for client in tamper.deployment.clients.values()
            if client.session.action_counts["add-friend"] > 0
        )
        assert acted >= 2
        assert len(tamper.events) == acted
        for event in tamper.events:
            assert event.data["budget"] == 0
            assert event.data["actions"] == 1
        assert result.privacy["action_budgets"]["add-friend"]["clients_over_budget"] == 0

    def test_privacy_budget_spec_derives_noise_scale(self):
        # budget_check compares the configured noise before any round runs,
        # so one mix server (no downstream noise to wrap) is enough.
        scenario = make_scenario(
            "baseline", num_clients=8, friend_pairs=2, num_mix_servers=1,
            addfriend_rounds=1, dialing_rounds=0, privacy_budget=900,
        )
        mu, b = scenario.spec.resolved_noise()
        assert b > 300  # the derived scale, not the 1.0 default
        assert mu > b  # mu tracks b so the clamp floor stays small
        result = scenario.run()
        check = result.privacy["budget_check"]
        assert check["consistent"] is True
        assert check["configured_b"] == b

    def test_privacy_budget_with_under_noise_warns_and_records(self):
        result = run_scenario(
            "baseline", num_clients=8, friend_pairs=2,
            addfriend_rounds=1, dialing_rounds=0,
            privacy_budget=900, noise_b=1.0,
        )
        check = result.privacy["budget_check"]
        assert check["consistent"] is False
        assert check["under_noised_factor"] > 100
        # Warn-and-record: the run still completed and reported.
        assert result.privacy["protocols"]["add-friend"]["rounds"] == 1
