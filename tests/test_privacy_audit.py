"""Tests for the passive-adversary audit harness (repro.sim.privacy_sweep)."""

from __future__ import annotations

import pytest

from repro.obs.privacy import PassiveObserver
from repro.sim.privacy_sweep import (
    _best_threshold,
    _holdout_advantage,
    hoeffding_slack,
    run_observer_trial,
    run_privacy_audit,
)
from repro.sim.scenarios import make_scenario

FAST = dict(num_clients=8, addfriend_rounds=1, dialing_rounds=0)


class TestDistinguisherHelpers:
    def test_perfect_separation_gives_advantage_one(self):
        threshold, direction = _best_threshold([5.0, 6.0], [1.0, 2.0])
        assert direction == 1
        assert 2.0 < threshold < 5.0
        assert _holdout_advantage([5.0, 6.0], [1.0, 2.0], threshold, direction) == 1.0

    def test_direction_flips_when_acting_lowers_the_statistic(self):
        threshold, direction = _best_threshold([1.0, 2.0], [5.0, 6.0])
        assert direction == -1
        assert _holdout_advantage([1.0, 2.0], [5.0, 6.0], threshold, direction) == 1.0

    def test_identical_distributions_give_zero_advantage(self):
        threshold, direction = _best_threshold([3.0, 4.0], [3.0, 4.0])
        assert _holdout_advantage([3.0, 4.0], [3.0, 4.0], threshold, direction) == 0.0

    def test_holdout_advantage_clamped_at_zero(self):
        # A threshold that fires backwards on the holdout set scores 0, not
        # negative: the distinguisher can always fall back to guessing.
        assert _holdout_advantage([1.0], [9.0], 5.0, 1) == 0.0

    def test_hoeffding_slack_shrinks_with_samples(self):
        assert hoeffding_slack(4) > hoeffding_slack(16) > hoeffding_slack(64) > 0
        assert hoeffding_slack(10_000) < 0.02


class TestPassiveObserver:
    def test_observer_sees_only_tap_data(self):
        scenario = make_scenario("passive_observer", seed="tap-test")
        observer = PassiveObserver()
        scenario.monitors.append(observer)
        scenario.run()
        assert len(observer.observations) == 1
        obs = observer.observations[0]
        assert set(obs) == {
            "protocol", "round", "aborted", "mailbox_counts",
            "observed_messages", "endpoint_bytes", "method_frames",
        }
        assert obs["observed_messages"] == sum(obs["mailbox_counts"])
        assert obs["observed_messages"] > 0
        assert observer.statistic("add-friend", 0) == float(obs["observed_messages"])
        assert observer.wire_view("add-friend", 0)

    def test_statistic_rejects_missing_round(self):
        observer = PassiveObserver()
        with pytest.raises(ValueError):
            observer.statistic("add-friend", 0)

    def test_paired_arms_differ_only_in_the_target_action(self):
        acts = run_observer_trial(True, noise_b=4.0, trial=0, **FAST)
        idle = run_observer_trial(False, noise_b=4.0, trial=0, **FAST)
        # Both arms are full cover-traffic rounds; the signal is at most the
        # one extra real message plus independent noise draws.
        assert acts > 0 and idle > 0
        assert abs(acts - idle) < 200  # same scale, not wildly different runs


class TestPrivacyAudit:
    def test_too_few_trials_rejected(self):
        with pytest.raises(ValueError):
            run_privacy_audit(1.0, trials=3)

    def test_small_audit_point_schema_and_bound(self):
        point = run_privacy_audit(1.0, trials=4, **FAST)
        assert point["noise_scale"] == 1.0
        assert point["epsilon"] == pytest.approx(2.0)  # sensitivity 2 / b 1
        assert 0.0 <= point["advantage"] <= point["advantage_raw"] <= 1.0
        assert point["advantage_bound"] <= 1.0
        assert point["within_bound"] is True
        assert point["eval_trials_per_arm"] == 2
        assert point["direction"] in (1, -1)
