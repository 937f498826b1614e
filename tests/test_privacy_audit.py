"""Tests for the passive-adversary audit harness (repro.sim.privacy_sweep)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.obs.privacy import passive_statistic
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
        result = make_scenario("passive_observer", seed="tap-test").run()
        assert len(result.rounds) == 1
        statistic = passive_statistic(result.rounds, "add-friend", 0)
        assert statistic == float(sum(result.rounds[0].mailbox_counts)) > 0
        # A round's protocol and its published mailbox counts are all it reads.
        tap = [SimpleNamespace(protocol=r.protocol, mailbox_counts=r.mailbox_counts)
               for r in result.rounds]
        assert passive_statistic(tap, "add-friend", 0) == statistic

    def test_an_aborted_round_is_an_occurrence_observing_nothing(self):
        rounds = [SimpleNamespace(protocol="add-friend", mailbox_counts=[]),
                  SimpleNamespace(protocol="dialing", mailbox_counts=[9]),
                  SimpleNamespace(protocol="add-friend", mailbox_counts=[3, 4])]
        assert passive_statistic(rounds, "add-friend", 0) == 0.0
        assert passive_statistic(rounds, "add-friend", 1) == 7.0
        assert passive_statistic(rounds, "dialing", 0) == 9.0

    def test_statistic_rejects_missing_round(self):
        with pytest.raises(ValueError):
            passive_statistic([], "add-friend", 0)

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


class TestAddFriendNoiseShape:
    @pytest.mark.xfail(
        strict=True,
        reason="mix noise bodies are random bytes, not IBE ciphertexts: a mailbox "
        "download counts its real requests (ROADMAP item 21)",
    )
    def test_every_published_entry_parses_as_a_ciphertext(self, monkeypatch):
        """A downloader must not tell noise from a real request by its shape.

        Real entries are ``IbeCiphertext.to_bytes()``, which starts with the
        2-byte header length; noise (``MixServer._make_noise_payload``)
        starts with whatever its random bytes say."""
        from repro.cdn.cdn import Cdn
        from repro.core.addfriend import _IBE_HEADER_SIZE
        from repro.crypto.ibe.interface import IbeCiphertext
        from repro.mixnet.mailbox import AddFriendMailbox

        published: list[bytes] = []
        store_round = Cdn.store_round

        def capture(self, protocol, round_number, blobs):
            if protocol == "add-friend":
                for blob in blobs.values():
                    published.extend(AddFriendMailbox.from_bytes(blob).ciphertexts)
            return store_round(self, protocol, round_number, blobs)

        monkeypatch.setattr(Cdn, "store_round", capture)
        make_scenario("baseline", num_clients=12, dialing_rounds=0).run()

        def parses(entry: bytes) -> bool:
            try:
                return len(IbeCiphertext.from_bytes(entry).header) == _IBE_HEADER_SIZE
            except ValueError:
                return False

        shapes = [parses(entry) for entry in published]
        assert any(shapes), "no real request was published"
        assert all(shapes), f"{shapes.count(False)} of {len(shapes)} entries are not ciphertexts"
