"""Tests for the analysis models: sizes, bandwidth, latency, DP accounting."""

from __future__ import annotations

import math

import pytest

from repro.analysis.bandwidth import addfriend_bandwidth, dialing_bandwidth
from repro.analysis.dp import (
    PrivacyAccountant,
    distinguishing_advantage,
    laplace_scale_for_budget,
    noise_floor_delta,
    paper_noise_parameters,
    per_round_epsilon,
    privacy_cost,
)
from repro.analysis.latency import CostModel, LatencyModel, zipf_mailbox_loads
from repro.analysis.sizes import WireSizes


class TestWireSizes:
    def test_paper_request_size(self):
        """§8.2: 244-byte request + 64-byte IBE component = 308 bytes."""
        sizes = WireSizes.paper()
        assert sizes.addfriend_mailbox_entry == 308

    def test_this_implementation_is_larger_but_same_order(self):
        ours = WireSizes.this_implementation()
        paper = WireSizes.paper()
        assert paper.addfriend_mailbox_entry < ours.addfriend_mailbox_entry < 2 * paper.addfriend_mailbox_entry

    def test_mailbox_size_1m_users(self):
        """§8.2: ~24,000 requests at 308 bytes is about 7.4 MB."""
        sizes = WireSizes.paper()
        mb = sizes.addfriend_mailbox_bytes(24_000) / 1e6
        assert 7.0 < mb < 8.0

    def test_dialing_mailbox_uses_48_bits_per_token(self):
        sizes = WireSizes.paper()
        assert abs(sizes.dialing_mailbox_bytes(125_000) - 125_000 * 6) < 100

    def test_scaled_ibe(self):
        sizes = WireSizes.paper().scaled_ibe(4.0)
        assert sizes.ibe_ciphertext_overhead == 256
        assert sizes.friend_request_fields == 244


class TestBandwidthModel:
    def test_figure6_1m_users_mailbox_matches_paper(self):
        point = addfriend_bandwidth(1_000_000, 3600)
        assert 7.0e6 < point.mailbox_bytes < 8.2e6  # paper: ~7.4 MB

    def test_figure7_headline_numbers(self):
        """§8.2: 10M users, 5-minute rounds -> ~3 KB/s, ~7.8 GB/month, 7 mailboxes."""
        point = dialing_bandwidth(10_000_000, 300)
        assert 2.4 < point.kb_per_second < 3.7
        assert 6.2 < point.gb_per_month < 9.5
        assert point.mailbox_count == 7

    def test_figure7_1m_users_bloom_size(self):
        """§8.2: 125,000 tokens encode into a ~0.75 MB Bloom filter."""
        point = dialing_bandwidth(1_000_000, 300)
        assert 0.7e6 < point.mailbox_bytes < 0.85e6

    def test_bandwidth_decreases_with_round_duration(self):
        fast = addfriend_bandwidth(1_000_000, 3600)
        slow = addfriend_bandwidth(1_000_000, 24 * 3600)
        assert slow.kb_per_second < fast.kb_per_second
        assert fast.mailbox_bytes == slow.mailbox_bytes  # same per-round download

    def test_mailbox_size_roughly_constant_in_users(self):
        """§6/§8.2: more users means more mailboxes, not bigger mailboxes."""
        one_m = addfriend_bandwidth(1_000_000, 3600)
        ten_m = addfriend_bandwidth(10_000_000, 3600)
        assert ten_m.mailbox_count > one_m.mailbox_count
        assert ten_m.mailbox_bytes < 1.5 * one_m.mailbox_bytes

    def test_small_population_has_smaller_mailbox(self):
        """§8.2: with 100K users the single mailbox is smaller than 7.4 MB."""
        point = addfriend_bandwidth(100_000, 3600)
        assert point.mailbox_count == 1
        assert point.mailbox_bytes < 7.4e6


class TestLatencyModel:
    def test_headline_points_are_in_the_paper_range(self):
        """Figure 8/9 at 10M users, 3 servers: paper reports 152 s / 118 s."""
        model = LatencyModel()
        addfriend = model.addfriend_latency(10_000_000, 3).total_seconds
        dialing = model.dialing_latency(10_000_000, 3).total_seconds
        assert 90 < addfriend < 230
        assert 70 < dialing < 180
        assert addfriend > dialing

    def test_latency_grows_with_users(self):
        model = LatencyModel()
        values = [model.addfriend_latency(n, 3).total_seconds for n in (10_000, 100_000, 1_000_000, 10_000_000)]
        assert values == sorted(values)
        assert values[-1] > 10 * values[0]

    def test_latency_grows_with_servers(self):
        """Figure 8/9: more servers means more per-hop work and more noise."""
        model = LatencyModel()
        three = model.addfriend_latency(1_000_000, 3).total_seconds
        five = model.addfriend_latency(1_000_000, 5).total_seconds
        ten = model.addfriend_latency(1_000_000, 10).total_seconds
        assert three < five < ten

    def test_skew_keeps_median_flat_but_grows_max(self):
        """Figure 10: median latency is flat in s, max grows, min shrinks."""
        model = LatencyModel()
        flat = model.addfriend_latency_under_skew(1_000_000, 0.0)
        skewed = model.addfriend_latency_under_skew(1_000_000, 2.0)
        assert abs(flat[1] - skewed[1]) / flat[1] < 0.25
        assert skewed[2] > flat[2]
        assert skewed[0] <= flat[0] + 1e-9

    def test_measured_python_costmodel_changes_scale_not_shape(self):
        slow = LatencyModel(costs=CostModel.measured_python(
            ibe_decrypt=0.2, onion_decrypt=3e-4, dialing_hash=3e-6, pkg_extraction=0.02
        ))
        fast = LatencyModel()
        assert slow.addfriend_latency(100_000, 3).total_seconds > fast.addfriend_latency(100_000, 3).total_seconds
        slow_curve = [slow.addfriend_latency(n, 3).total_seconds for n in (10_000, 100_000, 1_000_000)]
        assert slow_curve == sorted(slow_curve)

    def test_zipf_mailbox_loads_sum_and_skew(self):
        uniform = zipf_mailbox_loads(10_000, 4, 0.0)
        skewed = zipf_mailbox_loads(10_000, 4, 2.0)
        assert abs(sum(uniform) - 10_000) < 40
        assert abs(sum(skewed) - 10_000) < 40
        assert max(skewed) - min(skewed) > max(uniform) - min(uniform)

    def test_zipf_loads_reject_bad_mailbox_count(self):
        with pytest.raises(ValueError):
            zipf_mailbox_loads(100, 0, 1.0)


class TestDifferentialPrivacy:
    def test_paper_noise_scales_are_rederived(self):
        """§8.1: b = 406 (add-friend) and b = 2,183 (dialing) for
        (ln 2, 1e-4)-DP over 900 / 26,000 actions.  Our accounting lands
        within ~10% of both."""
        params = paper_noise_parameters()
        assert abs(params["add-friend"]["derived_b"] - 406) / 406 < 0.12
        assert abs(params["dialing"]["derived_b"] - 2_183) / 2_183 < 0.12

    def test_paper_parameters_meet_their_budget(self):
        assert privacy_cost(900, 406).epsilon <= math.log(2) + 0.02
        assert privacy_cost(26_000, 2_183).epsilon <= math.log(2) + 0.02

    def test_scale_for_budget_inverts_cost(self):
        scale = laplace_scale_for_budget(1_000, epsilon=0.5, delta=1e-4)
        assert abs(privacy_cost(1_000, scale, delta=1e-4).epsilon - 0.5) < 0.01

    def test_more_actions_need_more_noise(self):
        assert laplace_scale_for_budget(26_000) > laplace_scale_for_budget(900)

    def test_per_round_epsilon(self):
        assert per_round_epsilon(2.0) == pytest.approx(1.0)
        assert per_round_epsilon(0) == math.inf  # variance-free evaluation setting: unprotected
        with pytest.raises(ValueError):
            per_round_epsilon(-1.0)

    def test_noise_floor_delta_small_at_paper_parameters(self):
        """With mu ~10x b, the probability the noise bottoms out is tiny."""
        assert noise_floor_delta(4_000, 406) < 1e-4
        assert noise_floor_delta(25_000, 2_183) < 1e-4
        assert noise_floor_delta(0, 406) == 0.5

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            privacy_cost(0, 100)
        with pytest.raises(ValueError):
            laplace_scale_for_budget(0)
        assert privacy_cost(10, 0).epsilon == math.inf  # b = 0 is unprotected, not invalid
        with pytest.raises(ValueError):
            privacy_cost(10, -1.0)
        with pytest.raises(ValueError):
            privacy_cost(-1, 100)
        with pytest.raises(ValueError):
            laplace_scale_for_budget(-5)

    def test_epsilon_monotone_in_actions(self):
        """Property (§8.1 composition): more protected actions always cost
        more epsilon at a fixed noise scale."""
        costs = [privacy_cost(k, 406.0).epsilon for k in (1, 10, 100, 900, 5_000)]
        assert costs == sorted(costs)
        assert all(a < b for a, b in zip(costs, costs[1:]))

    def test_epsilon_decreases_with_noise_scale(self):
        """Property: more noise (bigger b) always buys a smaller epsilon."""
        costs = [privacy_cost(900, b).epsilon for b in (50.0, 100.0, 406.0, 2_000.0)]
        assert costs == sorted(costs, reverse=True)
        assert all(a > b for a, b in zip(costs, costs[1:]))


class TestPrivacyAccountant:
    def test_homogeneous_spend_is_exactly_privacy_cost(self):
        """Bit-for-bit, not approximately: the ledger's live number must be
        the same float the offline analysis produces."""
        accountant = PrivacyAccountant()
        for k in range(1, 8):
            spend = accountant.record(406.0)
            assert spend.epsilon == privacy_cost(k, 406.0).epsilon
        assert accountant.actions == 7
        assert accountant.scales == {406.0: 7}

    def test_batch_record(self):
        one_by_one = PrivacyAccountant()
        for _ in range(5):
            one_by_one.record(100.0)
        batched = PrivacyAccountant()
        batched.record(100.0, actions=5)
        assert batched.spend().epsilon == one_by_one.spend().epsilon

    def test_empty_accountant_has_spent_nothing(self):
        spend = PrivacyAccountant().spend()
        assert spend.epsilon == 0.0
        assert spend.actions == 0

    def test_heterogeneous_scales_compose_conservatively(self):
        """Mixed scales cost at least what the same rounds would cost if
        they had all used the *noisiest* of the scales involved."""
        mixed = PrivacyAccountant()
        mixed.record(406.0, actions=3)
        mixed.record(100.0, actions=2)
        all_noisy = privacy_cost(5, 406.0).epsilon
        assert mixed.spend().epsilon > all_noisy

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            PrivacyAccountant(delta=0)
        with pytest.raises(ValueError):
            PrivacyAccountant(delta=1.0)
        accountant = PrivacyAccountant()
        with pytest.raises(ValueError):
            accountant.record(-1.0)
        with pytest.raises(ValueError):
            accountant.record(406.0, actions=0)

    def test_a_round_without_laplace_noise_spends_everything(self):
        accountant = PrivacyAccountant()
        assert accountant.record(0).epsilon == math.inf
        assert accountant.record(406.0).epsilon == math.inf  # and nothing buys it back


class TestDistinguishingAdvantage:
    def test_zero_epsilon_means_no_advantage(self):
        assert distinguishing_advantage(0.0) == 0.0

    def test_known_value(self):
        e = math.e
        assert distinguishing_advantage(1.0) == pytest.approx((e - 1) / (e + 1))

    def test_monotone_and_bounded(self):
        values = [distinguishing_advantage(eps) for eps in (0.1, 0.5, 1.0, 5.0, 50.0)]
        assert values == sorted(values)
        assert all(0 <= v <= 1 for v in values)

    def test_saturates_at_one_for_huge_epsilon(self):
        assert distinguishing_advantage(1_000.0) == 1.0

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            distinguishing_advantage(-0.1)
