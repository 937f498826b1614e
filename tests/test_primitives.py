"""Tests for the Bloom filter and Laplace noise primitives."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SerializationError
from repro.primitives.bloom import BloomFilter, optimal_parameters
from repro.primitives.laplace import sample_laplace, sample_noise_count
from repro.utils.rng import DeterministicRng


class TestBloomParameters:
    def test_paper_operating_point_is_48_bits_per_element(self):
        """§5.2: a 1e-10 false-positive rate costs about 48 bits per token."""
        bits, _ = optimal_parameters(1_000_000, 1e-10)
        assert 47.0 < bits / 1_000_000 < 48.5

    def test_optimal_parameters_scale_linearly(self):
        bits_1k, hashes_1k = optimal_parameters(1000)
        bits_10k, hashes_10k = optimal_parameters(10000)
        assert 9.5 < bits_10k / bits_1k < 10.5
        assert hashes_1k == hashes_10k

    def test_zero_items_gives_minimal_filter(self):
        bits, hashes = optimal_parameters(0)
        assert bits >= 64 and hashes >= 1

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            optimal_parameters(100, 1.5)


class TestBloomFilter:
    def test_no_false_negatives(self, rng):
        """§5.2: Bloom filters never miss an incoming call."""
        bloom = BloomFilter.for_expected_items(500, 1e-6)
        tokens = [rng.read(32) for _ in range(500)]
        bloom.update(tokens)
        assert all(token in bloom for token in tokens)

    def test_false_positive_rate_is_low(self, rng):
        bloom = BloomFilter.for_expected_items(300, 1e-6)
        bloom.update(rng.read(32) for _ in range(300))
        false_positives = sum(1 for _ in range(2000) if rng.read(32) in bloom)
        assert false_positives <= 2

    def test_empty_filter_contains_nothing(self, rng):
        bloom = BloomFilter.for_expected_items(100)
        assert rng.read(32) not in bloom

    def test_serialization_roundtrip(self, rng):
        bloom = BloomFilter.for_expected_items(100, 1e-6)
        bloom.update(rng.read(32) for _ in range(100))
        restored = BloomFilter.from_bytes(bloom.to_bytes())
        assert restored == bloom
        assert restored.size_bytes() == bloom.size_bytes()

    def test_serialization_size_accounting(self):
        bloom = BloomFilter.for_expected_items(1000, 1e-10)
        assert bloom.size_bytes() == len(bloom.to_bytes())
        # ~48 bits/element => ~6000 bytes of bit array.
        assert 5800 < bloom.size_bytes() < 6300

    def test_malformed_encoding_rejected(self):
        with pytest.raises(SerializationError):
            BloomFilter.from_bytes(b"\x00" * 5)
        with pytest.raises(SerializationError):
            BloomFilter.from_bytes(b"\x00" * 8 + b"\x00" * 4 + b"\x01")
        good = BloomFilter(64, 3).to_bytes()
        with pytest.raises(SerializationError):
            BloomFilter.from_bytes(good + b"\x00")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 3)
        with pytest.raises(ValueError):
            BloomFilter(64, 0)

    @given(st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=50, unique=True))
    @settings(max_examples=25, deadline=None)
    def test_membership_property(self, tokens):
        bloom = BloomFilter.for_expected_items(len(tokens), 1e-8)
        bloom.update(tokens)
        assert all(token in bloom for token in tokens)


class TestLaplaceNoise:
    def test_sample_mean_close_to_mu(self, rng):
        samples = [sample_noise_count(4000, 406, rng) for _ in range(400)]
        mean = sum(samples) / len(samples)
        assert abs(mean - 4000) < 150

    def test_samples_are_nonnegative_integers(self, rng):
        for _ in range(200):
            value = sample_noise_count(10, 50, rng)
            assert isinstance(value, int)
            assert value >= 0

    def test_zero_scale_is_deterministic(self, rng):
        assert sample_noise_count(100, 0, rng) == 100

    def test_negative_scale_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_laplace(-1, rng)

    def test_laplace_spread_grows_with_b(self, rng):
        tight = [abs(sample_laplace(10, rng)) for _ in range(300)]
        wide = [abs(sample_laplace(1000, rng)) for _ in range(300)]
        assert sum(wide) / len(wide) > sum(tight) / len(tight) * 10

    def test_laplace_mean_absolute_deviation(self, rng):
        """E|X| for Laplace(0, b) is b -- check within sampling error."""
        b = 100
        samples = [abs(sample_laplace(b, rng)) for _ in range(2000)]
        assert abs(sum(samples) / len(samples) - b) < b * 0.15
