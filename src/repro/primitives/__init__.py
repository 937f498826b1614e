"""Protocol-level data structures: Bloom filters and Laplace noise."""

from repro.primitives.bloom import BloomFilter, optimal_parameters
from repro.primitives.laplace import sample_noise_count

__all__ = [
    "BloomFilter",
    "optimal_parameters",
    "sample_noise_count",
]
