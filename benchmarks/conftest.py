"""Shared fixtures for the benchmark harness.

Each benchmark file regenerates one of the paper's tables or figures
(DESIGN.md §3 maps experiment ids to files).  Benchmarks print the same
rows/series the paper reports -- paper value next to the model/measured
value -- so ``pytest benchmarks/ --benchmark-only -s`` produces the data
recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import pytest

from repro.core.config import AlpenhornConfig
from repro.core.coordinator import Deployment


def pytest_configure(config):
    config.addinivalue_line("markers", "figure(name): which paper figure/table this regenerates")


@pytest.fixture(scope="session")
def small_real_deployment():
    """A small deployment on the real pairing backend, with two friends."""
    deployment = Deployment(AlpenhornConfig.for_tests(num_mix_servers=3, num_pkg_servers=3), seed="bench-real")
    deployment.create_client("alice@example.org")
    deployment.create_client("bob@example.org")
    deployment.session("alice@example.org").add_friend("bob@example.org")
    deployment.run_addfriend_round()  # Alice's request reaches Bob, Bob accepts
    deployment.run_addfriend_round()  # Bob's confirmation reaches Alice
    return deployment


@pytest.fixture(scope="session")
def simulated_deployment():
    """A larger deployment on the simulated IBE backend (protocol-accurate)."""
    deployment = Deployment(
        AlpenhornConfig.for_tests(num_mix_servers=3, num_pkg_servers=3, backend="simulated"),
        seed="bench-sim",
    )
    emails = [f"user{i}@example.org" for i in range(40)]
    for email in emails:
        deployment.create_client(email)
    for i in range(0, 40, 2):
        deployment.client(emails[i]).add_friend(emails[i + 1])
    deployment.run_addfriend_round()
    deployment.run_addfriend_round()
    return deployment
