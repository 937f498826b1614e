"""Shared pytest fixtures for the Alpenhorn reproduction test suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.utils.rng import DeterministicRng


@pytest.fixture
def rng() -> DeterministicRng:
    """A deterministic RNG so tests are reproducible run-to-run."""
    return DeterministicRng(b"alpenhorn-test-seed")


class CountingPrivateKey:
    """Stands in for ``AcceleratedBackend._private_key``: counts key imports."""

    def __init__(self, real) -> None:
        self.real = real
        self.loads = 0

    def from_private_bytes(self, data: bytes):
        self.loads += 1
        return self.real.from_private_bytes(data)


@pytest.fixture
def counting_accelerated():
    """A private accelerated backend whose X25519 key imports are counted
    (``backend._private_key.loads``): OpenSSL derives the public half on
    every import, so the engine must import each key once per call."""
    from repro.crypto.engine import AcceleratedBackend, accelerated_available

    if not accelerated_available():
        pytest.skip("load counts need the optional 'cryptography' package")
    backend = AcceleratedBackend()
    backend._private_key = CountingPrivateKey(backend._private_key)
    return backend


@pytest.fixture(scope="session")
def parity_tool():
    """``tools/parity.py`` as a module (a script, not part of the package)."""
    path = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
    spec = importlib.util.spec_from_file_location("parity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def keypair(scheme) -> tuple[bytes, bytes]:
    """A fresh ``(private, public)`` pair from ``ed25519`` or ``x25519``."""
    private = scheme.generate_private_key()
    return private, scheme.public_key(private)


def engine_names() -> list[str]:
    """Every importable backend, then each again as ``traced-NAME``."""
    from repro.crypto.engine import available_backends

    names = available_backends()
    return [*names, *(f"traced-{name}" for name in names)]


@pytest.fixture
def backend(request):
    """The crypto engine an indirect ``backend`` parameter names.

    ``traced-NAME`` is the engine a traced run computes with, in a
    ``Deployment`` and in an ``mp`` mix worker alike: NAME wrapped in
    ``InstrumentedCryptoBackend`` reporting to a tracer.  Vectors pinned
    on it pin that the wrapper moves no byte and no failure."""
    from repro.crypto.engine import get_backend
    from repro.obs.instrument import InstrumentedCryptoBackend
    from repro.obs.trace import Tracer

    name = request.param
    if not name.startswith("traced-"):
        return get_backend(name)
    return InstrumentedCryptoBackend(get_backend(name.removeprefix("traced-")), Tracer())


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="run tests marked slow (full-pairing heavy paths)",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: slow tests exercising many pairings")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip_slow = pytest.mark.skip(reason="use --run-slow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)
