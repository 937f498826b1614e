"""Randomness sources.

Production code paths use :func:`secrets.token_bytes` (the OS CSPRNG).  The
simulator, the noise generators, and the benchmark workloads accept a
:class:`DeterministicRng` so that experiments are reproducible run-to-run.
"""

from __future__ import annotations

import hashlib
import secrets


def random_bytes(n: int) -> bytes:
    """Cryptographically secure random bytes (OS CSPRNG)."""
    return secrets.token_bytes(n)


class DeterministicRng:
    """A seeded, hash-based byte stream for reproducible simulations.

    This is *not* a cryptographically vetted DRBG; it exists so that noise
    draws, shuffles and workloads in tests/benchmarks are repeatable.  The
    stream is SHA-256 in counter mode over the seed.
    """

    def __init__(self, seed: bytes | str | int) -> None:
        if isinstance(seed, int):
            seed = seed.to_bytes(32, "big", signed=False) if seed >= 0 else str(seed).encode()
        elif isinstance(seed, str):
            seed = seed.encode("utf-8")
        self._seed = bytes(seed)
        self._counter = 0
        self._buffer = b""

    def read(self, n: int) -> bytes:
        """Return the next ``n`` bytes of the stream."""
        while len(self._buffer) < n:
            block = hashlib.sha256(
                self._seed + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            self._buffer += block
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        return out

    def randint_below(self, bound: int) -> int:
        """Uniform integer in ``[0, bound)`` via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        nbytes = (bound.bit_length() + 7) // 8 + 1
        while True:
            value = int.from_bytes(self.read(nbytes), "big")
            limit = (256**nbytes // bound) * bound
            if value < limit:
                return value % bound

    def uniform(self) -> float:
        """Uniform float in ``[0, 1)`` with 53 bits of precision."""
        return int.from_bytes(self.read(7), "big") % (2**53) / float(2**53)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint_below(i + 1)
            items[i], items[j] = items[j], items[i]

    def fork(self, label: str) -> "DeterministicRng":
        """Derive an independent child stream (e.g. one per server)."""
        child_seed = hashlib.sha256(self._seed + b"/" + label.encode("utf-8")).digest()
        return DeterministicRng(child_seed)
