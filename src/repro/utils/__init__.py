"""Small shared utilities: byte handling, serialization, deterministic RNG."""

from repro.utils.bytes import xor_bytes
from repro.utils.serialization import Message
from repro.utils.rng import DeterministicRng

__all__ = [
    "xor_bytes",
    "Message",
    "DeterministicRng",
]
