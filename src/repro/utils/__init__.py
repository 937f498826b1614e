"""Small shared utilities: byte handling, serialization, deterministic RNG."""

from repro.utils.bytes import (
    constant_time_equal,
    int_to_bytes,
    bytes_to_int,
    xor_bytes,
    hexlify,
)
from repro.utils.serialization import Message
from repro.utils.rng import DeterministicRng

__all__ = [
    "constant_time_equal",
    "int_to_bytes",
    "bytes_to_int",
    "xor_bytes",
    "hexlify",
    "Message",
    "DeterministicRng",
]
