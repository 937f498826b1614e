"""Bloom filter encoding of dialing mailboxes (§5.2 of the paper).

The last mixnet server encodes each dialing mailbox (a set of 256-bit dial
tokens) into a Bloom filter so clients download far less data: at the
paper's operating point of a 1e-10 false-positive rate, the filter costs
about 48 bits per token instead of 256.  Bloom filters have no false
negatives, so an incoming call is never missed; a false positive merely
triggers a phantom ``IncomingCall`` (roughly once a decade at 1e-10).
"""

from __future__ import annotations

import hashlib
import math

from repro.errors import SerializationError

# The paper's operating point.
DEFAULT_FALSE_POSITIVE_RATE = 1e-10

#: Largest hash count a decoded filter may declare.  ``optimal_parameters``
#: yields k = 33 at 1e-10; the bound leaves headroom down to ~1e-19 while
#: capping the SHAKE-256 output one membership test of an untrusted filter
#: can request (8 bytes per hash).
MAX_NUM_HASHES = 64


def optimal_parameters(expected_items: int, false_positive_rate: float = DEFAULT_FALSE_POSITIVE_RATE) -> tuple[int, int]:
    """Optimal (bit count, hash count) for the expected load and target FP rate.

    Uses the standard formulas ``m = -n ln(p) / (ln 2)^2`` and
    ``k = (m/n) ln 2``.  For p = 1e-10 this yields ~47.9 bits and 33 hashes
    per element, matching the paper's "48 bits per element".
    """
    if expected_items <= 0:
        return 64, 1
    if not 0 < false_positive_rate < 1:
        raise ValueError("false positive rate must be in (0, 1)")
    bits = math.ceil(-expected_items * math.log(false_positive_rate) / (math.log(2) ** 2))
    hashes = max(1, round((bits / expected_items) * math.log(2)))
    return max(bits, 64), hashes


def bits_per_element(false_positive_rate: float = DEFAULT_FALSE_POSITIVE_RATE) -> float:
    """Bits each element costs at the optimal configuration."""
    return -math.log(false_positive_rate) / (math.log(2) ** 2)


class BloomFilter:
    """A fixed-size Bloom filter over byte-string elements.

    The k element indexes are independent 64-bit draws from a SHAKE-256
    stream over the element (see ``_indexes`` for why double hashing is
    insufficient at this code's small per-mailbox table sizes).
    """

    def __init__(self, num_bits: int, num_hashes: int) -> None:
        if num_bits <= 0 or num_hashes <= 0:
            raise ValueError("Bloom filter parameters must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)
        self._count = 0

    @classmethod
    def for_expected_items(
        cls, expected_items: int, false_positive_rate: float = DEFAULT_FALSE_POSITIVE_RATE
    ) -> "BloomFilter":
        bits, hashes = optimal_parameters(expected_items, false_positive_rate)
        return cls(bits, hashes)

    # -- index derivation ----------------------------------------------
    def _indexes(self, element: bytes):
        # k independent 64-bit indexes from one extendable-output hash.
        # Double hashing ((h1 + i*h2) mod m) is NOT enough here: the pair
        # (h1, h2) carries only ~2*log2(m) bits of entropy, so for the
        # small per-mailbox tables this code builds, any query colliding
        # with an inserted element's probe pattern is an automatic false
        # positive -- a floor of ~1/m^2, many orders of magnitude above the
        # 1e-10 target (and a composite m degrades it further by collapsing
        # stride cycles).
        stream = hashlib.shake_256(element).digest(8 * self.num_hashes)
        for i in range(self.num_hashes):
            yield int.from_bytes(stream[8 * i : 8 * (i + 1)], "big") % self.num_bits

    # -- set operations -------------------------------------------------
    def add(self, element: bytes) -> None:
        for index in self._indexes(element):
            self._bits[index // 8] |= 1 << (index % 8)
        self._count += 1

    def __contains__(self, element: bytes) -> bool:
        return all(
            self._bits[index // 8] & (1 << (index % 8)) for index in self._indexes(element)
        )

    def update(self, elements) -> None:
        for element in elements:
            self.add(element)

    # -- accounting ------------------------------------------------------
    def size_bytes(self) -> int:
        """Serialized size, which is what a client downloads."""
        return 12 + len(self._bits)

    def fill_ratio(self) -> float:
        set_bits = sum(bin(byte).count("1") for byte in self._bits)
        return set_bits / self.num_bits

    def expected_false_positive_rate(self) -> float:
        """FP rate estimate from the actual fill ratio."""
        return self.fill_ratio() ** self.num_hashes

    # -- serialization ----------------------------------------------------
    def to_bytes(self) -> bytes:
        header = self.num_bits.to_bytes(8, "big") + self.num_hashes.to_bytes(4, "big")
        return header + bytes(self._bits)

    @staticmethod
    def from_bytes(data: bytes) -> "BloomFilter":
        if len(data) < 12:
            raise SerializationError("Bloom filter encoding too short")
        num_bits = int.from_bytes(data[:8], "big")
        num_hashes = int.from_bytes(data[8:12], "big")
        if num_bits <= 0 or not 0 < num_hashes <= MAX_NUM_HASHES:
            raise SerializationError("invalid Bloom filter parameters")
        expected_len = 12 + (num_bits + 7) // 8
        if len(data) != expected_len:
            raise SerializationError(
                f"Bloom filter length mismatch: got {len(data)}, want {expected_len}"
            )
        bloom = BloomFilter(num_bits, num_hashes)
        bloom._bits = bytearray(data[12:])
        return bloom

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BloomFilter)
            and self.num_bits == other.num_bits
            and self.num_hashes == other.num_hashes
            and self._bits == other._bits
        )
