"""The shard directory: who owns which mailbox range this round.

The entry/CDN front tier (see :mod:`repro.cluster`) splits each round's
mailbox-ID space ``[0, K)`` into one contiguous range per shard.  A
:class:`ShardDirectory` is built by the :class:`~repro.entry.server.EntryServer`
when a round opens and, with more than one shard, is announced to clients
alongside the :class:`~repro.entry.server.RoundAnnouncement`: a client
computes its own mailbox ID (``H(email) mod K``) and routes its submission
and its mailbox download to the shard whose range contains it.  Because
``K`` is chosen per round, the directory is per-round state -- which is also
what makes shard rebalancing (a ROADMAP follow-on) a pure directory change.

Ranges are balanced to within one mailbox: with ``K`` mailboxes over ``S``
shards the first ``K mod S`` shards own ``ceil(K/S)`` mailboxes and the rest
own ``floor(K/S)``.  ``K < S`` leaves the tail shards with empty ranges;
they simply receive no submissions or downloads that round.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ShardRoutingError
from repro.mixnet.mailbox import mailbox_for_identity
from repro.net.rpc import SHARD_DIRECTORY


def balanced_ranges(mailbox_count: int, shard_count: int) -> list[tuple[int, int]]:
    """Split ``[0, mailbox_count)`` into ``shard_count`` contiguous ranges."""
    if shard_count < 1:
        raise ValueError("need at least one shard")
    if mailbox_count < 0:
        raise ValueError("mailbox count must be non-negative")
    base, extra = divmod(mailbox_count, shard_count)
    ranges: list[tuple[int, int]] = []
    lo = 0
    for index in range(shard_count):
        width = base + (1 if index < extra else 0)
        ranges.append((lo, lo + width))
        lo += width
    return ranges


def front_endpoints(shard_count: int) -> list[tuple[str, str, str]]:
    """Each front shard's ``(entry, ingress, cdn)`` endpoint names.

    One shard is the entry server itself: clients submit to ``entry`` and
    download from ``cdn``.  N shards are ``entry{i}``/``ingress{i}``/``cdn{i}``.
    """
    if shard_count == 1:
        return [("entry", "entry", "cdn")]
    return [(f"entry{i}", f"ingress{i}", f"cdn{i}") for i in range(shard_count)]


@dataclass(frozen=True)
class ShardRange:
    """One shard's slice of the round's mailbox space, plus its endpoints."""

    index: int
    lo: int
    hi: int  # exclusive
    entry: str
    ingress: str
    cdn: str

    def contains(self, mailbox_id: int) -> bool:
        return self.lo <= mailbox_id < self.hi

    def width(self) -> int:
        return self.hi - self.lo


@dataclass(frozen=True)
class ShardDirectory:
    """The per-round routing table clients and the entry server share."""

    protocol: str
    round_number: int
    mailbox_count: int
    ranges: tuple[ShardRange, ...]

    @staticmethod
    def build(
        protocol: str, round_number: int, mailbox_count: int, shard_count: int
    ) -> "ShardDirectory":
        ranges = tuple(
            ShardRange(index, lo, hi, *names)
            for index, ((lo, hi), names) in enumerate(
                zip(balanced_ranges(mailbox_count, shard_count), front_endpoints(shard_count))
            )
        )
        return ShardDirectory(
            protocol=protocol,
            round_number=round_number,
            mailbox_count=mailbox_count,
            ranges=ranges,
        )

    @property
    def shard_count(self) -> int:
        return len(self.ranges)

    # -- routing -----------------------------------------------------------
    def shard_for_mailbox(self, mailbox_id: int) -> ShardRange:
        """The owning shard; raises :class:`ShardRoutingError` off the map.

        A linear scan, not an arithmetic shortcut: ranges stay authoritative
        even once rebalancing makes them unevenly sized.
        """
        for shard in self.ranges:
            if shard.contains(mailbox_id):
                return shard
        raise ShardRoutingError(
            f"mailbox {mailbox_id} is outside every shard range for "
            f"{self.protocol} round {self.round_number} "
            f"(mailbox_count={self.mailbox_count})"
        )

    def shard_for_identity(self, identity: str) -> ShardRange:
        """The shard owning an identity's own mailbox this round."""
        return self.shard_for_mailbox(mailbox_for_identity(identity, self.mailbox_count))

    # -- wire format ---------------------------------------------------------
    def to_fields(self) -> tuple:
        """The :data:`SHARD_DIRECTORY` value: what a message embedding the
        directory is handed (a shard's index is its position)."""
        return (
            self.protocol,
            self.round_number,
            self.mailbox_count,
            [(s.lo, s.hi, s.entry, s.ingress, s.cdn) for s in self.ranges],
        )

    @staticmethod
    def from_fields(fields: tuple) -> "ShardDirectory":
        protocol, round_number, mailbox_count, ranges = fields
        return ShardDirectory(
            protocol=protocol,
            round_number=round_number,
            mailbox_count=mailbox_count,
            ranges=tuple(ShardRange(index, *shard) for index, shard in enumerate(ranges)),
        )

    def to_bytes(self) -> bytes:
        return SHARD_DIRECTORY.encode(*self.to_fields())

    @staticmethod
    def from_bytes(data: bytes) -> "ShardDirectory":
        return ShardDirectory.from_fields(SHARD_DIRECTORY.decode(data))

