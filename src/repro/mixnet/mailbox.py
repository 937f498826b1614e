"""Mailboxes: where requests land at the end of the mixnet (§3.1, step 3).

A request carries its destination mailbox ID in plaintext (the client
computes ``H(recipient email) mod K``); many users share each mailbox, and a
dedicated ID marks cover traffic that the last server simply discards.  The
number of mailboxes ``K`` is chosen so that real traffic and noise are
roughly balanced per mailbox (§6), which keeps client downloads roughly
constant as the user base grows.

Add-friend mailboxes hold the IBE ciphertexts themselves; dialing mailboxes
are encoded as Bloom filters over the submitted dial tokens (§5.2).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.primitives.bloom import DEFAULT_FALSE_POSITIVE_RATE, BloomFilter
from repro.utils.serialization import U32, Bytes, List, Message

# Requests destined to this ID are cover traffic and are dropped by the last
# mix server after being carried (indistinguishably) through the chain.
COVER_MAILBOX_ID = 0xFFFFFFFF

# Operating points from the paper's evaluation (§8.2): mailboxes are sized
# so that roughly this many real requests land in each one.
DEFAULT_ADDFRIEND_TARGET_PER_MAILBOX = 12_000
DEFAULT_DIALING_TARGET_PER_MAILBOX = 75_000

ADDFRIEND_MAILBOX = Message(
    "addfriend_mailbox", U32("mailbox_id"), List("ciphertexts", Bytes("ciphertext"))
)
DIALING_MAILBOX = Message(
    "dialing_mailbox", U32("mailbox_id"), U32("token_count"), Bytes("bloom"),
    note="bloom is the Bloom filter encoding below",
)


def mailbox_for_identity(identity: str, mailbox_count: int) -> int:
    """The mailbox an identity's requests are routed to: H(email) mod K."""
    if mailbox_count <= 0:
        raise ValueError("mailbox count must be positive")
    digest = hashlib.sha256(identity.lower().encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % mailbox_count


def choose_mailbox_count(expected_real_requests: int, target_per_mailbox: int) -> int:
    """Pick K so each mailbox holds about ``target_per_mailbox`` real requests."""
    if target_per_mailbox <= 0:
        raise ValueError("target per mailbox must be positive")
    if expected_real_requests <= 0:
        return 1
    return max(1, round(expected_real_requests / target_per_mailbox))


@dataclass
class AddFriendMailbox:
    """One add-friend mailbox: a list of (indistinguishable) IBE ciphertexts."""

    mailbox_id: int
    ciphertexts: list[bytes] = field(default_factory=list)

    def add(self, ciphertext: bytes) -> None:
        self.ciphertexts.append(ciphertext)

    def size_bytes(self) -> int:
        return sum(len(c) + 4 for c in self.ciphertexts)

    def __len__(self) -> int:
        return len(self.ciphertexts)

    def to_bytes(self) -> bytes:
        return ADDFRIEND_MAILBOX.encode(self.mailbox_id, self.ciphertexts)

    @staticmethod
    def from_bytes(data: bytes) -> "AddFriendMailbox":
        return AddFriendMailbox(*ADDFRIEND_MAILBOX.decode(data))


@dataclass
class DialingMailbox:
    """One dialing mailbox: a Bloom filter over the round's dial tokens."""

    mailbox_id: int
    bloom: BloomFilter
    token_count: int = 0

    @staticmethod
    def build(
        mailbox_id: int, tokens: list[bytes], false_positive_rate: float = DEFAULT_FALSE_POSITIVE_RATE
    ) -> "DialingMailbox":
        bloom = BloomFilter.for_expected_items(max(len(tokens), 1), false_positive_rate)
        bloom.update(tokens)
        return DialingMailbox(mailbox_id=mailbox_id, bloom=bloom, token_count=len(tokens))

    def __contains__(self, token: bytes) -> bool:
        return token in self.bloom

    def size_bytes(self) -> int:
        return self.bloom.size_bytes()

    def to_bytes(self) -> bytes:
        return DIALING_MAILBOX.encode(self.mailbox_id, self.token_count, self.bloom.to_bytes())

    @staticmethod
    def from_bytes(data: bytes) -> "DialingMailbox":
        mailbox_id, token_count, bloom = DIALING_MAILBOX.decode(data)
        return DialingMailbox(mailbox_id, BloomFilter.from_bytes(bloom), token_count)


def decode_mailbox(protocol: str, mailbox_id: int, blob: bytes | None):
    """Deserialize a downloaded mailbox; ``None`` means it was empty.

    Shared by the CDN server and its transport stub so the two decode paths
    cannot drift.
    """
    if blob is None:
        if protocol == "add-friend":
            return AddFriendMailbox(mailbox_id=mailbox_id)
        return DialingMailbox.build(mailbox_id, [])
    if protocol == "add-friend":
        return AddFriendMailbox.from_bytes(blob)
    return DialingMailbox.from_bytes(blob)


@dataclass
class MailboxSet:
    """All mailboxes produced by one protocol round."""

    round_number: int
    protocol: str  # "add-friend" or "dialing"
    mailbox_count: int
    addfriend: dict[int, AddFriendMailbox] = field(default_factory=dict)
    dialing: dict[int, DialingMailbox] = field(default_factory=dict)

    def blobs(self) -> dict[int, bytes]:
        """Every mailbox serialized: what crosses the wire and the CDN stores."""
        boxes = self.addfriend if self.protocol == "add-friend" else self.dialing
        return {mailbox_id: mailbox.to_bytes() for mailbox_id, mailbox in boxes.items()}

    def message_counts(self) -> list[int]:
        """Messages per mailbox ID -- the round's *observable* count vector.

        This is exactly what a passive adversary (or any client) sees when
        the round publishes: per-mailbox message counts with the servers'
        noise already folded in.  The privacy ledger records it per round.
        """
        counts = [0] * self.mailbox_count
        if self.protocol == "add-friend":
            for mid, mailbox in self.addfriend.items():
                if 0 <= mid < self.mailbox_count:
                    counts[mid] = len(mailbox)
        else:
            for mid, mailbox in self.dialing.items():
                if 0 <= mid < self.mailbox_count:
                    counts[mid] = mailbox.token_count
        return counts
