"""Client bandwidth model (Figures 6 and 7 of the paper).

A client's recurring bandwidth cost is dominated by downloading its mailbox
every round; the upload side is one fixed-size onion request per round.  The
model reproduces the paper's reasoning (§8.2):

* add-friend: with ``N`` users, a fraction ``active`` of whom send a real
  request per round, and ``K`` mailboxes chosen so each holds roughly a
  target number of requests, a mailbox contains ``real/K`` user requests
  plus ``servers * mu`` noise requests, each of the add-friend entry size;
* dialing: the mailbox is a Bloom filter over ``real/K + servers * mu``
  tokens at ~48 bits per token.

Dividing the per-round bytes by the round duration gives the sustained
KB/s a client needs, which is exactly what Figures 6 and 7 plot against the
round duration for 100K / 1M / 10M users.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.sizes import WireSizes
from repro.mixnet.mailbox import choose_mailbox_count


@dataclass(frozen=True)
class BandwidthPoint:
    """One point on a Figure-6/7 curve."""

    users: int
    round_duration_seconds: float
    mailbox_count: int
    mailbox_bytes: int
    upload_bytes: int
    bytes_per_second: float

    @property
    def kb_per_second(self) -> float:
        return self.bytes_per_second / 1000.0

    @property
    def gb_per_month(self) -> float:
        return self.bytes_per_second * 30 * 24 * 3600 / 1e9


def addfriend_bandwidth(
    users: int,
    round_duration_seconds: float,
    sizes: WireSizes | None = None,
    active_fraction: float = 0.05,
    noise_mu_per_server: float = 4_000,
    num_servers: int = 3,
    target_per_mailbox: int = 12_000,
) -> BandwidthPoint:
    """Client bandwidth for the add-friend protocol (Figure 6)."""
    sizes = sizes if sizes is not None else WireSizes.paper()
    real_requests = int(users * active_fraction)
    mailbox_count = choose_mailbox_count(real_requests, target_per_mailbox)
    requests_per_mailbox = real_requests / mailbox_count + noise_mu_per_server * num_servers
    mailbox_bytes = sizes.addfriend_mailbox_bytes(int(round(requests_per_mailbox)))
    upload_bytes = sizes.onion_request_bytes(
        sizes.addfriend_mailbox_entry, num_servers
    )
    per_round = mailbox_bytes + upload_bytes
    return BandwidthPoint(
        users=users,
        round_duration_seconds=round_duration_seconds,
        mailbox_count=mailbox_count,
        mailbox_bytes=mailbox_bytes,
        upload_bytes=upload_bytes,
        bytes_per_second=per_round / round_duration_seconds,
    )


def dialing_bandwidth(
    users: int,
    round_duration_seconds: float,
    sizes: WireSizes | None = None,
    active_fraction: float = 0.05,
    noise_mu_per_server: float = 25_000,
    num_servers: int = 3,
    target_per_mailbox: int = 75_000,
) -> BandwidthPoint:
    """Client bandwidth for the dialing protocol (Figure 7)."""
    sizes = sizes if sizes is not None else WireSizes.paper()
    real_tokens = int(users * active_fraction)
    mailbox_count = choose_mailbox_count(real_tokens, target_per_mailbox)
    tokens_per_mailbox = real_tokens / mailbox_count + noise_mu_per_server * num_servers
    mailbox_bytes = sizes.dialing_mailbox_bytes(int(round(tokens_per_mailbox)))
    upload_bytes = sizes.onion_request_bytes(sizes.dial_token, num_servers)
    per_round = mailbox_bytes + upload_bytes
    return BandwidthPoint(
        users=users,
        round_duration_seconds=round_duration_seconds,
        mailbox_count=mailbox_count,
        mailbox_bytes=mailbox_bytes,
        upload_bytes=upload_bytes,
        bytes_per_second=per_round / round_duration_seconds,
    )
