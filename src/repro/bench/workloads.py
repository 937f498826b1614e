"""Skewed workloads for the evaluation (§8.4 of the paper): Zipf recipient
weights (at s = 2 the top ten users receive 94% of all requests) and a client
population whose mailbox placement is Zipf-skewed across entry shards.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mixnet.mailbox import mailbox_for_identity
from repro.utils.rng import DeterministicRng


def zipf_recipient_weights(population: int, s: float) -> list[float]:
    """Normalised Zipf weights: P(recipient = rank i) ~ i^-s."""
    if population <= 0:
        raise ValueError("population must be positive")
    if s < 0:
        raise ValueError("Zipf exponent must be non-negative")
    weights = [1.0 / (rank**s) if s > 0 else 1.0 for rank in range(1, population + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def top_k_share(weights: list[float], k: int) -> float:
    """Fraction of requests received by the k most popular users."""
    return sum(sorted(weights, reverse=True)[:k])


@dataclass
class ZipfMailboxWorkload:
    """Mint client identities whose mailbox placement is Zipf-skewed by shard.

    The sharded entry tier (``repro.cluster``) routes every client by its
    own mailbox ID, so per-shard load is exactly the client-population mass
    in each shard's mailbox range.  This generator reproduces a skewed
    population: for each client it samples a target shard from a Zipf(α)
    law over shard ranks and then mines an email address (deterministic
    ``userN.K@domain`` suffix search) whose ``H(email) mod mailbox_count``
    falls in that shard's contiguous range.  ``alpha == 0`` skips mining and
    returns plain ``userN@domain`` addresses, so the uniform baseline uses
    the exact same population regardless of the shard count.

    ``mailbox_count`` must match the deployment's pinned per-round count
    (``AlpenhornConfig.fixed_mailbox_count``): mailbox placement -- and with
    it the skew -- is only stable across rounds when K is.
    """

    shard_count: int
    mailbox_count: int
    alpha: float = 0.0
    seed: str = "zipf-mailboxes"
    domain: str = "sim.example.org"

    def __post_init__(self) -> None:
        from repro.cluster.directory import balanced_ranges

        if self.alpha > 0 and self.mailbox_count < self.shard_count:
            raise ValueError(
                "skewed placement needs at least one mailbox per shard "
                f"(mailbox_count={self.mailbox_count} < shard_count={self.shard_count})"
            )
        self.rng = DeterministicRng(
            f"{self.seed}/{self.shard_count}/{self.mailbox_count}/{self.alpha}"
        )
        self._ranges = balanced_ranges(self.mailbox_count, self.shard_count)
        weights = zipf_recipient_weights(self.shard_count, self.alpha)
        self._cumulative: list[float] = []
        running = 0.0
        for weight in weights:
            running += weight
            self._cumulative.append(running)

    def sample_shard(self) -> int:
        """Draw a target shard index from the Zipf(α) popularity law."""
        u = self.rng.uniform()
        for index, cumulative in enumerate(self._cumulative):
            if u <= cumulative:
                return index
        return len(self._cumulative) - 1

    def shard_of(self, email: str) -> int:
        """Which shard's range the identity's mailbox falls in."""
        mailbox_id = mailbox_for_identity(email, self.mailbox_count)
        for index, (lo, hi) in enumerate(self._ranges):
            if lo <= mailbox_id < hi:
                return index
        raise ValueError(f"mailbox {mailbox_id} outside every range")  # pragma: no cover

    def email_for(self, index: int) -> str:
        """The index-th client's identity (mined to the sampled shard)."""
        if self.alpha <= 0:
            return f"user{index}@{self.domain}"
        # Every range is non-empty here: the constructor rejects
        # mailbox_count < shard_count whenever alpha > 0.
        lo, hi = self._ranges[self.sample_shard()]
        suffix = 0
        while True:
            email = f"user{index}.{suffix}@{self.domain}"
            if lo <= mailbox_for_identity(email, self.mailbox_count) < hi:
                return email
            suffix += 1

    def shard_loads(self, emails: list[str]) -> list[int]:
        """How many of ``emails`` each shard's range owns."""
        loads = [0] * self.shard_count
        for email in emails:
            loads[self.shard_of(email)] += 1
        return loads
