"""Noise generation by mix servers (§6 and §8.1 of the paper).

Every mix server adds, for every mailbox, a Laplace-distributed number of
noise requests.  Noise requests are formatted exactly like real ones
(correct payload length, valid destination mailbox) and are onion-wrapped
for the *downstream* servers, so nobody later in the chain -- nor an
observer of any link -- can tell noise from real traffic.  Only the honest
server's noise needs to be unpredictable for the differential-privacy
guarantee to hold.

The paper's deployment point: mu = 4,000 (b = 406) noise messages per
add-friend mailbox per server and mu = 25,000 (b = 2,183) per dialing
mailbox per server; experiments set b = 0 to reduce variance, which we
support as well.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.primitives.laplace import sample_noise_count
from repro.utils.rng import DeterministicRng

# Paper §8.1 defaults.
DEFAULT_ADDFRIEND_NOISE_MU = 4_000
DEFAULT_ADDFRIEND_NOISE_B = 406
DEFAULT_DIALING_NOISE_MU = 25_000
DEFAULT_DIALING_NOISE_B = 2_183


@dataclass(frozen=True)
class NoiseConfig:
    """Per-server, per-mailbox noise parameters for both protocols."""

    addfriend_mu: float = DEFAULT_ADDFRIEND_NOISE_MU
    addfriend_b: float = DEFAULT_ADDFRIEND_NOISE_B
    dialing_mu: float = DEFAULT_DIALING_NOISE_MU
    dialing_b: float = DEFAULT_DIALING_NOISE_B

    def parameters_for(self, protocol: str) -> tuple[float, float]:
        if protocol == "add-friend":
            return self.addfriend_mu, self.addfriend_b
        if protocol == "dialing":
            return self.dialing_mu, self.dialing_b
        raise ValueError(f"unknown protocol {protocol!r}")

def noise_counts_per_mailbox(
    config: NoiseConfig, protocol: str, mailbox_count: int, rng: DeterministicRng
) -> list[int]:
    """How many noise messages this server adds to each mailbox this round."""
    mu, b = config.parameters_for(protocol)
    return [sample_noise_count(mu, b, rng) for _ in range(mailbox_count)]
