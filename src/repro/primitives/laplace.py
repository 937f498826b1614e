"""Laplace noise for differential privacy (§6 and §8.1 of the paper).

Each mixnet server adds noise messages to every mailbox; the number of noise
messages is drawn from a (clamped, rounded) Laplace distribution with mean
``mu`` and scale ``b``.  Because an adversary observing mailbox counts sees
real counts plus at least one honest server's noise, the counts are
differentially private (Vuvuzela's formulation).  The paper's deployment
point is ``mu = 4,000 / b = 406`` per add-friend mailbox and
``mu = 25,000 / b = 2,183`` per dialing mailbox.
"""

from __future__ import annotations

import math
from repro.utils.rng import DeterministicRng


def sample_laplace(b: float, rng: DeterministicRng) -> float:
    """Sample from Laplace(0, b) via inverse-CDF."""
    if b < 0:
        raise ValueError("Laplace scale must be non-negative")
    if b == 0:
        return 0.0
    # Uniform in (-1/2, 1/2), avoiding the endpoints.
    u = rng.uniform() - 0.5
    u = min(max(u, -0.499999999), 0.499999999)
    return -b * math.copysign(1.0, u) * math.log(1 - 2 * abs(u))


def sample_noise_count(mu: float, b: float, rng: DeterministicRng) -> int:
    """Number of noise messages a server adds to one mailbox this round."""
    value = mu + sample_laplace(b, rng)
    return max(0, int(round(value)))
