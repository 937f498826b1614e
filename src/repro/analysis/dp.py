"""Differential-privacy accounting for the mixnet noise (§6 and §8.1).

Alpenhorn inherits Vuvuzela's privacy formulation: the adversary observes
(noisy) mailbox counts every round, each user action (one add-friend request
or one call) changes the observed counts by a bounded amount, and the
Laplace noise added by the honest server makes any single round's
observation epsilon_1-differentially private with ``epsilon_1 = delta_f / b``.
Protecting a *budget* of k actions over a user's lifetime composes those
per-round guarantees; using the advanced composition theorem with slack
``delta`` gives

    epsilon_total ~= sqrt(2 k ln(1/delta)) * epsilon_1 + k * epsilon_1 * (e^{epsilon_1} - 1)

This module computes both directions: the privacy cost of a given noise
scale, and the noise scale needed for a target budget.  With sensitivity 2
(an action adds a request to one mailbox and removes the corresponding cover
message), a target of (epsilon = ln 2, delta = 1e-4) for 900 add-friend
requests requires b ~= 406 and for 26,000 calls requires b ~= 2,183 --
the parameters quoted in §8.1 of the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.mixnet import noise

# The count sensitivity of one user action on the observable mailbox counts.
ACTION_SENSITIVITY = 2.0


@dataclass(frozen=True)
class PrivacyCost:
    """The (epsilon, delta) cost of protecting a number of actions."""

    epsilon: float
    delta: float
    actions: int
    laplace_scale: float


def per_round_epsilon(laplace_scale: float, sensitivity: float = ACTION_SENSITIVITY) -> float:
    """The epsilon of a single round's Laplace-noised observation.

    ``b = 0`` is the paper's variance-free evaluation setting (§8: "b = 0 to
    reduce variance"): every server adds exactly ``mu`` messages, which hides
    nothing, so the round is unprotected -- epsilon is infinite.
    """
    if laplace_scale < 0:
        raise ValueError("Laplace scale must be non-negative")
    if laplace_scale == 0:
        return math.inf
    return sensitivity / laplace_scale


def privacy_cost(
    actions: int,
    laplace_scale: float,
    delta: float = 1e-4,
    sensitivity: float = ACTION_SENSITIVITY,
) -> PrivacyCost:
    """Total (epsilon, delta) for a lifetime budget of ``actions`` actions."""
    if actions <= 0:
        raise ValueError("actions must be positive")
    eps1 = per_round_epsilon(laplace_scale, sensitivity)
    epsilon = math.sqrt(2 * actions * math.log(1 / delta)) * eps1 + actions * eps1 * (
        math.exp(eps1) - 1
    )
    return PrivacyCost(epsilon=epsilon, delta=delta, actions=actions, laplace_scale=laplace_scale)


def laplace_scale_for_budget(
    actions: int,
    epsilon: float = math.log(2),
    delta: float = 1e-4,
    sensitivity: float = ACTION_SENSITIVITY,
) -> float:
    """The noise scale b needed so ``actions`` actions cost at most (eps, delta).

    Solved by binary search over the (monotone decreasing in b) total epsilon.
    """
    if actions <= 0:
        raise ValueError("actions must be positive")
    low, high = 1e-6, 1e9
    for _ in range(200):
        mid = (low + high) / 2
        if privacy_cost(actions, mid, delta, sensitivity).epsilon > epsilon:
            low = mid
        else:
            high = mid
    return high


def paper_noise_parameters() -> dict[str, dict[str, float]]:
    """The §8.1 operating points, re-derived from the privacy budgets.

    Returns, for each protocol, the paper's quoted (mu, b) and the b this
    accounting derives for the same (epsilon, delta, actions) budget.
    """
    addfriend_b = laplace_scale_for_budget(actions=900)
    dialing_b = laplace_scale_for_budget(actions=26_000)
    return {
        "add-friend": {
            "paper_mu": noise.DEFAULT_ADDFRIEND_NOISE_MU,
            "paper_b": noise.DEFAULT_ADDFRIEND_NOISE_B,
            "derived_b": addfriend_b,
            "protected_actions": 900,
        },
        "dialing": {
            "paper_mu": noise.DEFAULT_DIALING_NOISE_MU,
            "paper_b": noise.DEFAULT_DIALING_NOISE_B,
            "derived_b": dialing_b,
            "protected_actions": 26_000,
        },
    }


def distinguishing_advantage(epsilon: float) -> float:
    """The analytic advantage bound for a passive observer.

    An adversary distinguishing two neighboring inputs through an
    ``epsilon``-DP observation has advantage (total variation between the
    two output distributions) at most ``(e^eps - 1) / (e^eps + 1)``.  This
    is the bound the passive-adversary audit harness compares its empirical
    distinguishing advantage against.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    if epsilon > 700:  # exp overflow; the bound saturates at 1 long before
        return 1.0
    return (math.exp(epsilon) - 1.0) / (math.exp(epsilon) + 1.0)


class PrivacyAccountant:
    """Incremental advanced-composition accounting over observed rounds.

    The per-round ledger feeds one observation at a time (a round, with the
    Laplace scale the servers actually used); the accountant keeps the
    running (epsilon, delta) spend.  When every round used the same scale
    the cumulative epsilon is computed through :func:`privacy_cost` itself,
    so a live ledger and an offline ``privacy_cost(rounds, b)`` call agree
    to the last float.  With heterogeneous scales it falls back to the
    generalized advanced-composition bound

        epsilon = sqrt(2 ln(1/delta) * sum(eps_i^2)) + sum(eps_i * (e^{eps_i} - 1))

    which reduces to the homogeneous formula when all ``eps_i`` are equal.
    """

    def __init__(self, delta: float = 1e-4, sensitivity: float = ACTION_SENSITIVITY) -> None:
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        self.delta = delta
        self.sensitivity = sensitivity
        #: Observed-round counts keyed by the Laplace scale they used.
        self._rounds_by_scale: dict[float, int] = {}

    @property
    def actions(self) -> int:
        return sum(self._rounds_by_scale.values())

    @property
    def scales(self) -> dict[float, int]:
        return dict(self._rounds_by_scale)

    def record(self, laplace_scale: float, actions: int = 1) -> PrivacyCost:
        """Account ``actions`` observations at ``laplace_scale``; returns the
        cumulative spend after recording."""
        if actions <= 0:
            raise ValueError("actions must be positive")
        per_round_epsilon(laplace_scale, self.sensitivity)  # validates the scale
        self._rounds_by_scale[laplace_scale] = (
            self._rounds_by_scale.get(laplace_scale, 0) + actions
        )
        return self.spend()

    def spend(self) -> PrivacyCost:
        """The cumulative (epsilon, delta) spend over everything recorded."""
        if not self._rounds_by_scale:
            return PrivacyCost(epsilon=0.0, delta=self.delta, actions=0, laplace_scale=0.0)
        if len(self._rounds_by_scale) == 1:
            ((scale, count),) = self._rounds_by_scale.items()
            return privacy_cost(count, scale, self.delta, self.sensitivity)
        sum_sq = 0.0
        sum_linear = 0.0
        for scale, count in self._rounds_by_scale.items():
            eps1 = per_round_epsilon(scale, self.sensitivity)
            sum_sq += count * eps1 * eps1
            sum_linear += count * eps1 * (math.exp(eps1) - 1)
        epsilon = math.sqrt(2 * math.log(1 / self.delta) * sum_sq) + sum_linear
        return PrivacyCost(
            epsilon=epsilon,
            delta=self.delta,
            actions=self.actions,
            laplace_scale=min(self._rounds_by_scale),
        )


def noise_floor_delta(mu: float, b: float) -> float:
    """Probability that a server's (clamped) noise draw is zero or negative.

    Clamping negative draws to zero is what introduces the delta term in
    Vuvuzela-style analyses: if the noise bottoms out, the observation may
    leak more than epsilon.  For Laplace(mu, b) this is ``exp(-mu/b) / 2``.
    """
    if b <= 0:
        return 0.0 if mu > 0 else 1.0
    return 0.5 * math.exp(-mu / b)
