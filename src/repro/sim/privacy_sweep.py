"""The passive-adversary audit: paired distinguishing trials vs the DP bound.

ROADMAP item 5(b)'s measurement half.  The experiment instantiates §6's
threat model directly: a passive observer downloads the published noisy
mailbox counts (envelopes are fixed-size and onion-encrypted, so the counts
are what the traffic shows), then must decide whether a target client
acted (queued one real friend request) or idled (submitted only cover
traffic).  Differential privacy promises its advantage over guessing is at
most ``(e^eps - 1)/(e^eps + 1)`` for the per-observation epsilon -- plus
the clamp-to-zero noise floor delta, since the servers clamp negative
Laplace draws.

The harness runs many paired trials of the ``passive_observer`` /
``passive_observer_idle`` scenarios (fresh seeds per trial, so the noise
draws are independent samples of each arm's observation distribution),
fits a threshold distinguisher on a calibration half, and evaluates it on
the held-out half.  The *reported* empirical advantage is a Hoeffding
lower confidence bound on the distinguisher's true advantage: what the
experiment actually certifies.  At simulation-scale trial counts this
lower-bounds the adversary's power (see README), which is exactly the
direction that makes ``advantage <= bound`` a sound check -- an empirical
value above the bound is a real violation, never sampling noise at the
95% level.

The ``privacy`` experiment (:mod:`repro.sim.experiments`) runs
:func:`run_privacy_audit` over a noise-scale grid (including a deliberately
under-noised point where the bound visibly degrades toward 1) and writes the
empirical-vs-bound table into ``BENCH_privacy.json``.
"""

from __future__ import annotations

import math

from repro.analysis.dp import (
    distinguishing_advantage,
    noise_floor_delta,
    per_round_epsilon,
)
from repro.obs.privacy import passive_statistic
from repro.sim.scenarios import make_scenario

#: Two-sided confidence level for the Hoeffding certification.
CONFIDENCE_ALPHA = 0.05


def run_observer_trial(
    acts: bool, noise_b: float, trial: int, **overrides
) -> float:
    """One arm of one paired trial; returns the observer's test statistic.

    The arm is pinned here, whatever ``overrides`` say: the target ``user0``
    queues one request to ``user1`` (acts) or nothing (idle).
    """
    name = "passive_observer" if acts else "passive_observer_idle"
    arm = "acts" if acts else "idle"
    scenario = make_scenario(
        name,
        seed=f"privacy-audit/{noise_b}/{trial}/{arm}",
        noise_b=noise_b,
        **{**overrides, "friend_pairs": 1 if acts else 0},
    )
    return passive_statistic(scenario.run().rounds, "add-friend", 0)


def _best_threshold(acts: list[float], idle: list[float]) -> tuple[float, int]:
    """The (threshold, direction) maximizing advantage on the calibration set.

    direction +1 guesses "acts" when the statistic is >= threshold, -1 when
    it is below (the distinguisher must not assume which way acting shifts
    the statistic).
    """
    values = sorted(set(acts) | set(idle))
    best = (values[0] if values else 0.0, 1)
    best_adv = -1.0
    candidates = [values[0] - 0.5] + [
        (a + b) / 2 for a, b in zip(values, values[1:])
    ] + [values[-1] + 0.5]
    for threshold in candidates:
        p_acts = sum(1 for v in acts if v >= threshold) / len(acts)
        p_idle = sum(1 for v in idle if v >= threshold) / len(idle)
        for direction in (1, -1):
            adv = direction * (p_acts - p_idle)
            if adv > best_adv:
                best_adv = adv
                best = (threshold, direction)
    return best


def _holdout_advantage(
    acts: list[float], idle: list[float], threshold: float, direction: int
) -> float:
    p_acts = sum(1 for v in acts if v >= threshold) / len(acts)
    p_idle = sum(1 for v in idle if v >= threshold) / len(idle)
    return max(0.0, direction * (p_acts - p_idle))


def hoeffding_slack(n_eval: int, alpha: float = CONFIDENCE_ALPHA) -> float:
    """One arm's (1 - alpha) two-sided deviation bound for an empirical rate;
    the advantage estimate subtracts two of these (one per arm)."""
    return math.sqrt(math.log(2 / alpha) / (2 * n_eval))


def run_privacy_audit(
    noise_b: float,
    trials: int = 24,
    noise_mu: float = 4.0,
    sensitivity_observed: float = 2.0,
    **overrides,
) -> dict:
    """Paired trials at one noise scale; returns the audit point.

    ``trials`` is per arm; the first half calibrates the threshold, the
    second half is the held-out evaluation the reported advantage comes
    from.  The analytic bound is the *single-observation* bound (the target
    acts in exactly one round): ``tanh(eps/2)`` for ``eps =
    sensitivity / b``, plus the clamp noise floor ``exp(-mu/b)/2`` per
    honest-server draw.
    """
    if trials < 4:
        raise ValueError("need at least 4 paired trials (2 calibrate + 2 evaluate)")
    acts = [run_observer_trial(True, noise_b, t, noise_mu=noise_mu, **overrides) for t in range(trials)]
    idle = [run_observer_trial(False, noise_b, t, noise_mu=noise_mu, **overrides) for t in range(trials)]

    split = trials // 2
    threshold, direction = _best_threshold(acts[:split], idle[:split])
    n_eval = trials - split
    advantage_raw = _holdout_advantage(acts[split:], idle[split:], threshold, direction)
    advantage_certified = max(0.0, advantage_raw - 2 * hoeffding_slack(n_eval))

    epsilon = per_round_epsilon(noise_b, sensitivity_observed)
    floor = noise_floor_delta(noise_mu, noise_b)
    bound = min(1.0, distinguishing_advantage(epsilon) + floor)
    return {
        "noise_scale": noise_b,
        "noise_mu": noise_mu,
        "trials_per_arm": trials,
        "eval_trials_per_arm": n_eval,
        "epsilon": epsilon,
        "noise_floor_delta": floor,
        "advantage_bound": bound,
        "advantage": advantage_certified,
        "advantage_raw": advantage_raw,
        "hoeffding_slack": 2 * hoeffding_slack(n_eval),
        "threshold": threshold,
        "direction": direction,
        "mean_statistic_acts": sum(acts) / len(acts),
        "mean_statistic_idle": sum(idle) / len(idle),
        "within_bound": advantage_certified <= bound + 1e-9,
    }
