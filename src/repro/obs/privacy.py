"""Privacy observability: the live (epsilon, delta) ledger and the passive audit.

Alpenhorn's guarantee is about what the *observable* metadata leaks -- the noisy mailbox
counts published every round (§6, §8.1) -- yet time/bytes observability says
nothing about it.  This module connects :mod:`repro.analysis.dp` to what a
run actually emits:

* :class:`PrivacyLedger` -- one record per mix round (protocol, Laplace
  scale ``b``, the noise each server actually drew, the published
  mailbox-count vector), composed live into a cumulative (epsilon, delta)
  spend per protocol through :class:`~repro.analysis.dp.PrivacyAccountant`
  (advanced composition).  The cumulative epsilon after ``k`` rounds at
  scale ``b`` equals ``analysis.dp.privacy_cost(k, b)`` to the last float.
* :func:`run_report` -- a scenario run's ``privacy`` section: the ledger the
  driver fed one row per round, per-client action budgets (the §8.1
  add-friend/dialing budgets, from the sessions' EventBus-fed counters), the
  noise-traffic share, per-shard expected noise, and the check of the
  configured noise against a stated ``ScenarioSpec.privacy_budget``
  (:func:`budget_consistency`; warn-and-record, never hard-fail: adversarial
  scenarios deliberately under-noise).
* :func:`passive_statistic` -- what a passive adversary sees of a finished
  run: the total of one round's published noisy mailbox counts, read from
  the record's ``RoundStats``.  The paired-scenario audit harness
  (:mod:`repro.sim.privacy_sweep`) computes it over "target acts" vs
  "target idle" trials and compares the empirical distinguishing advantage
  against the analytic bound ``(e^eps - 1)/(e^eps + 1)``.
* :func:`validate_ledger` / :func:`validate_audit` -- the privacy invariants
  of a record (epsilon monotone, noise nonnegative, cumulative epsilon
  re-derivable, empirical advantage within the bound), run by ``python -m
  repro.obs validate``.

Per-shard noise is reported as the *expected* uniform split of each round's
total noise over the shard's mailbox range -- deliberately: the coordinator
observes noise totals and published counts, never which mailbox got which
server's noise (that split staying server-private is part of the design).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.analysis.dp import (
    ACTION_SENSITIVITY,
    PrivacyAccountant,
    PrivacyCost,
    laplace_scale_for_budget,
    noise_floor_delta,
    per_round_epsilon,
    privacy_cost,
)

__all__ = [
    "PAPER_ACTION_BUDGETS",
    "UNPROTECTED",
    "PrivacyLedger",
    "PrivacyRoundRecord",
    "budget_consistency",
    "passive_statistic",
    "run_report",
    "validate_audit",
    "validate_ledger",
]

#: What the ledger says of a round run at ``b = 0`` (§8: "b = 0 to reduce
#: variance"): deterministic noise protects nothing, so epsilon is infinite.
UNPROTECTED = "variance-free evaluation setting (b = 0): no Laplace noise, epsilon is infinite"

#: The §8.1 lifetime action budgets: 900 add-friend requests and 26,000
#: calls stay under (epsilon = ln 2, delta = 1e-4) at the paper's scales.
PAPER_ACTION_BUDGETS = {"add-friend": 900, "dialing": 26_000}


@dataclass
class PrivacyRoundRecord:
    """One ledger row: what one mix round revealed and what it cost."""

    protocol: str
    round_number: int
    #: The Laplace scale the servers used this round (from the noise config).
    laplace_scale: float
    noise_mu: float
    #: Noise envelopes each server actually drew (clamped Laplace samples).
    per_server_noise: list[int]
    noise_added: int
    #: The published observation: messages per mailbox, noise included.
    mailbox_counts: list[int]
    delivered_real: int
    #: This round's epsilon (sensitivity / b) and the cumulative spend for
    #: the protocol after composing this round in.
    epsilon_round: float
    epsilon_cumulative: float
    delta: float

    @property
    def observed_messages(self) -> int:
        return sum(self.mailbox_counts)

    def to_dict(self) -> dict:
        flag = {"unprotected": UNPROTECTED} if self.laplace_scale == 0 else {}
        return {
            **flag,
            "protocol": self.protocol,
            "round": self.round_number,
            "laplace_scale": self.laplace_scale,
            "noise_mu": self.noise_mu,
            "per_server_noise": list(self.per_server_noise),
            "noise_added": self.noise_added,
            "mailboxes": len(self.mailbox_counts),
            "observed_messages": self.observed_messages,
            "delivered_real": self.delivered_real,
            "epsilon_round": self.epsilon_round,
            "epsilon_cumulative": self.epsilon_cumulative,
        }


class PrivacyLedger:
    """Per-round privacy records composed into a live (epsilon, delta) spend.

    One :class:`~repro.analysis.dp.PrivacyAccountant` per protocol: the two
    protocols publish independent observations against independent budgets
    (§8.1 quotes separate add-friend and dialing parameters).
    """

    def __init__(self, delta: float = 1e-4, sensitivity: float = ACTION_SENSITIVITY) -> None:
        self.delta = delta
        self.sensitivity = sensitivity
        self.records: list[PrivacyRoundRecord] = []
        self._accountants: dict[str, PrivacyAccountant] = {}
        #: protocol -> per shard: expected noise, published messages (sharded
        #: runs only).
        self._shard_noise: dict[str, list[float]] = {}
        self._shard_observed: dict[str, list[int]] = {}

    def accountant(self, protocol: str) -> PrivacyAccountant:
        accountant = self._accountants.get(protocol)
        if accountant is None:
            accountant = self._accountants[protocol] = PrivacyAccountant(
                delta=self.delta, sensitivity=self.sensitivity
            )
        return accountant

    def record_round(
        self,
        protocol: str,
        round_number: int,
        laplace_scale: float,
        noise_mu: float,
        per_server_noise: list[int],
        mailbox_counts: list[int],
        delivered_real: int = 0,
        shard_ranges=(),
    ) -> PrivacyRoundRecord:
        """Account one published round; returns the ledger row appended.

        ``shard_ranges`` is the round's shard directory ranges on a sharded
        run: the round's noise is then also split per shard, as the *expected*
        uniform share of each shard's mailbox range (the exact split stays
        server-private by design), beside the observed per-shard counts.
        """
        if any(noise < 0 for noise in per_server_noise):
            raise ValueError("per-server noise counts cannot be negative")
        spend = self.accountant(protocol).record(laplace_scale)
        record = PrivacyRoundRecord(
            protocol=protocol,
            round_number=round_number,
            laplace_scale=laplace_scale,
            noise_mu=noise_mu,
            per_server_noise=list(per_server_noise),
            noise_added=sum(per_server_noise),
            mailbox_counts=list(mailbox_counts),
            delivered_real=delivered_real,
            epsilon_round=per_round_epsilon(laplace_scale, self.sensitivity),
            epsilon_cumulative=spend.epsilon,
            delta=spend.delta,
        )
        self.records.append(record)
        if shard_ranges:
            noise = self._shard_noise.setdefault(protocol, [0.0] * len(shard_ranges))
            observed = self._shard_observed.setdefault(protocol, [0] * len(shard_ranges))
            total_mailboxes = max(1, len(mailbox_counts))
            for index, shard in enumerate(shard_ranges):
                observed[index] += sum(mailbox_counts[shard.lo : shard.hi])
                noise[index] += record.noise_added * shard.width() / total_mailboxes
        return record

    def expected_noise_by_shard(self, protocol: str) -> list[float]:
        return list(self._shard_noise.get(protocol, []))

    def per_shard_report(self) -> dict:
        return {
            protocol: {
                "expected_noise_by_shard": [round(x, 2) for x in noise],
                "observed_by_shard": list(self._shard_observed[protocol]),
            }
            for protocol, noise in sorted(self._shard_noise.items())
        }

    def spend(self, protocol: str) -> PrivacyCost:
        return self.accountant(protocol).spend()

    def records_for(self, protocol: str) -> list[PrivacyRoundRecord]:
        return [r for r in self.records if r.protocol == protocol]

    def protocol_summary(self) -> dict[str, dict]:
        """Per-protocol roll-up: scale, rounds, epsilon trajectory, noise."""
        summary: dict[str, dict] = {}
        for protocol in sorted({r.protocol for r in self.records}):
            records = self.records_for(protocol)
            spend = self.spend(protocol)
            per_server: list[int] = []
            for record in records:
                if len(record.per_server_noise) > len(per_server):
                    per_server.extend([0] * (len(record.per_server_noise) - len(per_server)))
                for index, noise in enumerate(record.per_server_noise):
                    per_server[index] += noise
            scales = sorted({r.laplace_scale for r in records})
            mu = records[-1].noise_mu
            flag = {"unprotected": UNPROTECTED} if scales[0] == 0 else {}
            summary[protocol] = {
                **flag,
                "rounds": len(records),
                "laplace_scale": scales[0] if len(scales) == 1 else min(scales),
                "laplace_scales": scales,
                "noise_mu": mu,
                "epsilon": spend.epsilon,
                "delta": spend.delta,
                "epsilon_round": records[-1].epsilon_round,
                "epsilon_series": [r.epsilon_cumulative for r in records],
                "noise_total": sum(r.noise_added for r in records),
                "per_server_noise": per_server,
                "observed_messages": sum(r.observed_messages for r in records),
                "delivered_real": sum(r.delivered_real for r in records),
                "noise_floor_delta": noise_floor_delta(mu, records[-1].laplace_scale),
            }
        return summary

    def report(self) -> dict:
        return {
            "delta": self.delta,
            "sensitivity": self.sensitivity,
            "protocols": self.protocol_summary(),
            "rounds": [r.to_dict() for r in self.records],
        }


def budget_consistency(
    protected_actions: int,
    configured_b: float,
    configured_mu: float,
    epsilon: float = math.log(2),
    delta: float = 1e-4,
) -> dict:
    """Does the configured noise honor the stated action budget?

    Warn-and-record semantics: the returned dict states the prescribed
    scale, the configured one, and whether the configuration is at least as
    noisy -- callers log a warning on mismatch but never fail, because
    adversarial scenarios under-noise on purpose (and want that recorded).
    """
    prescribed_b = laplace_scale_for_budget(protected_actions, epsilon, delta)
    consistent = configured_b >= prescribed_b * (1 - 1e-9)
    achieved = privacy_cost(protected_actions, configured_b, delta).epsilon
    return {
        "protected_actions": protected_actions,
        "target_epsilon": epsilon,
        "target_delta": delta,
        "prescribed_b": prescribed_b,
        "configured_b": configured_b,
        "configured_mu": configured_mu,
        "achieved_epsilon": achieved,
        "consistent": consistent,
        "under_noised_factor": round(prescribed_b / configured_b, 6) if configured_b > 0 else None,
    }


def action_budget_report(sessions, budgets: dict[str, int]) -> dict:
    """Per-client action spend vs the §8.1 lifetime budgets."""
    counts_by_protocol: dict[str, list[int]] = {}
    for session in sessions:
        for protocol, count in session.action_counts.items():
            counts_by_protocol.setdefault(protocol, []).append(count)
    report: dict[str, dict] = {}
    for protocol, budget in sorted(budgets.items()):
        counts = counts_by_protocol.get(protocol, [])
        spent_max = max(counts, default=0)
        report[protocol] = {
            "budget": budget,
            "actions_total": sum(counts),
            "actions_max_per_client": spent_max,
            "budget_remaining_min": budget - spent_max,
            "clients_over_budget": sum(1 for c in counts if c > budget),
        }
    return report


def noise_traffic_report(protocols: dict, bytes_sent: int) -> dict:
    """Noise volume as a share of delivered messages and wire bytes.

    The byte share is an estimate: noise envelopes are indistinguishable
    on the wire (by design), so their bytes are attributed as
    ``noise count x fixed body length`` per protocol -- a lower bound
    that ignores per-hop onion overhead.
    """
    from repro.core.addfriend import addfriend_body_length
    from repro.core.config import ADDFRIEND_REQUEST_SIZE
    from repro.core.dialtoken import DIAL_TOKEN_SIZE

    body_lengths = {
        "dialing": DIAL_TOKEN_SIZE,
        "add-friend": addfriend_body_length(ADDFRIEND_REQUEST_SIZE),
    }
    noise_total = sum(summary["noise_total"] for summary in protocols.values())
    real_total = sum(summary["delivered_real"] for summary in protocols.values())
    noise_bytes = sum(
        summary["noise_total"] * body_lengths.get(protocol, 0)
        for protocol, summary in protocols.items()
    )
    delivered = noise_total + real_total
    return {
        "noise_envelopes": noise_total,
        "real_envelopes": real_total,
        "noise_fraction_of_delivered": round(noise_total / delivered, 6) if delivered else 0.0,
        "noise_bytes_estimate": noise_bytes,
        "total_bytes_sent": bytes_sent,
        "noise_share_of_bytes": round(noise_bytes / bytes_sent, 6) if bytes_sent else 0.0,
    }


def run_report(
    ledger: PrivacyLedger,
    sessions,
    bytes_sent: int,
    budget_check: dict | None = None,
) -> dict:
    """A scenario run's ``privacy`` section, from the ledger its driver fed."""
    report = ledger.report()
    report["budget_check"] = budget_check
    report["action_budgets"] = action_budget_report(sessions, PAPER_ACTION_BUDGETS)
    report["noise_traffic"] = noise_traffic_report(report["protocols"], bytes_sent)
    report["per_shard"] = ledger.per_shard_report()
    return report


def passive_statistic(rounds, protocol: str = "add-friend", occurrence: int = 0) -> float:
    """The passive adversary's test statistic (§6, §8.1): the total of the
    published noisy mailbox counts in the ``occurrence``-th round of
    ``protocol`` among a finished run's ``rounds``.

    Mailbox sizes are public (any client downloads mailboxes) and that is
    all this reads; an aborted round publishes nothing, so it counts as an
    occurrence observing 0.  The audit harness runs paired trials ("target
    acts" vs "target idle") and feeds this to a threshold distinguisher.
    """
    seen = [stats for stats in rounds if stats.protocol == protocol]
    if occurrence >= len(seen):
        raise ValueError(
            f"observer saw {len(seen)} {protocol} round(s), "
            f"occurrence {occurrence} never happened"
        )
    return float(sum(seen[occurrence].mailbox_counts))


# --------------------------------------------------------------------------- #
# Report validation (python -m repro.obs validate)
# --------------------------------------------------------------------------- #
def validate_ledger(ledger: dict) -> list[str]:
    """Invariant checks over a ledger report (a run record's ``privacy``
    section, the privacy experiment's ``ledger``); returns problems.

    Checks: cumulative epsilon is monotone nondecreasing and re-derivable
    from :func:`~repro.analysis.dp.privacy_cost`, an infinite epsilon appears
    only where the recorded scale is ``b = 0`` (and is flagged there), and
    every noise count is nonnegative.
    """
    problems: list[str] = []
    delta = ledger.get("delta")
    if not isinstance(delta, (int, float)) or not 0 < delta < 1:
        return [f"ledger delta must be in (0, 1), got {delta!r}"]
    sensitivity = ledger.get("sensitivity", ACTION_SENSITIVITY)

    for protocol, summary in (ledger.get("protocols") or {}).items():
        prefix = f"ledger[{protocol}]"
        series = summary.get("epsilon_series", [])
        if any(b < a - 1e-12 for a, b in zip(series, series[1:])):
            problems.append(f"{prefix}: epsilon series is not monotone nondecreasing")
        if summary.get("noise_total", 0) < 0:
            problems.append(f"{prefix}: negative noise total")
        if any(noise < 0 for noise in summary.get("per_server_noise", [])):
            problems.append(f"{prefix}: negative per-server noise")
        rounds = summary.get("rounds", 0)
        scales = summary.get("laplace_scales", [summary.get("laplace_scale")])
        epsilon = summary.get("epsilon", 0.0)
        if rounds and len(scales) == 1 and scales[0]:
            expected = privacy_cost(rounds, scales[0], delta, sensitivity).epsilon
            if not math.isclose(epsilon, expected, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(
                    f"{prefix}: cumulative epsilon {epsilon} does not match "
                    f"privacy_cost({rounds}, {scales[0]}) = {expected}"
                )
        if series and not math.isclose(epsilon, series[-1], rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"{prefix}: epsilon {epsilon} != last series entry {series[-1]}")
        # An unbounded spend is a b = 0 run saying so, and nothing else.
        if (epsilon == math.inf) != (0 in scales) or (0 in scales) != ("unprotected" in summary):
            problems.append(
                f"{prefix}: epsilon {epsilon} at scales {scales}: infinite epsilon, a round at "
                "b = 0 and the 'unprotected' flag go together"
            )

    for row in ledger.get("rounds", []):
        unprotected = row.get("laplace_scale") == 0
        if (row.get("epsilon_round") == math.inf) != unprotected or unprotected != (
            "unprotected" in row
        ):
            problems.append(
                f"ledger round {row.get('protocol')}/{row.get('round')}: infinite epsilon, "
                "b = 0 and the 'unprotected' flag go together"
            )
        if row.get("noise_added", 0) < 0 or any(
            noise < 0 for noise in row.get("per_server_noise", [])
        ):
            problems.append(
                f"ledger round {row.get('protocol')}/{row.get('round')}: negative noise"
            )
        if row.get("observed_messages", 0) < 0:
            problems.append(
                f"ledger round {row.get('protocol')}/{row.get('round')}: "
                "negative observed message count"
            )
    return problems


def validate_audit(audit: dict) -> list[str]:
    """Every audit point's empirical advantage respects the analytic bound,
    and ``all_within_bound`` says what the points say; returns problems."""
    problems: list[str] = []
    points = audit.get("points", [])
    if not isinstance(points, list):
        problems.append("audit.points must be a list")
        points = []
    within = True
    for point in points:
        label = f"audit point noise_scale={point.get('noise_scale')}"
        bound = point.get("advantage_bound")
        advantage = point.get("advantage")
        if not isinstance(bound, (int, float)) or not 0 <= bound <= 1 + 1e-9:
            problems.append(f"{label}: advantage bound {bound!r} outside [0, 1]")
            continue
        if not isinstance(advantage, (int, float)) or advantage < 0:
            problems.append(f"{label}: bad empirical advantage {advantage!r}")
            continue
        if advantage > bound + 1e-9:
            within = False
            problems.append(
                f"{label}: empirical advantage {advantage:.4f} exceeds "
                f"the analytic bound {bound:.4f}"
            )
    if points and bool(audit.get("all_within_bound")) != within:
        problems.append(
            f"audit.all_within_bound says {audit.get('all_within_bound')} "
            f"but the points say {within}"
        )
    return problems

