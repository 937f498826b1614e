"""Large-scale scenario harness over the simulated network.

``repro.sim`` turns the in-process deployment into an experiment driver:
named scenarios (baseline, churn, stragglers, failures, flash crowds,
geo-distribution) spin up a deployment on a
:class:`~repro.net.simulated.SimulatedNetwork`, run protocol rounds, and
report per-round latency, bandwidth, and failure statistics.

Run ``python -m repro.sim list`` to enumerate scenarios and experiments, or::

    from repro.sim import run_scenario
    result = run_scenario("baseline", num_clients=500)

Experiments (one scenario over declared axes) are
:mod:`repro.sim.experiments`, run by :func:`repro.sim.experiment.run_experiment`
or ``python -m repro.sim sweep NAME``; this package does not import them.
"""

from repro.sim.scenario import (
    Fault,
    RoundStats,
    Scenario,
    ScenarioResult,
    ScenarioSpec,
    with_overrides,
)
from repro.sim.scenarios import SCENARIOS, make_scenario, run_scenario, scenario_names

__all__ = [
    "Fault",
    "RoundStats",
    "SCENARIOS",
    "Scenario",
    "ScenarioResult",
    "ScenarioSpec",
    "make_scenario",
    "run_scenario",
    "scenario_names",
    "with_overrides",
]
