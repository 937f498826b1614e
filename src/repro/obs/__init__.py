"""repro.obs: the observability layer -- one run record and its views.

A scenario run is one self-describing record (``ScenarioResult`` /
``RoundStats``, written by ``run --json`` inside the ``BENCH_*.json``
envelope); everything here either fills it or renders it:

* :mod:`repro.obs.trace` -- per-stage round tracing.  A :class:`Tracer`
  records spans over *two* clocks (the deployment's simulated clock and the
  host's wall clock), folds them into the stage x category self-time report
  and per-op crypto cost of the record's ``trace`` section, and exports them
  as JSONL plus Chrome/Perfetto ``trace_event`` JSON, so a scenario round
  renders as a flame chart.
* :mod:`repro.obs.distributed` -- the cross-process pieces for the real
  runtimes: the trace-context trailer RPCs carry on the wire, ping-based
  clock alignment for spawned workers, the worker telemetry payload (spans
  and RSS), and per-endpoint runtime attribution (network / queue / handler
  / crypto) from the spans the workers ship.
* :mod:`repro.obs.privacy` -- the (epsilon, delta) ledger the scenario driver
  feeds one row per round, the record's ``privacy`` section, and the passive
  observer of the audit.
* :mod:`repro.obs.record` -- the record read back: ``validate`` (one schema,
  privacy invariants, trace coverage) and ``explain`` (the run's printed
  summary, offline).
* :mod:`repro.obs.logging` and :mod:`repro.obs.dashboard` -- the live views:
  a structured stderr log stream and a stdlib-only dashboard (``http.server``
  + Server-Sent Events, run/pause/step), both functions of the
  ``RoundStats``/``ScenarioResult`` handed over ``Scenario.monitors``.

The tracer follows the crypto engine's activation pattern: one process-wide
active tracer (:func:`active_tracer`, ``None`` when tracing is off).  No
protocol tier calls it: a ``Deployment`` built under a tracer has its public
seams wrapped in spans from the outside by :mod:`repro.obs.instrument`, and
one built without one is never touched, so untraced hot paths carry no
tracing code at all.  ``python -m repro.sim run SCENARIO --trace PATH``
enables it for a scenario run; ``python -m repro.obs validate PATH...``
checks the record and the emitted trace (CI does both).
"""

from repro.obs.distributed import (
    TraceContext,
    WorkerTelemetry,
    estimate_clock_offset,
    runtime_attribution,
)
from repro.obs.logging import configure_logging, configured_level, get_logger
from repro.obs.privacy import PassiveObserver, PrivacyLedger
from repro.obs.record import render, validate_record
from repro.obs.trace import (
    Span,
    Tracer,
    active_tracer,
    propagation_coverage,
    set_active_tracer,
    validate_trace_events,
)

__all__ = [
    "PassiveObserver",
    "PrivacyLedger",
    "Span",
    "TraceContext",
    "Tracer",
    "WorkerTelemetry",
    "active_tracer",
    "configure_logging",
    "configured_level",
    "estimate_clock_offset",
    "get_logger",
    "propagation_coverage",
    "render",
    "runtime_attribution",
    "set_active_tracer",
    "validate_record",
    "validate_trace_events",
]
