"""The experiment engine: a sweep is a declaration, this module runs it.

Every result in section 8 of the paper is the same system run over one or two
axes.  An :class:`Experiment` says so as data: a default scenario and a tuple
of :class:`Section` s, each an ordered set of :class:`Axis` values, a fixed
workload, a per-point seed template, a reference point and the
:class:`Column` s to report.  :func:`run_experiment` is the one loop --
resolve the axes, run every point, compare each against its reference,
summarise, check -- and :func:`emit_record` the one writer: every experiment
lands in ``BENCH_<name>.json`` as the same envelope (``name``, ``schema``,
``seed``, resolved ``axes``, ``environment``, ``failed_checks``, ``data``), so
two runs can be diffed without knowing which experiment produced them.

The declarations themselves live in :mod:`repro.sim.experiments`;
``python -m repro.sim sweep NAME`` is the CLI.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.obs.record import format_table, write_json_report
from repro.errors import ConfigurationError
from repro.sim.scenario import CONFIG_FIELDS, SPEC_FIELDS
from repro.sim.scenarios import run_scenario


@dataclass(frozen=True)
class Axis:
    """One swept dimension: a spec or config field, or a derived axis."""

    name: str
    values: tuple
    #: Derived axis (``name`` is not a spec field): value -> the overrides it
    #: stands for, e.g. ``latency_ms -> {"client_link": LinkSpec.of(latency_ms=ms, ...)}``.
    apply: Callable[[Any], dict] | None = None
    #: Derived axis: CLI text -> value (a field axis parses by its field type).
    parse: Callable[[str], Any] = float
    #: value -> run it (True) or skip and record it (False); raises
    #: ConfigurationError for a value that could never run.
    admit: Callable[[Any], bool] | None = None


@dataclass(frozen=True)
class Column:
    """One reported value of a point: ``value(result, reference)``, where
    ``reference`` is the section's reference point's result (None for the
    reference itself and when the grid has none)."""

    key: str
    header: str
    value: Callable[[Any, Any], Any]
    #: A ``str.format`` template or a callable; None always renders as "-".
    fmt: str | Callable[[Any], str] = "{}"

    def render(self, value) -> str:
        if value is None:
            return "-"
        return self.fmt(value) if callable(self.fmt) else self.fmt.format(value)


@dataclass(frozen=True)
class Section:
    """One table of an experiment: axes x a fixed workload -> points."""

    key: str
    title: str
    axes: tuple[Axis, ...] = ()
    columns: tuple[Column, ...] = ()
    #: Overrides the experiment's scenario for this section.
    scenario: str | None = None
    #: Fixed overrides of this section; they win over the caller's.
    workload: dict = field(default_factory=dict)
    #: Per-point seed: a ``str.format`` template (or callable) over the
    #: point's overrides plus ``{seed}``.  None leaves the seed to the caller
    #: (or the scenario).
    seed: str | Callable[[dict], str] | None = None
    #: ``skip(point, axes)`` -> leave this grid cell out.
    skip: Callable[[dict, dict], bool] | None = None
    #: Axis coordinates that turn a point into its reference point.
    reference: dict | None = None
    #: ``run(scenario, **overrides)`` -> a ScenarioResult or a plain dict.
    run: Callable[..., Any] = run_scenario
    #: ``summary(points)`` -> values recorded beside the section's points.
    summary: Callable[[list[dict]], dict] | None = None
    #: ``(message, holds(points, axes))``: a broken one fails the process.
    checks: tuple[tuple[str, Callable[[list[dict], dict], bool]], ...] = ()


@dataclass(frozen=True)
class Experiment:
    """A named set of sections; its record is ``BENCH_<name>.json``."""

    name: str
    scenario: str
    sections: tuple[Section, ...]
    description: str = ""
    #: The ``{seed}`` of the sections' templates unless the caller gives one.
    seed: str | None = None
    #: Overrides applied to every point unless the caller overrides them.
    defaults: dict = field(default_factory=dict)

    def axis(self, name: str) -> Axis | None:
        return next((a for s in self.sections for a in s.axes if a.name == name), None)

    def describe(self) -> list[str]:
        """What ``python -m repro.sim list`` prints for this experiment."""
        lines = [f"{self.name:12s} {self.description} [{self.scenario} -> BENCH_{self.name}.json]"]
        for section in self.sections:
            axes = "  ".join(
                f"{axis.name}={','.join(_text(v) for v in axis.values) or '(off)'}"
                for axis in section.axes
            )
            scenario = f"  [{section.scenario}]" if section.scenario else ""
            lines.append(f"  {section.key:12s} {axes or '(one point)'}{scenario}")
            lines.extend(f"  {'':12s} check: {message}" for message, _ in section.checks)
        return lines


def _plain(value):
    return round(value, 6) if isinstance(value, float) else value


def _text(value) -> str:
    return f"{value:g}" if isinstance(value, float) else str(value)


def _resolve_axes(section: Section, overrides: dict) -> tuple[dict, dict]:
    """The section's axis values under ``overrides``, and what ``admit`` skipped."""
    axes, skipped = {}, {}
    for axis in section.axes:
        values = list(overrides.get(axis.name, axis.values))
        if axis.admit is not None:
            admitted = [v for v in values if axis.admit(v)]
            if len(admitted) < len(values):
                skipped[axis.name] = [v for v in values if v not in admitted]
            values = admitted
        axes[axis.name] = values
    return axes, skipped


def _run_section(experiment, section, axes, base, seed, progress):
    results = {}
    for combo in itertools.product(*axes.values()):
        point = dict(zip(axes, combo))
        if section.skip is not None and section.skip(point, axes):
            continue
        spec = {**experiment.defaults, **base, **section.workload}
        for axis in section.axes:
            value = point[axis.name]
            spec.update(axis.apply(value) if axis.apply else {axis.name: value})
        if section.seed is not None:
            names = {**spec, **point, "seed": seed}
            spec["seed"] = section.seed(names) if callable(section.seed) else section.seed.format(**names)
        if progress:
            at = ", ".join(f"{k}={_text(v)}" for k, v in point.items())
            progress(f"{experiment.name}/{section.key}: {at or section.title}")
        results[combo] = section.run(section.scenario or experiment.scenario, **spec)

    points, rows = [], []
    for combo, result in results.items():
        point = dict(zip(axes, combo))
        reference = None
        if section.reference is not None:
            reference_combo = tuple({**point, **section.reference}.values())
            if reference_combo != combo:
                reference = results.get(reference_combo)
        values = {c.key: _plain(c.value(result, reference)) for c in section.columns}
        row = {**(result if isinstance(result, dict) else {}), **point, **values}
        if hasattr(result, "to_dict"):
            row["result"] = result.to_dict()
        points.append(row)
        rows.append([_text(v) for v in combo] + [c.render(values[c.key]) for c in section.columns])

    record = {
        "title": section.title,
        "headers": list(axes) + [c.header for c in section.columns],
        "rows": rows,
        "points": points,
    }
    if points and section.summary is not None:
        record.update(section.summary(points))
    failed = [message for message, holds in section.checks if not holds(points, axes)]
    return record, failed


def run_experiment(experiment: Experiment, overrides: dict | None = None, progress=None) -> dict:
    """Run every section of ``experiment``; returns its record.

    ``overrides`` maps a name to a *sequence* when the name is an axis of
    some section (it replaces that axis's values wherever the axis appears)
    and to a single value when it is any other spec or config field (it
    applies to every point, under each section's fixed workload).  ``seed``
    fills the sections' seed templates.  ``progress`` is an optional
    ``callable(str)``.  The record's ``failed_checks`` lists every broken
    check; the caller decides what a failure costs (the CLI exits 1).
    """
    overrides = dict(overrides or {})
    axis_names = {axis.name for section in experiment.sections for axis in section.axes}
    unknown = sorted(set(overrides) - axis_names - SPEC_FIELDS - CONFIG_FIELDS)
    if unknown:
        raise ConfigurationError(
            f"experiment {experiment.name!r} has no axis or ScenarioSpec field "
            f"named {', '.join(unknown)}"
        )
    # a caller's seed is also a base override: a section without a template
    # hands it through, a section with one overwrites it per point
    seed = overrides.get("seed", experiment.seed)
    base = {k: v for k, v in overrides.items() if k not in axis_names}

    # every axis is resolved before anything runs: a value that can never run
    # fails here, not after the sections before it have been paid for
    resolved = [_resolve_axes(section, overrides) for section in experiment.sections]
    record = {"name": experiment.name, "seed": seed, "axes": {}, "failed_checks": [], "data": {}}
    for section, (axes, skipped) in zip(experiment.sections, resolved):
        data, failed = _run_section(experiment, section, axes, base, seed, progress)
        if skipped:
            data["skipped"] = skipped
        record["data"][section.key] = data
        record["axes"][section.key] = axes
        record["failed_checks"] += [f"{section.key}: {message}" for message in failed]
    return record


def emit_record(record: dict) -> Path:
    """Print the record's tables and write ``BENCH_<name>.json``."""
    for section in record["data"].values():
        if section["rows"]:
            print(format_table(section["headers"], section["rows"], title=section["title"]))
        for key, value in section.items():
            if key != "title" and isinstance(value, (bool, int, float, str)):
                print(f"{key}: {value}")
        if "skipped" in section:
            print(f"skipped (unavailable): {section['skipped']}")
    for message in record["failed_checks"]:
        print(f"check FAILED -- {message}", file=sys.stderr)
    header = {k: record[k] for k in ("seed", "axes", "failed_checks")}
    return write_json_report(record["name"], record["data"], **header)
