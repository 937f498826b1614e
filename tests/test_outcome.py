"""A run's outcome (``repro.obs.record.outcome``): the record without the
leaves ``MEASUREMENT`` lists, and the comparison ``tools/parity.py`` prints
from it."""

from __future__ import annotations

import copy

import pytest

from repro.obs import record as record_module
from repro.obs.record import MEASUREMENT, outcome
from repro.obs.trace import Tracer, set_active_tracer
from repro.sim.scenarios import run_scenario


@pytest.fixture(scope="module")
def traced_record():
    """A traced ``sim`` record: it carries every subtree the table names."""
    previous = set_active_tracer(Tracer())
    try:
        result = run_scenario(
            "baseline", num_clients=8, addfriend_rounds=2, dialing_rounds=2, seed="outcome"
        )
    finally:
        set_active_tracer(previous)
    return result.to_dict()


class TestTheTable:
    def test_every_entry_names_a_leaf_of_a_traced_record(self, traced_record, monkeypatch):
        projection = outcome(traced_record)
        for entry in MEASUREMENT:
            monkeypatch.setattr(
                record_module, "MEASUREMENT", tuple(e for e in MEASUREMENT if e != entry)
            )
            assert outcome(traced_record) != projection, f"{entry!r} removes nothing"
        monkeypatch.undo()
        assert outcome(traced_record) == projection

    @pytest.mark.parametrize("change", [
        lambda r: r["privacy"]["protocols"]["dialing"].update(epsilon=0.5),
        lambda r: r["calls_by_method"].update(submit=r["calls_by_method"]["submit"] + 1),
        lambda r: r["round_gauges"][0]["events"].update(request_queued=7),
    ], ids=["privacy-epsilon", "calls-by-method", "round-gauge-events"])
    def test_an_outcome_leaf_moves_the_projection(self, traced_record, change):
        changed = copy.deepcopy(traced_record)
        change(changed)
        assert outcome(changed) != outcome(traced_record)

    @pytest.mark.parametrize("change", [
        lambda r: r.update(wall_seconds=r["wall_seconds"] + 1, runtime="mp", mp_workers=2),
        lambda r: r["rounds"][1].update(latency_s=9.0, mix_stage_s=8.0),
        lambda r: r["round_gauges"][0].update(clock=0.0, net={"entry": {}}),
        lambda r: r["throughput"]["dialing"].update(busy_s=0.1, rounds_per_sec=40.0),
        lambda r: r["trace"].update(span_count=0),
        lambda r: r["net"].clear(),
    ], ids=["top-level", "round-stage", "round-gauge", "throughput", "trace", "net"])
    def test_a_listed_leaf_does_not(self, traced_record, change):
        changed = copy.deepcopy(traced_record)
        change(changed)
        assert changed != traced_record
        assert outcome(changed) == outcome(traced_record)

    def test_outcome_leaves_the_record_alone(self, traced_record):
        kept = copy.deepcopy(traced_record)
        outcome(traced_record)
        assert traced_record == kept


class TestParityComparison:
    """``tools/parity.py``'s comparison on two hand-made records."""

    OLD = {
        "wall_seconds": 1.0,
        "runtime": "sim",
        "friendships_confirmed": 2,
        "rounds": [{"latency_s": 0.5, "delivered_real": 3}],
        "net": {"entry": {"connections": 1}},
    }
    NEW = {
        "wall_seconds": 2.0,
        "runtime": "asyncio",
        "friendships_confirmed": 2,
        "rounds": [{"latency_s": 0.7, "delivered_real": 4}],
        "net": {},
        "sessions": {"count": 2},
    }

    def test_each_differing_leaf_lands_in_its_class(self, parity_tool):
        outcomes, measurements = parity_tool.compare(self.OLD, self.NEW)
        assert outcomes == [
            ("rounds[0].delivered_real", 3, 4),
            ("sessions.count", parity_tool.ABSENT, 2),
        ]
        assert measurements == [
            ("wall_seconds", 1.0, 2.0),
            ("runtime", "sim", "asyncio"),
            ("rounds[0].latency_s", 0.5, 0.7),
            ("net.entry.connections", 1, parity_tool.ABSENT),
            ("net", parity_tool.ABSENT, {}),
        ]

    def test_equal_records_differ_nowhere(self, parity_tool):
        assert parity_tool.compare(self.OLD, copy.deepcopy(self.OLD)) == ([], [])
