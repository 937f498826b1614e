"""EventBus semantics: ring-buffer history, filtered queries, dispatch order."""

from __future__ import annotations

from repro.api.events import EventBus


class TestHistoryRingBuffer:
    def test_history_evicts_oldest_at_max_history(self):
        bus = EventBus(max_history=3)
        for i in range(5):
            bus.emit("tick", round_number=i)
        assert len(bus.history()) == 3
        assert [e.round_number for e in bus.history()] == [2, 3, 4]

    def test_subscribers_still_see_evicted_events(self):
        bus = EventBus(max_history=1)
        seen = []
        bus.subscribe_all(lambda e: seen.append(e.round_number))
        for i in range(4):
            bus.emit("tick", round_number=i)
        assert seen == [0, 1, 2, 3]
        assert len(bus.history()) == 1

    def test_filtered_history(self):
        bus = EventBus()
        bus.emit("a", round_number=1)
        bus.emit("b", round_number=2)
        bus.emit("a", round_number=3)
        assert [e.round_number for e in bus.history("a")] == [1, 3]
        assert bus.history("a")[-1].round_number == 3
        assert bus.history("b")[-1].round_number == 2
        assert bus.history("missing") == []
        assert len(bus.history()) == 3


class TestDispatch:
    def test_typed_and_all_subscribers_both_fire(self):
        bus = EventBus()
        order = []
        bus.subscribe("tick", lambda e: order.append("typed"))
        bus.subscribe_all(lambda e: order.append("all"))
        bus.emit("tick")
        bus.emit("other")
        assert order == ["typed", "all", "all"]

