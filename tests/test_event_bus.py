"""EventBus semantics: ring-buffer history, filtered queries, unsubscribe."""

from __future__ import annotations

from repro.api.events import EventBus


class TestHistoryRingBuffer:
    def test_history_evicts_oldest_at_max_history(self):
        bus = EventBus(max_history=3)
        for i in range(5):
            bus.emit("tick", round_number=i)
        assert len(bus) == 3
        assert [e.round_number for e in bus.history()] == [2, 3, 4]

    def test_subscribers_still_see_evicted_events(self):
        bus = EventBus(max_history=1)
        seen = []
        bus.subscribe_all(lambda e: seen.append(e.round_number))
        for i in range(4):
            bus.emit("tick", round_number=i)
        assert seen == [0, 1, 2, 3]
        assert len(bus) == 1

    def test_filtered_history_and_last(self):
        bus = EventBus()
        bus.emit("a", round_number=1)
        bus.emit("b", round_number=2)
        bus.emit("a", round_number=3)
        assert [e.round_number for e in bus.history("a")] == [1, 3]
        assert bus.last("a").round_number == 3
        assert bus.last("b").round_number == 2
        assert bus.last("missing") is None
        assert len(bus.history()) == 3


class TestUnsubscribe:
    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe("tick", seen.append)
        bus.emit("tick")
        unsubscribe()
        bus.emit("tick")
        assert len(seen) == 1

    def test_unsubscribe_is_idempotent(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe("tick", seen.append)
        unsubscribe()
        unsubscribe()  # second call must be a no-op, not an error
        bus.emit("tick")
        assert seen == []

    def test_double_subscribe_keeps_the_other_registration(self):
        bus = EventBus()
        seen = []
        first = bus.subscribe("tick", seen.append)
        bus.subscribe("tick", seen.append)
        bus.emit("tick")
        assert len(seen) == 2  # one delivery per registration
        first()
        bus.emit("tick")
        assert len(seen) == 3  # the second registration survives
        first()  # idempotent even after the list shrank
        bus.emit("tick")
        assert len(seen) == 4

    def test_subscribe_all_unsubscribe_matches_semantics(self):
        bus = EventBus()
        seen = []
        first = bus.subscribe_all(seen.append)
        bus.subscribe_all(seen.append)
        bus.emit("anything")
        assert len(seen) == 2
        first()
        first()
        bus.emit("anything")
        assert len(seen) == 3

    def test_typed_and_all_subscribers_both_fire(self):
        bus = EventBus()
        order = []
        bus.subscribe("tick", lambda e: order.append("typed"))
        bus.subscribe_all(lambda e: order.append("all"))
        bus.emit("tick")
        bus.emit("other")
        assert order == ["typed", "all", "all"]

