"""The clock of the simulated network.

Time is a float (seconds).  :class:`~repro.net.simulated.SimulatedNetwork`
delivers every message by delay arithmetic and only ever *moves* this clock
(:meth:`seek`, :meth:`rewind`, :meth:`fast_forward`, :meth:`advance`); it
schedules nothing.  The small event heap (:meth:`schedule`, :meth:`step`,
:meth:`run_until_idle`) is kept for its two remaining drivers: the benchmark
ladder's ``net.scheduler_events_per_s`` probe and the per-frame reference
network in ``tests/per_frame_network.py``.
"""

from __future__ import annotations

import heapq
from typing import Callable


class EventScheduler:
    """A simulated clock, plus a minimal (time, sequence, callback) heap."""

    def __init__(self, start: float = 0.0) -> None:
        self.now: float = start
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self.events_processed = 0

    # -- the clock -------------------------------------------------------------
    def rewind(self, to_time: float) -> None:
        """Move the clock backwards to ``to_time`` (phase bookkeeping only).

        A :class:`~repro.net.simulated._SimulatedPhase` restarts each of its
        logically concurrent tasks at the phase's start time, and a call
        whose deadline expired is clamped back to it; these are the
        legitimate ways time moves backwards.
        """
        if to_time > self.now:
            raise ValueError("rewind cannot move the clock forward")
        self.now = to_time

    def seek(self, to_time: float) -> None:
        """Set the clock to an arbitrary wave-task timestamp.

        A delivery wave processes logically concurrent frames one after
        another, each at its own arrival instant, so the clock legitimately
        hops both backwards and forwards between them; the wave ends by
        seeking to its latest finisher.
        """
        self.now = to_time

    def fast_forward(self, to_time: float) -> None:
        """Jump the clock forward to ``to_time`` (a phase ends at its latest finisher)."""
        if to_time < self.now:
            raise ValueError("fast_forward cannot move the clock backwards")
        self.now = to_time

    def advance(self, seconds: float) -> None:
        """Jump the clock forward by ``seconds``."""
        if seconds < 0:
            raise ValueError("cannot advance time backwards")
        self.now += seconds

    # -- the event heap (benchmark probe and test oracle only) -----------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self.now + delay, self._seq, callback))
        self._seq += 1

    def step(self) -> bool:
        """Run the next event (ties in schedule order); False when the heap is empty."""
        if not self._heap:
            return False
        time, _seq, callback = heapq.heappop(self._heap)
        # An event scheduled before a rewind-and-advance runs "now":
        # simulated time never moves backward by running an event.
        self.now = max(self.now, time)
        self.events_processed += 1
        callback()
        return True

    def run_until_idle(self) -> None:
        while self.step():
            pass
